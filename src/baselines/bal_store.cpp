#include "src/baselines/bal_store.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <stdexcept>

#include "src/pmem/alloc.hpp"

namespace dgap::baselines {

std::unique_ptr<BalStore> BalStore::create(pmem::PmemPool& pool,
                                           NodeId init_vertices,
                                           std::uint32_t block_edges) {
  std::unique_ptr<BalStore> store(new BalStore(pool));
  store->block_edges_ = block_edges;
  const auto n = static_cast<std::size_t>(std::max<NodeId>(init_vertices, 1));
  store->heads_.resize(n);
  store->degree_ = std::vector<std::atomic<std::int64_t>>(n);
  store->locks_ = std::make_unique<SpinLock[]>(n);
  store->num_nodes_.store(n, std::memory_order_release);
  return store;
}

std::uint64_t BalStore::alloc_block() {
  const std::uint64_t off = pool_.allocator().alloc(block_bytes());
  auto* b = pool_.at<Block>(off);
  std::memset(b, 0, block_bytes());
  pool_.persist(b, sizeof(Block));  // header is enough; dst written later
  return off;
}

void BalStore::insert_vertex(NodeId v) {
  if (v < num_nodes()) return;
  std::lock_guard<SpinLock> g(grow_mu_);
  const auto needed = static_cast<std::size_t>(v) + 1;
  if (needed <= heads_.size()) return;
  // Readers are not expected during growth (bulk-load phase); analysis runs
  // after loading, matching the paper's methodology. Concurrent *writers*
  // are excluded via the gate: they hold it shared across their per-vertex
  // critical sections, so no thread can be holding an old locks_ entry or a
  // heads_ reference while the arrays are swapped (the fresh all-unlocked
  // locks_ would otherwise let two writers into one vertex).
  std::lock_guard<RWSpinLock> gate(grow_gate_);
  const std::size_t new_size = std::max(needed, heads_.size() * 2);
  heads_.resize(new_size);
  auto bigger = std::vector<std::atomic<std::int64_t>>(new_size);
  for (std::size_t i = 0; i < degree_.size(); ++i)
    bigger[i].store(degree_[i].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  degree_ = std::move(bigger);
  auto locks = std::make_unique<SpinLock[]>(new_size);
  locks_ = std::move(locks);
  num_nodes_.store(new_size, std::memory_order_release);
}

void BalStore::insert_edge(NodeId src, NodeId dst) {
  if (src < 0 || dst < 0) throw std::invalid_argument("negative vertex id");
  insert_vertex(std::max(src, dst));
  // RAII hold: alloc_block can throw (pool exhausted) and a leaked shared
  // count would deadlock the next growth forever.
  std::shared_lock<RWSpinLock> gate(grow_gate_);
  {
    std::lock_guard<SpinLock> g(locks_[src]);
    VertexHead& h = heads_[src];
    bool appended = false;
    if (h.tail_off != 0) {
      auto* tail = pool_.at<Block>(h.tail_off);
      if (tail->count < block_edges_) {
        tail->dst[tail->count] = dst;
        // Edge value first, then the count bump that publishes it.
        pool_.persist(&tail->dst[tail->count], sizeof(NodeId));
        tail->count += 1;
        pool_.persist(&tail->count, sizeof(tail->count));
        appended = true;
      }
    }
    if (!appended) {
      // Need a fresh block (first block or tail full).
      const std::uint64_t off = alloc_block();
      auto* b = pool_.at<Block>(off);
      b->dst[0] = dst;
      b->count = 1;
      pool_.persist(b, sizeof(Block) + sizeof(NodeId));
      if (h.tail_off == 0) {
        h.head_off = off;
      } else {
        auto* tail = pool_.at<Block>(h.tail_off);
        tail->next_off = off;
        pool_.persist(&tail->next_off, sizeof(tail->next_off));
      }
      h.tail_off = off;
    }
    degree_[src].fetch_add(1, std::memory_order_acq_rel);
  }
}

void BalStore::insert_batch(std::span<const Edge> edges) {
  if (edges.empty()) return;
  NodeId max_id = -1;
  for (const Edge& e : edges) {
    if (e.src < 0 || e.dst < 0)
      throw std::invalid_argument("negative vertex id");
    max_id = std::max({max_id, e.src, e.dst});
  }
  insert_vertex(max_id);

  // Group by source, preserving per-source insertion order.
  std::vector<std::uint32_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (edges[a].src != edges[b].src) return edges[a].src < edges[b].src;
    return a < b;
  });

  std::shared_lock<RWSpinLock> gate(grow_gate_);
  std::size_t i = 0;
  while (i < order.size()) {
    const NodeId src = edges[order[i]].src;
    std::size_t j = i;
    while (j < order.size() && edges[order[j]].src == src) ++j;

    std::lock_guard<SpinLock> g(locks_[src]);
    VertexHead& h = heads_[src];
    std::size_t k = i;
    while (k < j) {
      Block* tail = h.tail_off != 0 ? pool_.at<Block>(h.tail_off) : nullptr;
      if (tail == nullptr || tail->count == block_edges_) {
        const std::uint64_t off = alloc_block();
        auto* b = pool_.at<Block>(off);
        if (tail == nullptr) {
          h.head_off = off;
        } else {
          tail->next_off = off;
          pool_.persist(&tail->next_off, sizeof(tail->next_off));
        }
        h.tail_off = off;
        tail = b;
      }
      // Fill as much of the tail block as the group allows, then persist the
      // written span (values + count) once.
      const std::uint64_t room = block_edges_ - tail->count;
      const std::uint64_t take =
          std::min<std::uint64_t>(room, static_cast<std::uint64_t>(j - k));
      for (std::uint64_t n = 0; n < take; ++n)
        tail->dst[tail->count + n] = edges[order[k + n]].dst;
      pool_.flush(&tail->dst[tail->count], take * sizeof(NodeId));
      tail->count += take;
      pool_.flush(&tail->count, sizeof(tail->count));
      pool_.fence();
      k += take;
    }
    degree_[src].fetch_add(static_cast<std::int64_t>(j - i),
                           std::memory_order_acq_rel);
    i = j;
  }
}

std::uint64_t BalStore::num_edges_directed() const {
  std::uint64_t total = 0;
  for (const auto& d : degree_)
    total += static_cast<std::uint64_t>(d.load(std::memory_order_relaxed));
  return total;
}

}  // namespace dgap::baselines
