// BalStore: Blocked Adjacency List on persistent memory.
//
// The paper's insertion-side extreme baseline (§4.1): each vertex owns a
// chain of fixed-size blocks; an insert appends into the tail block (one
// small persist) or links a fresh block. Insertions are fast and take
// per-vertex locks (finer-grained than DGAP's per-section locks — the paper
// notes this inflates BAL's multi-thread scalability); whole-graph analysis
// is slow because every block hop is a dependent pointer chase.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/spinlock.hpp"
#include "src/graph/types.hpp"
#include "src/pmem/pool.hpp"

namespace dgap::baselines {

class BalStore {
 public:
  // `block_edges` destinations per block; 30 gives 256-byte blocks
  // (16-byte header + 30 * 8), one XPLine each.
  static std::unique_ptr<BalStore> create(pmem::PmemPool& pool,
                                          NodeId init_vertices,
                                          std::uint32_t block_edges = 30);

  void insert_edge(NodeId src, NodeId dst);
  void insert_vertex(NodeId v);
  // Batched ingestion: groups the batch by source so each vertex takes its
  // lock once and each touched tail block is persisted once (K same-vertex
  // edges cost one block persist, not K).
  void insert_batch(std::span<const Edge> edges);

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(num_nodes_.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::int64_t out_degree(NodeId v) const {
    return degree_[v].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t num_edges_directed() const;

  template <typename F>
  void for_each_out(NodeId v, F&& fn) const {
    std::uint64_t off = heads_[v].head_off;
    while (off != 0) {
      const auto* b = pool_.at<Block>(off);
      const std::uint64_t count = b->count;
      for (std::uint64_t i = 0; i < count; ++i)
        if (emit_stop(fn, b->dst[i])) return;
      off = b->next_off;
    }
  }

 private:
  struct Block {
    std::uint64_t next_off;
    std::uint64_t count;
    NodeId dst[];  // block_edges_ entries
  };
  struct VertexHead {
    std::uint64_t head_off = 0;
    std::uint64_t tail_off = 0;
  };

  explicit BalStore(pmem::PmemPool& pool) : pool_(pool) {}
  [[nodiscard]] std::uint64_t block_bytes() const {
    return sizeof(Block) + block_edges_ * sizeof(NodeId);
  }
  std::uint64_t alloc_block();

  pmem::PmemPool& pool_;
  std::uint32_t block_edges_ = 30;
  std::vector<VertexHead> heads_;
  // heads_.size(), published after growth has swapped every per-vertex
  // array, so the lock-free fast path in insert_vertex never reads heads_
  // while a grower resizes it.
  std::atomic<std::size_t> num_nodes_{0};
  std::vector<std::atomic<std::int64_t>> degree_;
  std::unique_ptr<SpinLock[]> locks_;  // per-vertex (paper §4.2.1)
  SpinLock grow_mu_;
  // Vertex growth swaps locks_ and reallocates heads_/degree_; in-flight
  // writers hold this shared for the duration of their per-vertex critical
  // section so a concurrent grower (exclusive) cannot pull those arrays out
  // from under them.
  RWSpinLock grow_gate_;
};

}  // namespace dgap::baselines
