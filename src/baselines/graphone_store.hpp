// GraphOneStore: GraphOne-FD (Kumar & Huang, FAST'19) as the paper ports
// it to PM (§4.1, "GraphOne Flushing-DRAM").
//
// New edges land in a DRAM edge list; an archive phase moves them in
// batches into the DRAM adjacency list, which GraphOne keeps as per-vertex
// chains of fixed-size blocks ("vunits") updated with atomic degree
// bumps. Durability comes from flushing the edge list to a PM edge log
// every 2^16 inserts (the paper's flush requirement) — data since the last
// flush would be lost on power failure, exactly the trade-off the paper
// calls impractical.
//
// Analysis runs on the DRAM blocked adjacency list: random vertex access is
// fast (GraphOne wins BFS in the paper's Fig 8), but whole-graph kernels
// pay the per-block pointer chase (it loses PR/CC to CSR-shaped layouts,
// Fig 7).
//
// NOTE: this is a lean reimplementation; the original research prototype
// carries much heavier per-edge software overhead, so our GraphOne-FD
// ingests faster relative to DGAP than the paper reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/types.hpp"
#include "src/pmem/pool.hpp"

namespace dgap::baselines {

class GraphOneStore {
 public:
  static std::unique_ptr<GraphOneStore> create(
      pmem::PmemPool& pool, NodeId init_vertices,
      std::uint64_t flush_every = 1ull << 16,
      std::uint64_t archive_every = 1ull << 15);

  void insert_edge(NodeId src, NodeId dst);
  void insert_vertex(NodeId v);
  // Batched ingestion: one bulk append into the DRAM edge list (GraphOne's
  // level-0 structure is exactly an edge-list buffer, so a batch is its
  // native unit) with a single vertex-bound check for the whole batch.
  void insert_batch(std::span<const Edge> edges);
  // Archive all staged edges into the adjacency list and flush the durable
  // PM edge log (call before analysis / shutdown).
  void flush_durable();

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(heads_.size());
  }
  [[nodiscard]] std::uint64_t num_edges_directed() const {
    return total_edges_;
  }
  [[nodiscard]] std::uint64_t unflushed_edges() const {
    return total_edges_ - durable_edges_;
  }
  [[nodiscard]] std::int64_t out_degree(NodeId v) const {
    return degree_[v].load(std::memory_order_acquire);
  }

  template <typename F>
  void for_each_out(NodeId v, F&& fn) const {
    const AdjBlock* b = heads_[v];
    while (b != nullptr) {
      const std::uint32_t count = b->count;
      for (std::uint32_t i = 0; i < count; ++i)
        if (emit_stop(fn, b->dst[i])) return;
      b = b->next;
    }
  }

 private:
  static constexpr std::uint32_t kBlockEdges = 30;
  struct AdjBlock {
    AdjBlock* next = nullptr;
    std::uint32_t count = 0;
    NodeId dst[kBlockEdges];
  };

  explicit GraphOneStore(pmem::PmemPool& pool) : pool_(pool) {}
  void ensure_log_capacity(std::uint64_t more);
  void archive_batch();

  pmem::PmemPool& pool_;
  std::uint64_t flush_every_ = 1ull << 16;
  std::uint64_t archive_every_ = 1ull << 15;

  // DRAM blocked adjacency ("vunit" chains) + atomic degree column.
  std::deque<AdjBlock> arena_;  // block storage, pointer-stable
  std::vector<AdjBlock*> heads_;
  std::vector<AdjBlock*> tails_;
  std::vector<std::atomic<std::int64_t>> degree_;

  std::vector<Edge> staged_;   // DRAM edge list since the last archive
  std::vector<Edge> durable_buffer_;  // edges awaiting the PM flush
  std::uint64_t total_edges_ = 0;
  std::uint64_t durable_edges_ = 0;
  std::uint64_t log_off_ = 0;       // PM edge log region
  std::uint64_t log_capacity_ = 0;  // edges
};

}  // namespace dgap::baselines
