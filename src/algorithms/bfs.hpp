// Direction-optimizing Breadth-First Search (Beamer, Asanović, Patterson,
// SC'12) — the BFS variant the paper uses (Table 1).
//
// Top-down steps expand the frontier through out-edges into a shared
// sliding queue; when the frontier grows past |E_frontier| * alpha >
// |E_remaining|, switch to bottom-up steps where every unvisited vertex
// scans its (symmetric) neighbors for a parent, using bitmaps. Switch back
// when the frontier shrinks below |V| / beta.
//
// Parallelism goes through par:: (scheduler or OpenMP). The integer
// awake/scout reductions are exact in any combine order; the parent array
// itself is CAS-races-win at >1 thread in both modes (the bit-identity
// tests compare parents sequentially and depths at any width).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/algorithms/graph_view.hpp"
#include "src/common/bitmap.hpp"
#include "src/common/sliding_queue.hpp"
#include "src/sched/parallel.hpp"
#include "src/tier/streaming.hpp"

namespace dgap::algorithms {

struct BfsParams {
  int alpha = 15;  // GAPBS defaults
  int beta = 18;
};

namespace detail {

template <GraphView G>
std::int64_t bu_step(const G& g, std::vector<NodeId>& parent,
                     const Bitmap& front, Bitmap& next) {
  const NodeId n = g.num_nodes();
  return par::reduce_blocks(
      n, 1024, std::int64_t{0},
      [&](std::int64_t blk_b, std::int64_t blk_e) {
        std::int64_t awake = 0;
        for (NodeId v = blk_b; v < blk_e; ++v) {
          if (parent[v] >= 0) continue;
          bool found = false;
          // Early-exit scan: stop at the first frontier neighbor (GAPBS
          // BUStep).
          g.for_each_out(v, [&](NodeId u) -> bool {
            if (front.get_bit(static_cast<std::size_t>(u))) {
              parent[v] = u;
              found = true;
              return true;
            }
            return false;
          });
          if (found) {
            next.set_bit(static_cast<std::size_t>(v));
            ++awake;
          }
        }
        return awake;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
}

template <GraphView G>
std::int64_t td_step(const G& g, std::vector<NodeId>& parent,
                     SlidingQueue<NodeId>& queue) {
  const auto qbegin = queue.begin();
  const std::int64_t qsize = queue.end() - queue.begin();
  return par::team_reduce(
      qsize, 64, std::int64_t{0},
      [&](int, par::BlockSource& src) {
        std::int64_t scout = 0;
        QueueBuffer<NodeId> lqueue(queue);
        std::int64_t b = 0;
        std::int64_t e = 0;
        while (src.next(b, e)) {
          for (std::int64_t i = b; i < e; ++i) {
            const NodeId u = *(qbegin + i);
            g.for_each_out(u, [&](NodeId v) {
              const std::atomic_ref<NodeId> parent_v(parent[v]);
              NodeId cur = parent_v.load(std::memory_order_relaxed);
              if (cur < 0) {
                if (parent_v.compare_exchange_strong(
                        cur, u, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
                  lqueue.push_back(v);
                  scout += -cur;  // degree was encoded as -(deg+1)
                }
              }
            });
          }
          par::assist_point();
        }
        lqueue.flush();
        return scout;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
}

inline void queue_to_bitmap(const SlidingQueue<NodeId>& queue, Bitmap& bm) {
  for (auto it = queue.begin(); it < queue.end(); ++it)
    bm.set_bit(static_cast<std::size_t>(*it));
}

template <GraphView G>
void bitmap_to_queue(const G& g, const Bitmap& bm,
                     SlidingQueue<NodeId>& queue) {
  const NodeId n = g.num_nodes();
  par::BlockSource src(n, 4096);
  const int k = static_cast<int>(
      std::min<std::int64_t>(par::max_threads(), src.num_blocks()));
  par::team(k, [&](int, int) {
    QueueBuffer<NodeId> lqueue(queue);
    std::int64_t b = 0;
    std::int64_t e = 0;
    while (src.next(b, e)) {
      for (NodeId v = b; v < e; ++v)
        if (bm.get_bit(static_cast<std::size_t>(v))) lqueue.push_back(v);
    }
    lqueue.flush();
  });
  queue.slide_window();
}

}  // namespace detail

// Returns the parent array: parent[v] == v for the source, -1 for
// unreached vertices. Unvisited entries temporarily encode -(deg+1), the
// GAPBS trick that lets the top-down step track remaining edges.
template <GraphView G>
std::vector<NodeId> bfs(const G& g, NodeId source,
                        const BfsParams& params = {}) {
  const NodeId n = g.num_nodes();
  // Single-pass frontier expansion: each edge is touched O(1) times, so
  // populating the DRAM section cache would only evict iterative kernels'
  // hot sections (the fig8 single-pass regression).
  const tier::StreamingReadScope streaming;
  std::vector<NodeId> parent(static_cast<std::size_t>(n));
  par::for_blocks(n, 4096, [&](std::int64_t b, std::int64_t e) {
    for (NodeId v = b; v < e; ++v) parent[v] = -(g.out_degree(v) + 1);
  });

  if (n == 0) return parent;
  std::uint64_t edges_to_check = total_directed_edges(g);

  SlidingQueue<NodeId> queue(static_cast<std::size_t>(n));
  queue.push_back(source);
  queue.slide_window();
  parent[source] = source;
  Bitmap curr(static_cast<std::size_t>(n));
  Bitmap front(static_cast<std::size_t>(n));

  std::int64_t scout_count = g.out_degree(source);
  while (!queue.empty()) {
    if (scout_count >
        static_cast<std::int64_t>(edges_to_check) / params.alpha) {
      // Bottom-up phase.
      detail::queue_to_bitmap(queue, front);
      std::int64_t awake = static_cast<std::int64_t>(queue.size());
      std::int64_t old_awake = 0;
      do {
        old_awake = awake;
        curr.reset();
        awake = detail::bu_step(g, parent, front, curr);
        front.swap(curr);
      } while (awake >= old_awake ||
               awake > static_cast<std::int64_t>(n) / params.beta);
      queue.reset();
      detail::bitmap_to_queue(g, front, queue);
      scout_count = 1;
    } else {
      edges_to_check -= static_cast<std::uint64_t>(scout_count);
      scout_count = detail::td_step(g, parent, queue);
      queue.slide_window();
    }
  }
  par::for_blocks(n, 4096, [&](std::int64_t b, std::int64_t e) {
    for (NodeId v = b; v < e; ++v)
      if (parent[v] < 0) parent[v] = -1;
  });
  return parent;
}

}  // namespace dgap::algorithms
