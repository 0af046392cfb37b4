// Betweenness Centrality — Brandes' algorithm (paper Table 1: "Brandes
// approx.": centrality from a sampled set of source vertices, GAPBS-style).
//
// For each source: a level-synchronous BFS records path counts sigma and
// the level sets; a backward sweep accumulates dependencies
// delta(v) = sum_{w : succ} sigma(v)/sigma(w) * (1 + delta(w)).
// Scores are normalized to [0,1] by the max, as GAPBS does.
//
// Parallelism goes through par:: (scheduler or OpenMP). delta accumulates
// via par::atomic_add — the mode-neutral CAS form of the old
// `#pragma omp atomic` — and the max-normalization reduces per block in
// block order, so it is identical across modes and widths.
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

template <GraphView G>
std::vector<double> betweenness_centrality(
    const G& g, const std::vector<NodeId>& sources) {
  const NodeId n = g.num_nodes();
  std::vector<double> scores(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return scores;
  // BC touches each frontier edge once per direction per source — a
  // streaming pattern the DRAM section cache should not populate from.
  const tier::StreamingReadScope streaming;

  std::vector<std::atomic<std::int64_t>> sigma(static_cast<std::size_t>(n));
  std::vector<std::int32_t> depth(static_cast<std::size_t>(n));
  std::vector<double> delta(static_cast<std::size_t>(n));

  for (const NodeId source : sources) {
    par::for_blocks(n, 4096, [&](std::int64_t b, std::int64_t e) {
      for (NodeId v = b; v < e; ++v) {
        sigma[v].store(0, std::memory_order_relaxed);
        depth[v] = -1;
        delta[v] = 0.0;
      }
    });
    sigma[source].store(1, std::memory_order_relaxed);
    depth[source] = 0;

    // Forward: level-synchronous BFS tracking path counts and levels.
    SlidingQueue<NodeId> queue(static_cast<std::size_t>(n));
    queue.push_back(source);
    queue.slide_window();
    std::vector<std::size_t> level_ends;
    std::int32_t level = 0;
    while (!queue.empty()) {
      const auto qbegin = queue.begin();
      const std::int64_t qsize = queue.end() - queue.begin();
      par::BlockSource src(qsize, 64);
      const int k = static_cast<int>(
          std::min<std::int64_t>(par::max_threads(), src.num_blocks()));
      par::team(k, [&](int, int) {
        QueueBuffer<NodeId> lqueue(queue);
        std::int64_t b = 0;
        std::int64_t e = 0;
        while (src.next(b, e)) {
          for (std::int64_t i = b; i < e; ++i) {
            const NodeId u = *(qbegin + i);
            const std::int64_t sigma_u =
                sigma[u].load(std::memory_order_relaxed);
            g.for_each_out(u, [&](NodeId v) {
              const std::atomic_ref<std::int32_t> depth_v(depth[v]);
              std::int32_t expected = -1;
              if (depth_v.load(std::memory_order_relaxed) == -1 &&
                  depth_v.compare_exchange_strong(expected, level + 1,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
                lqueue.push_back(v);
              }
              if (depth_v.load(std::memory_order_relaxed) == level + 1)
                sigma[v].fetch_add(sigma_u, std::memory_order_relaxed);
            });
          }
          par::assist_point();
        }
        lqueue.flush();
      });
      level_ends.push_back(queue.end() - queue.begin());
      queue.slide_window();
      ++level;
    }

    // Backward: accumulate dependencies level by level, deepest first.
    std::vector<std::vector<NodeId>> levels(
        static_cast<std::size_t>(level) + 1);
    for (NodeId v = 0; v < n; ++v)
      if (depth[v] >= 0) levels[depth[v]].push_back(v);
    for (std::int32_t l = level; l-- > 0;) {
      const auto& frontier = levels[l + 1];
      par::for_blocks(
          static_cast<std::int64_t>(frontier.size()), 64,
          [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
              const NodeId w = frontier[static_cast<std::size_t>(i)];
              const double coeff =
                  (1.0 + delta[w]) /
                  static_cast<double>(
                      sigma[w].load(std::memory_order_relaxed));
              g.for_each_out(w, [&](NodeId v) {
                if (depth[v] == l) {
                  const double add =
                      static_cast<double>(
                          sigma[v].load(std::memory_order_relaxed)) *
                      coeff;
                  par::atomic_add(delta[v], add);
                }
              });
            }
          });
    }
    par::for_blocks(n, 4096, [&](std::int64_t b, std::int64_t e) {
      for (NodeId v = b; v < e; ++v)
        if (v != source) scores[v] += delta[v];
    });
  }

  const double biggest = par::reduce_blocks(
      n, 4096, 0.0,
      [&](std::int64_t b, std::int64_t e) {
        double part = 0.0;
        for (NodeId v = b; v < e; ++v) part = std::max(part, scores[v]);
        return part;
      },
      [](double a, double b) { return std::max(a, b); });
  if (biggest > 0.0) {
    par::for_blocks(n, 4096, [&](std::int64_t b, std::int64_t e) {
      for (NodeId v = b; v < e; ++v) scores[v] /= biggest;
    });
  }
  return scores;
}

// Single-source convenience matching the paper's per-run setup.
template <GraphView G>
std::vector<double> betweenness_centrality(const G& g, NodeId source) {
  return betweenness_centrality(g, std::vector<NodeId>{source});
}

}  // namespace dgap::algorithms
