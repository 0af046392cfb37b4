// Connected Components via Shiloach-Vishkin (paper Table 1), in the
// hook-and-compress formulation GAPBS uses.
//
// Repeatedly: (hook) for every edge (u,v), link the larger component id to
// the smaller; (compress) pointer-jump every vertex's label to its root.
// Terminates when a full pass changes nothing. Works on directed edge
// iteration over a symmetric graph. Racy hook winners only delay
// convergence — the fixpoint (every label = the component's minimum id)
// is schedule-independent, so the final labels are identical across
// par:: execution modes and thread counts. Shared label reads and writes go
// through relaxed std::atomic_ref: the races are intended, but they must
// not be data races.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/algorithms/graph_view.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::algorithms {

namespace cc_detail {

inline NodeId load(NodeId& slot) {
  return std::atomic_ref<NodeId>(slot).load(std::memory_order_relaxed);
}
inline void store(NodeId& slot, NodeId v) {
  std::atomic_ref<NodeId>(slot).store(v, std::memory_order_relaxed);
}

// Parallel pointer-jumping over a parent forest with comp[x] <= x: every
// label ends at its tree's root. Each vertex writes only its own label.
inline void compress(std::vector<NodeId>& comp) {
  par::for_blocks(static_cast<std::int64_t>(comp.size()), 4096,
                  [&](std::int64_t b, std::int64_t e) {
                    for (NodeId v = b; v < e; ++v) {
                      NodeId p = load(comp[v]);
                      for (NodeId pp = load(comp[p]); p != pp;
                           pp = load(comp[p])) {
                        store(comp[v], pp);
                        p = pp;
                      }
                    }
                  });
}

}  // namespace cc_detail

template <GraphView G>
std::vector<NodeId> connected_components(const G& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> comp(static_cast<std::size_t>(n));
  par::for_blocks(n, 4096, [&](std::int64_t b, std::int64_t e) {
    for (NodeId v = b; v < e; ++v) comp[v] = v;
  });

  bool change = true;
  while (change) {
    change = par::reduce_blocks(
        n, 1024, false,
        [&](std::int64_t blk_b, std::int64_t blk_e) {
          bool part = false;
          for (NodeId u = blk_b; u < blk_e; ++u) {
            g.for_each_out(u, [&](NodeId v) {
              const NodeId comp_u = cc_detail::load(comp[u]);
              const NodeId comp_v = cc_detail::load(comp[v]);
              if (comp_u == comp_v) return;
              // Hook the higher id onto the lower (benign racy min-update:
              // wrong winners only delay convergence, never break
              // correctness).
              const NodeId high = comp_u > comp_v ? comp_u : comp_v;
              const NodeId low = comp_u + comp_v - high;
              if (cc_detail::load(comp[high]) == high) {
                part = true;
                cc_detail::store(comp[high], low);
              }
            });
          }
          return part;
        },
        [](bool a, bool b) { return a || b; });
    cc_detail::compress(comp);
  }
  return comp;
}

}  // namespace dgap::algorithms
