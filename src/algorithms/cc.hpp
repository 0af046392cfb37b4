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
// not be data races. The loop itself is cc_detail::shiloach_vishkin, which
// takes a vertex filter so the incremental kernel (cc_incr.hpp) can run the
// same loop over only the components a delete round touched.
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

// Every id in [0, n), in order: the vertex list of the full kernel.
struct AllVertices {
  NodeId n;
  [[nodiscard]] std::int64_t size() const { return n; }
  NodeId operator[](std::int64_t i) const { return i; }
};

// Parallel pointer-jumping over a parent forest with comp[x] <= x: the
// label of every vertex in `vs` (indexable, sized) ends at its tree's
// root. Each vertex writes only its own label.
template <typename Vertices>
void compress(std::vector<NodeId>& comp, const Vertices& vs) {
  par::for_blocks(static_cast<std::int64_t>(vs.size()), 4096,
                  [&](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i) {
                      const NodeId v = vs[i];
                      NodeId p = load(comp[v]);
                      for (NodeId pp = load(comp[p]); p != pp;
                           pp = load(comp[p])) {
                        store(comp[v], pp);
                        p = pp;
                      }
                    }
                  });
}

inline void compress(std::vector<NodeId>& comp) {
  compress(comp, AllVertices{static_cast<NodeId>(comp.size())});
}

// Shiloach-Vishkin hook-and-compress to a fixpoint over the subgraph that
// the vertex filter `keep` induces: only edges with both endpoints kept
// are hooked, and only kept labels are compressed. `vs` lists exactly the
// kept vertices (AllVertices for the full kernel), so the sweeps visit
// them without testing the rest — measured on an RMAT mirror, testing a
// filter on every id cost the scoped sweep ~10% over the full kernel's.
// On entry every kept vertex must hold a kept label with comp[x] <= x
// (singletons in the full kernel); on exit every kept vertex holds the
// minimum id of its component in the induced subgraph. Unkept labels are
// never written.
template <GraphView G, typename Vertices, typename Keep>
void shiloach_vishkin(const G& g, std::vector<NodeId>& comp,
                      const Vertices& vs, Keep&& keep) {
  bool change = true;
  while (change) {
    change = par::reduce_blocks(
        static_cast<std::int64_t>(vs.size()), 1024, false,
        [&](std::int64_t blk_b, std::int64_t blk_e) {
          bool part = false;
          for (std::int64_t i = blk_b; i < blk_e; ++i) {
            const NodeId u = vs[i];
            g.for_each_out(u, [&](NodeId v) {
              const NodeId comp_u = load(comp[u]);
              const NodeId comp_v = load(comp[v]);
              if (comp_u == comp_v) return;
              // Hook the higher id onto the lower (benign racy min-update:
              // wrong winners only delay convergence, never break
              // correctness). keep(v) is tested last, only when a hook
              // would happen: hooks are rare next to edge visits, so the
              // filter adds nothing to the per-edge path.
              const NodeId high = comp_u > comp_v ? comp_u : comp_v;
              const NodeId low = comp_u + comp_v - high;
              if (load(comp[high]) == high && keep(v)) {
                part = true;
                store(comp[high], low);
              }
            });
          }
          return part;
        },
        [](bool a, bool b) { return a || b; });
    compress(comp, vs);
  }
}

}  // namespace cc_detail

template <GraphView G>
std::vector<NodeId> connected_components(const G& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> comp(static_cast<std::size_t>(n));
  par::for_blocks(n, 4096, [&](std::int64_t b, std::int64_t e) {
    for (NodeId v = b; v < e; ++v) comp[v] = v;
  });
  cc_detail::shiloach_vishkin(g, comp, cc_detail::AllVertices{n},
                              [](NodeId) { return true; });
  return comp;
}

}  // namespace dgap::algorithms
