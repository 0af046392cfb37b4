// Incremental Connected Components between snapshot epochs. Output is
// EXACTLY the full Shiloach-Vishkin labeling of the newer cut (cc.hpp
// converges to the minimum vertex id per component), so equivalence is
// checked with operator== — no tolerance.
//
// Inserts only grow components: a union-find hook pass over the delta's
// inserted edges (link the larger root under the smaller, path-halving
// finds) merges the previous labeling in O(|delta| * alpha) without
// touching unchanged components.
//
// Deletes can split components, and a split cannot be resolved locally —
// but only inside the components that actually lost an edge. The kernel
// flags the previous labels touched by any deleted edge, resets each
// member of those components to a singleton, and relinks the members in
// parallel with GAPBS's lock-free min-root union-find: one pass over every
// member's out-edges to other members, where each edge CASes the higher of
// its endpoints' roots under the lower, then a parallel compress. Two care
// points make that exact:
//
//  - Linking keeps comp[x] <= x, so every root is its tree's minimum id —
//    the label full SV converges to. Each directed edge links both of its
//    endpoints, so a delete that absorbed only one direction of a pair
//    cannot under-merge: the surviving direction still joins them, just as
//    full SV hooks every edge symmetrically.
//  - Restricting to members loses nothing: every surviving edge incident
//    to a member leads to another member or was inserted since the older
//    cut (old edges never crossed old components), and the hook pass
//    covers the latter. Conversely the hook pass SKIPS member-member
//    inserted edges: the surviving ones were already linked by the member
//    pass, and an inserted edge cancelled by an in-round delete (which
//    must be member-member — deleted endpoints are members by
//    construction) must not merge anything.
//
// Everything outside the touched components keeps its previous label.
//
// Requires `prev` to be the exact labeling of the delta's older cut (its
// size must be nodes_before); anything else falls back to a full
// recompute and reports full_fallback. Vertices born since the older cut
// start as singletons and are merged by the hook pass.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/algorithms/cc.hpp"
#include "src/algorithms/graph_view.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::algorithms {

struct IncrementalCcResult {
  std::vector<NodeId> labels;
  // Vertices relabeled by the scoped delete recomputation (0 on
  // insert-only rounds) — the work metric the bench reports.
  std::uint64_t recomputed_vertices = 0;
  bool full_fallback = false;
};

template <GraphView G>
IncrementalCcResult incremental_cc(const G& g,
                                   const core::SnapshotDelta& delta,
                                   const std::vector<NodeId>& prev) {
  const NodeId n = g.num_nodes();
  IncrementalCcResult r;
  if (static_cast<NodeId>(prev.size()) != delta.nodes_before ||
      n != delta.nodes_after) {
    r.labels = connected_components(g);
    r.recomputed_vertices = static_cast<std::uint64_t>(n);
    r.full_fallback = true;
    return r;
  }

  // Previous labels extended: new vertices are singleton components until
  // the hook pass below merges them along their inserted edges.
  std::vector<NodeId>& comp = r.labels;
  comp = prev;
  comp.resize(static_cast<std::size_t>(n));
  for (NodeId v = delta.nodes_before; v < n; ++v) comp[v] = v;

  std::vector<std::uint8_t> member;  // non-empty only on delete rounds
  if (!delta.deleted.empty()) {
    // Components that lost an edge, flagged by previous label: exact
    // reconnectivity is recomputed for their members only.
    std::vector<std::uint8_t> hit(static_cast<std::size_t>(n), 0);
    for (const core::DeltaEdge& e : delta.deleted) {
      hit[comp[e.src]] = 1;
      if (e.dst >= 0 && e.dst < n) hit[comp[e.dst]] = 1;
    }
    member.assign(static_cast<std::size_t>(n), 0);
    r.recomputed_vertices = par::reduce_blocks(
        n, 4096, std::uint64_t{0},
        [&](std::int64_t b, std::int64_t e) {
          std::uint64_t cnt = 0;
          for (NodeId v = b; v < e; ++v) {
            if (hit[comp[v]] == 0) continue;
            member[v] = 1;
            comp[v] = v;
            ++cnt;
          }
          return cnt;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    // GAPBS Link: hang the higher root under the lower with a CAS, retrying
    // from the grandparents when another thread moved either root first.
    auto link = [&comp](NodeId u, NodeId v) {
      NodeId p1 = cc_detail::load(comp[u]);
      NodeId p2 = cc_detail::load(comp[v]);
      while (p1 != p2) {
        const NodeId high = p1 > p2 ? p1 : p2;
        const NodeId low = p1 + p2 - high;
        NodeId expected = high;
        if (std::atomic_ref<NodeId>(comp[high])
                .compare_exchange_strong(expected, low,
                                         std::memory_order_relaxed) ||
            expected == low)
          return;
        p1 = cc_detail::load(comp[cc_detail::load(comp[high])]);
        p2 = cc_detail::load(comp[low]);
      }
    };
    par::for_blocks(n, 1024, [&](std::int64_t b, std::int64_t e) {
      for (NodeId u = b; u < e; ++u) {
        if (member[u] == 0) continue;
        g.for_each_out(u, [&](NodeId w) {
          if (w >= 0 && w < n && member[w] != 0) link(u, w);
        });
      }
    });
  }

  // `comp` is now a parent forest with comp[x] <= x (previous labels are
  // their own roots, relinked members hang under their minimum): hook the
  // inserted edges with path-halving union-find, min root wins.
  auto find = [&comp](NodeId v) {
    while (comp[v] != comp[comp[v]]) comp[v] = comp[comp[v]];
    return comp[v];
  };
  for (const core::DeltaEdge& e : delta.inserted) {
    if (e.dst < 0 || e.dst >= n) continue;
    // Member-member inserts are either already linked (surviving) or dead
    // (cancelled by an in-round delete) — never hook them.
    if (!member.empty() && member[e.src] != 0 && member[e.dst] != 0) continue;
    const NodeId ru = find(e.src);
    const NodeId rv = find(e.dst);
    if (ru == rv) continue;
    const NodeId hi = ru > rv ? ru : rv;
    comp[hi] = ru + rv - hi;
  }
  cc_detail::compress(comp);
  return r;
}

}  // namespace dgap::algorithms
