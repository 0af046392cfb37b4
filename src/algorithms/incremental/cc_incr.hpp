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
// member of those components to a singleton, and runs the full kernel's
// own Shiloach-Vishkin loop (cc_detail::shiloach_vishkin) over the
// subgraph the members induce: only member-member edges are hooked and
// only member labels are compressed, so the work follows the hit
// components, not the graph. Two care points make that exact:
//
//  - SV converges every member to the minimum id of its component in the
//    member-induced subgraph, hooking every directed edge symmetrically,
//    so a delete that absorbed only one direction of a pair cannot
//    under-merge: the surviving direction still joins them.
//  - Restricting to members loses nothing: every surviving edge incident
//    to a member leads to another member or was inserted since the older
//    cut (old edges never crossed old components), and the hook pass
//    covers the latter. Conversely the hook pass SKIPS member-member
//    inserted edges: the surviving ones were already hooked by SV, and an
//    inserted edge cancelled by an in-round delete (which must be
//    member-member — deleted endpoints are members by construction) must
//    not merge anything.
//
// Everything outside the touched components keeps its previous label.
//
// Shortcut: when the hit components hold all but 1/32 of the directed
// slots (live deletes keep landing in a giant component that holds nearly
// the whole graph), the scoped loop hooks nearly every edge anyway and its
// member bookkeeping only adds to that, so the kernel returns
// connected_components(g) instead — recomputed_vertices = n, full_fallback
// stays false (the seed was fine). The member-count pass sums the members'
// out-degrees for that decision. Below that share the scoped loop is the
// faster one: in an offline replay on 90k-vertex RMAT graphs it beat the
// full kernel at every hit share up to 0.95 and tied it at 0.99.
//
// Requires `prev` to be the exact labeling of the delta's older cut (its
// size must be nodes_before); anything else falls back to a full
// recompute and reports full_fallback. Vertices born since the older cut
// start as singletons and are merged by the hook pass.
#pragma once

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
  // insert-only rounds, n when the shortcut runs the full kernel) — the
  // work metric the bench reports.
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
  const auto old_label = [&](NodeId v) {
    return v < delta.nodes_before ? prev[v] : v;
  };
  std::vector<NodeId>& comp = r.labels;
  std::vector<std::uint8_t> member;  // non-empty only on delete rounds
  if (delta.deleted.empty()) {
    comp = prev;
    comp.resize(static_cast<std::size_t>(n));
    for (NodeId v = delta.nodes_before; v < n; ++v) comp[v] = v;
  } else {
    // Components that lost an edge, flagged by previous label: exact
    // reconnectivity is recomputed for their members only.
    std::vector<std::uint8_t> hit(static_cast<std::size_t>(n), 0);
    for (const core::DeltaEdge& e : delta.deleted) {
      hit[old_label(e.src)] = 1;
      if (e.dst >= 0 && e.dst < n) hit[old_label(e.dst)] = 1;
    }
    // Members: per-block counts and out-degree sums, then (unless the
    // shortcut takes over) per-block fills at the prefix offsets that list
    // them in id order and reset them to singletons.
    constexpr std::int64_t kGrain = 4096;
    member.resize(static_cast<std::size_t>(n));
    const auto blocks = static_cast<std::size_t>((n + kGrain - 1) / kGrain);
    std::vector<std::size_t> at(blocks + 1);
    std::vector<std::uint64_t> slots(blocks);
    par::for_blocks(n, kGrain, [&](std::int64_t b, std::int64_t e) {
      std::size_t cnt = 0;
      std::uint64_t deg = 0;
      for (NodeId v = b; v < e; ++v) {
        // Branch-free: members are scattered over the id space, so a
        // branch on membership would mispredict about every other vertex.
        const std::uint8_t m = hit[old_label(v)];
        member[v] = m;
        cnt += m;
        deg += m * static_cast<std::uint64_t>(g.out_degree(v));
      }
      at[static_cast<std::size_t>(b / kGrain) + 1] = cnt;
      slots[static_cast<std::size_t>(b / kGrain)] = deg;
    });
    std::uint64_t hit_slots = 0;
    for (const std::uint64_t s : slots) hit_slots += s;
    if (32 * hit_slots >= 31 * g.num_edges_directed()) {
      comp = connected_components(g);
      r.recomputed_vertices = static_cast<std::uint64_t>(n);
      return r;
    }
    for (std::size_t k = 1; k < at.size(); ++k) at[k] += at[k - 1];
    std::vector<NodeId> members(at.back());
    comp.resize(static_cast<std::size_t>(n));
    par::for_blocks(n, kGrain, [&](std::int64_t b, std::int64_t e) {
      std::size_t k = at[static_cast<std::size_t>(b / kGrain)];
      for (NodeId v = b; v < e; ++v) {
        if (member[v] == 0) {
          comp[v] = old_label(v);
          continue;
        }
        comp[v] = v;
        members[k++] = v;
      }
    });
    r.recomputed_vertices = members.size();
    cc_detail::shiloach_vishkin(
        g, comp, members, [&member](NodeId v) { return member[v] != 0; });
  }

  // `comp` is now a parent forest with comp[x] <= x (previous labels are
  // their own roots, members carry their new component minimum): hook the
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
