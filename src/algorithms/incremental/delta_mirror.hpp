// Delta-maintained DRAM mirror of a snapshot: the read structure the
// incremental kernels sweep over.
//
// The incremental loop's certification sweeps are full O(E) passes, so on
// the raw snapshot they pay the same per-edge price as the full recompute
// they are racing — slot decoding over the PM pool plus the tombstone
// check — and the speedup collapses to the saved iterations. The mirror
// breaks that tie structurally: it is a packed adjacency in DRAM that only
// the incremental subsystem can afford to keep, because only the snapshot
// diff makes it maintainable in O(delta) per round instead of O(E).
//
// Fidelity contract: after apply(delta, newer), the mirror is observably
// identical to `newer` under the GraphView interface — out_degree returns
// the frozen slot count (tombstones included, matching the snapshot's
// degree semantics that PageRank divides by) and for_each_out emits the
// same surviving-neighbor multiset. The live bench re-verifies this every
// round by comparing kernels over the mirror against full kernels over the
// raw cut.
//
// Maintenance rules, derived from the store's cancellation semantics (a
// tombstone cancels the latest PRIOR un-cancelled insert of the same
// destination; a tombstone with no prior match cancels nothing):
//   * insert-only changed vertex: append the delta's inserted destinations
//     (chronological, nothing earlier can be affected) — O(events).
//   * vertex with any delete event: re-read its surviving neighbors from
//     the newer cut — O(deg). The delta records inserts and deletes in
//     separate per-source runs, so their interleaving inside the round is
//     not recoverable, and with dangling tombstones in play the surviving
//     multiset genuinely depends on that interleaving. Rebuilding from the
//     cut is exact by definition and deletes are the rare case.
//   * seed mismatch (mirror's cut is not the delta's older cut): full
//     rebuild from `newer`, counted in full_rebuilds().
//
// apply() runs the per-vertex maintenance in parallel on par:: (each
// changed vertex has exactly one writer), so the re-reads from the cut —
// the charged pmem part of a delete round — overlap across kernel threads.
#pragma once

#include <cstdint>
#include <vector>

#include "src/algorithms/graph_view.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/graph/types.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::algorithms {

class DeltaMirror {
 public:
  DeltaMirror() = default;

  // O(E) materialization of one cut — the seed round pays this once.
  template <GraphView View>
  static DeltaMirror build(const View& view) {
    DeltaMirror m;
    m.rebuild_from(view);
    return m;
  }

  // Advance the mirror from the delta's older cut to `newer`. O(delta)
  // plus O(deg) for each vertex that saw a delete this round. One serial
  // pass records each changed vertex's runs in delta.inserted/deleted; the
  // per-vertex appends and re-reads then run in parallel over `changed`,
  // which is unique, so every adj_[v] and slot_degree_[v] has one writer.
  template <GraphView View>
  void apply(const core::SnapshotDelta& delta, const View& newer) {
    if (static_cast<NodeId>(adj_.size()) != delta.nodes_before) {
      ++full_rebuilds_;
      rebuild_from(newer);
      return;
    }
    const NodeId n = delta.nodes_after;
    adj_.resize(static_cast<std::size_t>(n));
    slot_degree_.resize(static_cast<std::size_t>(n), 0);
    // Run k of vertex changed[k] is [ins_at[k], ins_at[k+1]) in
    // delta.inserted and [del_at[k], del_at[k+1]) in delta.deleted.
    const std::size_t nc = delta.changed.size();
    std::vector<std::size_t> ins_at(nc + 1);
    std::vector<std::size_t> del_at(nc + 1);
    std::size_t ii = 0;
    std::size_t di = 0;
    for (std::size_t k = 0; k < nc; ++k) {
      const NodeId v = delta.changed[k];
      ins_at[k] = ii;
      while (ii < delta.inserted.size() && delta.inserted[ii].src == v) ++ii;
      del_at[k] = di;
      while (di < delta.deleted.size() && delta.deleted[di].src == v) ++di;
    }
    ins_at[nc] = ii;
    del_at[nc] = di;

    const ApplyTally t = par::reduce_blocks(
        static_cast<std::int64_t>(nc), 64, ApplyTally{},
        [&](std::int64_t b, std::int64_t e) {
          ApplyTally part;
          for (std::int64_t k = b; k < e; ++k) {
            const NodeId v = delta.changed[k];
            const auto new_slots =
                static_cast<std::uint32_t>(newer.out_degree(v));
            part.slot_delta += static_cast<std::int64_t>(new_slots) -
                               static_cast<std::int64_t>(slot_degree_[v]);
            slot_degree_[v] = new_slots;
            std::vector<NodeId>& out = adj_[v];
            if (del_at[k + 1] != del_at[k]) {
              ++part.rebuilt;
              out.clear();
              newer.for_each_out(v, [&](NodeId d) { out.push_back(d); });
            } else {
              for (std::size_t i = ins_at[k]; i < ins_at[k + 1]; ++i)
                out.push_back(delta.inserted[i].dst);
            }
          }
          return part;
        },
        [](ApplyTally a, ApplyTally b) {
          return ApplyTally{a.slot_delta + b.slot_delta,
                            a.rebuilt + b.rebuilt};
        });
    total_slots_ += static_cast<std::uint64_t>(t.slot_delta);
    rebuilt_vertices_ += t.rebuilt;
  }

  // --- GraphView -----------------------------------------------------------
  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(adj_.size());
  }
  [[nodiscard]] std::int64_t out_degree(NodeId v) const {
    return slot_degree_[v];
  }
  [[nodiscard]] std::uint64_t num_edges_directed() const {
    return total_slots_;
  }
  template <typename F>
  void for_each_out(NodeId v, F&& fn) const {
    for (const NodeId d : adj_[v])
      if (emit_stop(fn, d)) return;
  }

  // --- maintenance stats ---------------------------------------------------
  [[nodiscard]] std::uint64_t rebuilt_vertices() const {
    return rebuilt_vertices_;
  }
  [[nodiscard]] std::uint64_t full_rebuilds() const { return full_rebuilds_; }

 private:
  struct ApplyTally {
    std::int64_t slot_delta = 0;
    std::uint64_t rebuilt = 0;
  };

  template <GraphView View>
  void rebuild_from(const View& view) {
    const NodeId n = view.num_nodes();
    adj_.assign(static_cast<std::size_t>(n), {});
    slot_degree_.resize(static_cast<std::size_t>(n));
    total_slots_ = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::int64_t d = view.out_degree(v);
      slot_degree_[v] = static_cast<std::uint32_t>(d);
      total_slots_ += static_cast<std::uint64_t>(d);
      adj_[v].reserve(static_cast<std::size_t>(d));
      view.for_each_out(v, [&](NodeId dst) { adj_[v].push_back(dst); });
    }
  }

  std::vector<std::vector<NodeId>> adj_;    // surviving neighbors per vertex
  std::vector<std::uint32_t> slot_degree_;  // frozen slot counts (w/ tombs)
  std::uint64_t total_slots_ = 0;
  std::uint64_t rebuilt_vertices_ = 0;
  std::uint64_t full_rebuilds_ = 0;
};

}  // namespace dgap::algorithms
