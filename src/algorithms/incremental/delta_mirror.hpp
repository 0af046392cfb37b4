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
// Adjacency is stored as 32-bit ids (the store caps ids at
// core::kMaxVertexId = 2^30 - 2), which halves the bytes every sweep reads;
// build() and apply() throw std::out_of_range on a larger id rather than
// truncate it.
//
// Fidelity contract: after apply(delta, newer), the mirror is observably
// identical to `newer` under the GraphView interface — out_degree returns
// the frozen slot count (tombstones included, matching the snapshot's
// degree semantics that PageRank divides by) and for_each_out emits the
// same surviving neighbors in the same (chronological) order, so kernels
// whose floating-point sums follow adjacency order agree too. The live
// bench re-verifies this every round by comparing kernels over the mirror
// against full kernels over the raw cut.
//
// Maintenance rule, from the store's cancellation semantics (a tombstone
// cancels the latest PRIOR un-cancelled insert of the same destination; a
// tombstone with no prior match cancels nothing): the mirror's list for v
// holds exactly the older cut's survivors in chronological order, so
// apply() replays v's events of the round in slot order (`DeltaEdge::at`
// merges the delta's separate insert and delete runs back into their true
// interleaving). An insert appends; a tombstone erases the LAST occurrence
// of its destination — which is the latest un-cancelled earlier insert —
// or does nothing when there is none (a dangling tombstone). That is
// Snapshot::neighbors' rule applied incrementally, so apply() never reads
// the cut's adjacency. A seed mismatch (mirror's cut is not the delta's
// older cut) falls back to a full rebuild from `newer`, counted in
// full_rebuilds().
//
// apply() runs the per-vertex replay in parallel on par:: (each changed
// vertex has exactly one writer).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/algorithms/graph_view.hpp"
#include "src/core/encoding.hpp"
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

  // Advance the mirror from the delta's older cut to `newer` in O(delta)
  // plus, per tombstone, a backward scan of its source's list. One serial
  // pass validates the inserted ids and records each changed vertex's runs
  // in delta.inserted/deleted; the per-vertex replays then run in parallel
  // over `changed`, which is unique, so every adj_[v] and slot_degree_[v]
  // has one writer. Throws std::out_of_range (leaving the mirror as it
  // was) on an id above core::kMaxVertexId.
  template <GraphView View>
  void apply(const core::SnapshotDelta& delta, const View& newer) {
    if (static_cast<NodeId>(adj_.size()) != delta.nodes_before) {
      ++full_rebuilds_;
      rebuild_from(newer);
      return;
    }
    const NodeId n = delta.nodes_after;
    check_id(n - 1);
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
      for (; ii < delta.inserted.size() && delta.inserted[ii].src == v; ++ii)
        check_id(delta.inserted[ii].dst);
      del_at[k] = di;
      while (di < delta.deleted.size() && delta.deleted[di].src == v) ++di;
    }
    ins_at[nc] = ii;
    del_at[nc] = di;
    adj_.resize(static_cast<std::size_t>(n));
    slot_degree_.resize(static_cast<std::size_t>(n), 0);

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
            std::vector<std::uint32_t>& out = adj_[v];
            // Replay v's events in slot order: each tombstone goes after
            // the inserts that precede it.
            std::size_t i = ins_at[k];
            const auto append_before = [&](std::uint32_t at) {
              for (; i < ins_at[k + 1] && delta.inserted[i].at < at; ++i)
                out.push_back(
                    static_cast<std::uint32_t>(delta.inserted[i].dst));
            };
            if (del_at[k + 1] != del_at[k]) ++part.rebuilt;
            for (std::size_t j = del_at[k]; j < del_at[k + 1]; ++j) {
              const core::DeltaEdge& tomb = delta.deleted[j];
              append_before(tomb.at);
              const auto hit = std::find(out.rbegin(), out.rend(),
                                         static_cast<std::uint32_t>(tomb.dst));
              if (hit != out.rend()) out.erase(std::next(hit).base());
            }
            append_before(std::numeric_limits<std::uint32_t>::max());
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
    for (const std::uint32_t d : adj_[v])
      if (emit_stop(fn, static_cast<NodeId>(d))) return;
  }

  // --- maintenance stats ---------------------------------------------------
  // Vertices that had at least one delete event in an applied round (summed
  // over rounds; a vertex counts once per round) — the ones whose list
  // apply() edited in place rather than only appended to.
  [[nodiscard]] std::uint64_t rebuilt_vertices() const {
    return rebuilt_vertices_;
  }
  [[nodiscard]] std::uint64_t full_rebuilds() const { return full_rebuilds_; }

 private:
  struct ApplyTally {
    std::int64_t slot_delta = 0;
    std::uint64_t rebuilt = 0;
  };

  static void check_id(NodeId id) {
    if (id > core::kMaxVertexId)
      throw std::out_of_range("DeltaMirror: vertex id " + std::to_string(id) +
                              " exceeds kMaxVertexId");
  }

  // Builds into locals and commits only on success, so a throw leaves the
  // mirror unchanged.
  template <GraphView View>
  void rebuild_from(const View& view) {
    const NodeId n = view.num_nodes();
    check_id(n - 1);
    std::vector<std::vector<std::uint32_t>> adj(static_cast<std::size_t>(n));
    std::vector<std::uint32_t> slot_degree(static_cast<std::size_t>(n));
    std::uint64_t total = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::int64_t d = view.out_degree(v);
      slot_degree[v] = static_cast<std::uint32_t>(d);
      total += static_cast<std::uint64_t>(d);
      adj[v].reserve(static_cast<std::size_t>(d));
      view.for_each_out(v, [&](NodeId dst) {
        check_id(dst);
        adj[v].push_back(static_cast<std::uint32_t>(dst));
      });
    }
    adj_ = std::move(adj);
    slot_degree_ = std::move(slot_degree);
    total_slots_ = total;
  }

  std::vector<std::vector<std::uint32_t>> adj_;  // surviving neighbors
  std::vector<std::uint32_t> slot_degree_;  // frozen slot counts (w/ tombs)
  std::uint64_t total_slots_ = 0;
  std::uint64_t rebuilt_vertices_ = 0;
  std::uint64_t full_rebuilds_ = 0;
};

}  // namespace dgap::algorithms
