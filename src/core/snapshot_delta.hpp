// Snapshot-to-snapshot structural diff (the substrate for incremental
// analytics between epochs).
//
// Two snapshots of the same store are chronological prefixes of the same
// slot stream: per-vertex slot sequences are append-only across structural
// ops (rebalances splice runs chronologically, resizes copy them), so a
// vertex's frozen degree is monotone non-decreasing between cuts and the
// newer cut's slots [d_old, d_new) ARE exactly the events that happened in
// between — an edge slot is an insert, a tombstone slot is a delete. Each
// event carries its slot ordinal `at`, so a consumer can replay a vertex's
// inserts and deletes in their true interleaving (DeltaMirror::apply does,
// which is what lets it advance without re-reading the cut).
//
// Finding the changed vertices without an O(V) degree compare uses the
// store's touch map (dgap_store.hpp): writers stamp the current capture
// sequence into a 4096-entry block map (256 vertex ids per block) on every
// absorbed edge, so blocks untouched since the older cut's sequence are
// skipped wholesale. Reading a changed vertex's suffix costs only the
// suffix: its array part is one contiguous run, and the edge-log chain walk
// (DgapStore::read_frozen_range) stops at the first chain entry the suffix
// holds. The walk starts at the live chain head, so it also steps over the
// entries appended to that vertex after the newer cut — one charged read
// each, bounded by the writes since the capture. That makes the diff
// O(V / 256 + touched + |delta| + appended-since-cut): proportional to the
// delta for the sparse trickle case this layer exists for, and never worse
// than the full scan. Block granularity and the process-global sequence
// only ever yield false positives (a candidate block whose vertices turn
// out unchanged) — never a missed change.
//
// The walk is parallel on par::: participants claim 256-id touch blocks,
// each block fills its own output runs, and the runs are joined in block
// order — so the delta (scanned_vertices included) is identical to a
// serial walk at every kernel width.
//
// Fallback: if a whole-array resize retired the older cut's layout between
// the two captures (layout_epoch differs), the pruned walk is abandoned for
// a documented O(V) exact degree-compare scan over both frozen degree
// caches — same output, `used_fallback` reports which path ran. Window
// rebalances do NOT force the fallback (touch marks are keyed by vertex id,
// not by slot position).
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/types.hpp"

namespace dgap::core {

class Snapshot;

// One event between the cuts. `at` is its slot ordinal in src's
// chronological slot sequence (in [old degree, new degree) of src).
struct DeltaEdge {
  NodeId src;
  NodeId dst;
  std::uint32_t at;

  friend bool operator==(const DeltaEdge&, const DeltaEdge&) = default;
};

// The diff between an older and a newer cut of one store. `changed` is
// sorted ascending and parallel to `changed_old_degree` (the vertex's slot
// count at the OLDER cut — incremental kernels use 0 to detect a formerly
// dangling vertex). Inserted/deleted edges are grouped by source in
// `changed` order, chronological (ascending `at`) within a source.
struct SnapshotDelta {
  std::vector<NodeId> changed;
  std::vector<std::uint32_t> changed_old_degree;
  std::vector<DeltaEdge> inserted;
  std::vector<DeltaEdge> deleted;
  NodeId nodes_before = 0;
  NodeId nodes_after = 0;
  // True when a layout retirement forced the O(V) degree-compare scan.
  bool used_fallback = false;
  // Vertices whose degree was actually inspected (pruning effectiveness).
  std::uint64_t scanned_vertices = 0;
  // Edge-log chain entries read (one charged pmem read each): the delta's
  // edge-log events plus the entries appended to changed vertices after
  // the newer cut.
  std::uint64_t elog_reads = 0;

  [[nodiscard]] std::size_t delta_edges() const {
    return inserted.size() + deleted.size();
  }
  [[nodiscard]] bool empty() const {
    return changed.empty() && nodes_after == nodes_before;
  }
};

// Diff `newer` against `older`. Both must be open cuts of the SAME store
// with older.capture_seq() <= newer.capture_seq(); anything else throws
// std::invalid_argument (a cross-store or reversed diff is meaningless, and
// silently returning garbage would poison every kernel seeded from it).
// Equal sequences return an empty delta without touching the store.
[[nodiscard]] SnapshotDelta snapshot_delta(const Snapshot& older,
                                           const Snapshot& newer);

}  // namespace dgap::core
