// Snapshot diff implementation. See snapshot_delta.hpp for the contract and
// dgap_store.hpp for the chronological-prefix invariant it rests on.
#include "src/core/snapshot_delta.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/dgap_store.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::core {

namespace {

// One touch block's share of the delta.
struct BlockRuns {
  std::vector<NodeId> changed;
  std::vector<std::uint32_t> old_degree;
  std::vector<DeltaEdge> inserted;
  std::vector<DeltaEdge> deleted;
  std::uint64_t scanned = 0;
  std::uint64_t elog_reads = 0;
};

}  // namespace

SnapshotDelta snapshot_delta(const Snapshot& older, const Snapshot& newer) {
  if (!older.same_store_as(newer))
    throw std::invalid_argument(
        "snapshot_delta: cuts come from different stores");
  if (older.seq_ > newer.seq_)
    throw std::invalid_argument(
        "snapshot_delta: older cut captured after newer cut");
  older.check_open();
  newer.check_open();

  SnapshotDelta d;
  d.nodes_before = older.num_nodes();
  d.nodes_after = newer.num_nodes();
  // Same capture: definitionally empty, no store traffic at all.
  if (older.seq_ == newer.seq_) return d;

  // A retired layout between the cuts means the older cut's touch-map
  // baseline can no longer prune (the resize rewrote every run): fall back
  // to the exact O(V) degree-compare scan. Same output either way.
  d.used_fallback = older.layout_epoch() != newer.layout_epoch();

  const NodeId n_old = d.nodes_before;
  const NodeId n_new = d.nodes_after;
  constexpr NodeId kBlock = DgapStore::kTouchBlockVertices;
  const DgapStore& store = *newer.store_;

  // Each 256-id touch block fills its own runs; par:: block boundaries are
  // fixed by (n, grain), so run k always covers ids [k*256, (k+1)*256).
  std::vector<BlockRuns> runs(
      static_cast<std::size_t>((n_new + kBlock - 1) / kBlock));
  par::for_blocks(n_new, kBlock, [&](std::int64_t b, std::int64_t e) {
    BlockRuns& out = runs[static_cast<std::size_t>(b / kBlock)];
    // Pruned walk: a block not stamped since the older capture cannot
    // contain a changed vertex. Vertices born after the older cut have no
    // baseline degree: their whole slot list is the delta.
    const NodeId old_end = std::min<NodeId>(e, n_old);
    const NodeId from =
        b < old_end && !d.used_fallback && !store.touched_since(b, older.seq_)
            ? old_end
            : b;
    const auto d_old = [&](NodeId v) {
      return v < n_old ? older.degree_[static_cast<std::size_t>(v)] : 0u;
    };
    const auto d_new = [&](NodeId v) {
      return newer.degree_[static_cast<std::size_t>(v)];
    };
    // Size the runs from the frozen degree columns (DRAM) before the walk
    // reads the store, so they never regrow.
    std::size_t changed = 0;
    std::size_t events = 0;
    for (NodeId v = from; v < e; ++v) {
      if (d_new(v) <= d_old(v)) continue;
      ++changed;
      events += d_new(v) - d_old(v);
    }
    out.changed.reserve(changed);
    out.old_degree.reserve(changed);
    out.inserted.reserve(events);
    out.scanned = static_cast<std::uint64_t>(e - from);
    for (NodeId v = from; v < e; ++v) {
      if (d_new(v) <= d_old(v)) continue;
      out.changed.push_back(v);
      out.old_degree.push_back(d_old(v));
      // The newer cut's slot suffix [d_old, d_new) is the event stream for
      // this vertex, in chronological order.
      std::uint32_t at = d_old(v);
      out.elog_reads +=
          newer.for_each_slot_from(v, at, [&](NodeId dst, bool tomb) {
            (tomb ? out.deleted : out.inserted).push_back({v, dst, at++});
          });
    }
  });

  // Join the runs in block order.
  std::size_t changed = 0;
  std::size_t inserted = 0;
  std::size_t deleted = 0;
  for (const BlockRuns& r : runs) {
    changed += r.changed.size();
    inserted += r.inserted.size();
    deleted += r.deleted.size();
    d.scanned_vertices += r.scanned;
    d.elog_reads += r.elog_reads;
  }
  d.changed.reserve(changed);
  d.changed_old_degree.reserve(changed);
  d.inserted.reserve(inserted);
  d.deleted.reserve(deleted);
  for (const BlockRuns& r : runs) {
    d.changed.insert(d.changed.end(), r.changed.begin(), r.changed.end());
    d.changed_old_degree.insert(d.changed_old_degree.end(),
                                r.old_degree.begin(), r.old_degree.end());
    d.inserted.insert(d.inserted.end(), r.inserted.begin(), r.inserted.end());
    d.deleted.insert(d.deleted.end(), r.deleted.begin(), r.deleted.end());
  }
  return d;
}

}  // namespace dgap::core
