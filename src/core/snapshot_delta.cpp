// Snapshot diff implementation. See snapshot_delta.hpp for the contract and
// dgap_store.hpp for the chronological-prefix invariant it rests on.
#include "src/core/snapshot_delta.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/dgap_store.hpp"

namespace dgap::core {

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

  auto emit_vertex = [&](NodeId v, std::uint32_t d_old) {
    ++d.scanned_vertices;
    const std::uint32_t d_new = newer.degree_[static_cast<std::size_t>(v)];
    if (d_new <= d_old) return;
    d.changed.push_back(v);
    d.changed_old_degree.push_back(d_old);
    // The newer cut's slot suffix [d_old, d_new) is the event stream for
    // this vertex, in chronological order.
    newer.for_each_slot_from(v, d_old, [&](NodeId dst, bool tomb) {
      if (tomb)
        d.deleted.push_back({v, dst});
      else
        d.inserted.push_back({v, dst});
    });
  };

  if (!d.used_fallback) {
    // Pruned walk: consult the touch map once per 256-id block; blocks not
    // stamped since the older capture cannot contain a changed vertex.
    constexpr NodeId kBlock =
        static_cast<NodeId>(DgapStore::kTouchBlockVertices);
    const DgapStore& store = *newer.store_;
    NodeId v = 0;
    while (v < n_old) {
      if (!store.touched_since(v, older.seq_)) {
        v = (v / kBlock + 1) * kBlock;
        continue;
      }
      const NodeId end = std::min<NodeId>(n_old, (v / kBlock + 1) * kBlock);
      for (; v < end; ++v)
        emit_vertex(v, older.degree_[static_cast<std::size_t>(v)]);
    }
  } else {
    for (NodeId v = 0; v < n_old; ++v)
      emit_vertex(v, older.degree_[static_cast<std::size_t>(v)]);
  }
  // Vertices born after the older cut have no baseline degree: their whole
  // slot list is the delta.
  for (NodeId v = n_old; v < n_new; ++v) emit_vertex(v, 0);
  return d;
}

}  // namespace dgap::core
