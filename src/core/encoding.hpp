// Slot and edge-log entry encodings for the persistent edge array.
//
// Each edge array slot is a 32-bit word, as in the paper (§3: the edge array
// holds destination vertex IDs):
//   0              : gap (empty slot)
//   negative       : pivot; vertex id = -slot - 1 (paper §3: "-vertex-id",
//                    shifted by one so vertex 0 is representable)
//   positive       : edge; destination = slot - 1; bit 30 set marks a
//                    tombstoned (deleted) edge (paper §3.1.2: "first bit of
//                    the destination vertex ID").
// An edge needs dst + 1 below bit 30, so vertex ids are capped at
// kMaxVertexId = 2^30 - 2; every store entry point rejects larger ids with
// std::out_of_range instead of wrapping them.
//
// Edge-log entries are 12 bytes (paper §3, component 3): source, destination
// and a back-pointer chaining the entries of one source vertex newest-first.
// All three fields are stored +1 so an all-zero entry means "unused"; the
// destination carries the tombstone in bit 31 and the source carries a
// "consumed" flag in bit 31, set when a rebalance has already spliced the
// entry into the edge array (crash-recovery idempotency marker).
#pragma once

#include <cstdint>

#include "src/graph/types.hpp"

namespace dgap::core {

using Slot = std::int32_t;

inline constexpr Slot kGapSlot = 0;
inline constexpr Slot kTombBit = Slot{1} << 30;

// Largest vertex id the slot and edge-log encodings can hold.
inline constexpr NodeId kMaxVertexId = (NodeId{1} << 30) - 2;

constexpr Slot encode_pivot(NodeId v) { return -(static_cast<Slot>(v) + 1); }
constexpr bool is_pivot(Slot s) { return s < 0; }
constexpr NodeId pivot_vertex(Slot s) { return static_cast<NodeId>(-s - 1); }

constexpr Slot encode_edge(NodeId dst, bool tombstone = false) {
  return (static_cast<Slot>(dst) + 1) | (tombstone ? kTombBit : 0);
}
constexpr bool is_edge(Slot s) { return s > 0; }
constexpr bool is_gap(Slot s) { return s == kGapSlot; }
constexpr bool edge_tombstone(Slot s) { return (s & kTombBit) != 0; }
constexpr NodeId edge_dst(Slot s) {
  return static_cast<NodeId>((s & ~kTombBit) - 1);
}

struct ElogEntry {
  std::uint32_t src_p1;   // source + 1; 0 = unused; bit 31 = consumed
  std::uint32_t dst_p1;   // destination + 1; bit 31 = tombstone
  std::uint32_t prev_p1;  // local index of the previous entry of src, +1
};
static_assert(sizeof(ElogEntry) == 12);

inline constexpr std::uint32_t kElogFlagBit = 1u << 31;

constexpr ElogEntry make_elog_entry(NodeId src, NodeId dst, bool tombstone,
                                    std::uint32_t prev_p1) {
  return {static_cast<std::uint32_t>(src) + 1,
          (static_cast<std::uint32_t>(dst) + 1) |
              (tombstone ? kElogFlagBit : 0),
          prev_p1};
}

constexpr bool elog_used(const ElogEntry& e) { return e.src_p1 != 0; }
constexpr bool elog_consumed(const ElogEntry& e) {
  return (e.src_p1 & kElogFlagBit) != 0;
}
constexpr NodeId elog_src(const ElogEntry& e) {
  return static_cast<NodeId>((e.src_p1 & ~kElogFlagBit) - 1);
}
constexpr NodeId elog_dst(const ElogEntry& e) {
  return static_cast<NodeId>((e.dst_p1 & ~kElogFlagBit) - 1);
}
constexpr bool elog_tombstone(const ElogEntry& e) {
  return (e.dst_p1 & kElogFlagBit) != 0;
}

}  // namespace dgap::core
