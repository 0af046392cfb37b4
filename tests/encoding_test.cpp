// Unit tests for the edge-array slot and edge-log entry encodings — the
// bit-level contracts the recovery scan depends on.
#include <gtest/gtest.h>

#include "src/core/encoding.hpp"
#include "src/core/persistent_layout.hpp"

namespace dgap::core {
namespace {

// The paper's edge array holds 32-bit destination ids (§3).
static_assert(sizeof(Slot) == 4);

TEST(SlotEncoding, GapIsZero) {
  EXPECT_TRUE(is_gap(kGapSlot));
  EXPECT_FALSE(is_pivot(kGapSlot));
  EXPECT_FALSE(is_edge(kGapSlot));
}

TEST(SlotEncoding, PivotRoundTrip) {
  for (const NodeId v : {NodeId{0}, NodeId{1}, kMaxVertexId}) {
    const Slot s = encode_pivot(v);
    EXPECT_TRUE(is_pivot(s)) << v;
    EXPECT_FALSE(is_edge(s)) << v;
    EXPECT_FALSE(is_gap(s)) << v;
    EXPECT_EQ(pivot_vertex(s), v);
  }
}

TEST(SlotEncoding, EdgeRoundTrip) {
  for (const NodeId d : {NodeId{0}, NodeId{7}, kMaxVertexId}) {
    const Slot s = encode_edge(d);
    EXPECT_TRUE(is_edge(s)) << d;
    EXPECT_FALSE(is_pivot(s)) << d;
    EXPECT_FALSE(edge_tombstone(s)) << d;
    EXPECT_EQ(edge_dst(s), d);
  }
}

TEST(SlotEncoding, TombstoneBit) {
  // Vertex 0's tombstone must stay distinguishable from a gap, and the
  // largest id's from its live edge.
  for (const NodeId d : {NodeId{0}, NodeId{42}, kMaxVertexId}) {
    const Slot s = encode_edge(d, /*tombstone=*/true);
    EXPECT_TRUE(is_edge(s)) << d;
    EXPECT_FALSE(is_gap(s)) << d;
    EXPECT_TRUE(edge_tombstone(s)) << d;
    EXPECT_NE(s, encode_edge(d)) << d;
    EXPECT_EQ(edge_dst(s), d);
  }
}

TEST(SlotEncoding, PivotAndEdgeDisjoint) {
  // The same id encodes to different, non-colliding slot values.
  for (NodeId x = 0; x < 100; ++x) {
    EXPECT_NE(encode_pivot(x), encode_edge(x));
    EXPECT_NE(encode_pivot(x), kGapSlot);
    EXPECT_NE(encode_edge(x), kGapSlot);
  }
}

TEST(ElogEncoding, RoundTrip) {
  const ElogEntry e = make_elog_entry(5, 9, false, 17);
  EXPECT_TRUE(elog_used(e));
  EXPECT_FALSE(elog_consumed(e));
  EXPECT_FALSE(elog_tombstone(e));
  EXPECT_EQ(elog_src(e), 5);
  EXPECT_EQ(elog_dst(e), 9);
  EXPECT_EQ(e.prev_p1, 17u);
}

TEST(ElogEncoding, VertexZeroIsUsed) {
  const ElogEntry e = make_elog_entry(0, 0, false, 0);
  EXPECT_TRUE(elog_used(e));
  EXPECT_EQ(elog_src(e), 0);
  EXPECT_EQ(elog_dst(e), 0);
}

TEST(ElogEncoding, ZeroEntryIsUnused) {
  const ElogEntry zero{0, 0, 0};
  EXPECT_FALSE(elog_used(zero));
}

TEST(ElogEncoding, TombstoneFlag) {
  for (const NodeId d : {NodeId{4}, kMaxVertexId}) {
    const ElogEntry e = make_elog_entry(3, d, true, 0);
    EXPECT_TRUE(elog_tombstone(e)) << d;
    EXPECT_EQ(elog_dst(e), d);
  }
}

TEST(ElogEncoding, ConsumedFlagIndependentOfSrc) {
  for (const NodeId src : {NodeId{123}, kMaxVertexId}) {
    ElogEntry e = make_elog_entry(src, 456, false, 7);
    e.src_p1 |= kElogFlagBit;
    EXPECT_TRUE(elog_used(e)) << src;
    EXPECT_TRUE(elog_consumed(e)) << src;
    EXPECT_EQ(elog_src(e), src);  // id survives the flag
  }
}

TEST(UlogLayout, StrideCoversDescriptorAndData) {
  EXPECT_GE(ulog_stride(2048), sizeof(UlogDescriptor) + 2048);
  EXPECT_EQ(ulog_stride(2048) % 64, 0u);
}

}  // namespace
}  // namespace dgap::core
