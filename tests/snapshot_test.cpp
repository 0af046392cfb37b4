// Snapshot semantics: move-only lifetime (generation pinning), multiple
// concurrent snapshots at different times, early-exit iteration, and the
// interaction between snapshots and vertex-table growth (which a held
// snapshot must NOT block — the epoch-versioned read path replaced the old
// reader gate), and nested reads from inside an emit callback.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <thread>

#include "src/core/dgap_store.hpp"
#include "src/graph/generators.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

struct SnapFixture : ::testing::Test {
  void SetUp() override {
    pool = PmemPool::create({.path = "", .size = 32 << 20});
    DgapOptions o;
    o.init_vertices = 64;
    o.init_edges = 1024;
    store = DgapStore::create(*pool, o);
  }
  std::unique_ptr<PmemPool> pool;
  std::unique_ptr<DgapStore> store;
};

TEST_F(SnapFixture, MultipleSnapshotsSeeDifferentTimes) {
  store->insert_edge(1, 10);
  const Snapshot s1 = store->consistent_view();
  store->insert_edge(1, 11);
  const Snapshot s2 = store->consistent_view();
  store->insert_edge(1, 12);
  const Snapshot s3 = store->consistent_view();
  EXPECT_EQ(s1.out_degree(1), 1);
  EXPECT_EQ(s2.out_degree(1), 2);
  EXPECT_EQ(s3.out_degree(1), 3);
  EXPECT_EQ(s1.neighbors(1), (std::vector<NodeId>{10}));
  EXPECT_EQ(s2.neighbors(1), (std::vector<NodeId>{10, 11}));
  EXPECT_EQ(s3.neighbors(1), (std::vector<NodeId>{10, 11, 12}));
}

TEST_F(SnapFixture, MoveTransfersPinOwnership) {
  store->insert_edge(2, 3);
  Snapshot a = store->consistent_view();
  Snapshot b = std::move(a);
  EXPECT_EQ(b.out_degree(2), 1);
  Snapshot c;
  c = std::move(b);
  EXPECT_EQ(c.out_degree(2), 1);
  EXPECT_EQ(c.neighbors(2), (std::vector<NodeId>{3}));
  // a and b are moved-from; destruction must not double-drop the
  // generation pin (a leaked negative pin count would wedge layout
  // reclamation). Growth and further snapshots must keep working.
  c = Snapshot{};
  store->insert_edge(3000, 5);  // forces vertex-table growth
  EXPECT_GT(store->num_nodes(), 3000);
  EXPECT_EQ(store->retired_layouts(), 0u);
}

TEST_F(SnapFixture, TotalEdgesMatchesSum) {
  const auto stream = generate_uniform(64, 2000, 12);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  const Snapshot s = store->consistent_view();
  std::uint64_t sum = 0;
  for (NodeId v = 0; v < s.num_nodes(); ++v)
    sum += static_cast<std::uint64_t>(s.out_degree(v));
  EXPECT_EQ(sum, 2000u);
  EXPECT_EQ(s.num_edges_directed(), 2000u);
}

TEST_F(SnapFixture, EarlyExitIteration) {
  for (NodeId d = 0; d < 20; ++d) store->insert_edge(5, d + 30);
  const Snapshot s = store->consistent_view();
  int visited = 0;
  s.for_each_out(5, [&](NodeId) -> bool { return ++visited == 3; });
  EXPECT_EQ(visited, 3);
  // Early exit with tombstones present uses the exact path but still stops.
  store->insert_edge(6, 1);
  store->insert_edge(6, 2);
  store->delete_edge(6, 1);
  const Snapshot s2 = store->consistent_view();
  visited = 0;
  s2.for_each_out(6, [&](NodeId) -> bool {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 1);
}

TEST_F(SnapFixture, SnapshotDoesNotBlockVertexGrowth) {
  // Before the epoch-versioned refactor a held snapshot pinned the reader
  // gate, so vertex-table growth (and with it any flood ingest minting new
  // ids) stalled until the snapshot died. Now growth proceeds under a held
  // snapshot — and the frozen view stays frozen.
  store->insert_edge(1, 2);
  std::optional<Snapshot> snap(store->consistent_view());
  std::atomic<bool> grew{false};
  std::thread grower([&] {
    store->insert_vertex(3000);  // needs table growth: must NOT wait
    grew = true;
  });
  grower.join();  // completes while `snap` is still alive
  EXPECT_TRUE(grew.load());
  EXPECT_GT(store->num_nodes(), 3000);
  EXPECT_EQ(snap->num_nodes(), 64);  // frozen pre-growth view
  EXPECT_EQ(snap->neighbors(1), (std::vector<NodeId>{2}));
  snap.reset();
}

TEST_F(SnapFixture, ReadsOfGrownVerticesAfterSnapshot) {
  store->insert_edge(1, 2);
  const Snapshot before = store->consistent_view();
  EXPECT_EQ(before.num_nodes(), 64);
  store->insert_edge(63, 40);  // existing id: fine during snapshot
  const Snapshot after = store->consistent_view();
  EXPECT_EQ(after.out_degree(63), 1);
  EXPECT_EQ(before.out_degree(63), 0);
}

// An emit callback that reads the store again must not disturb the
// edge-log entries its caller is still emitting — also when it re-enters
// through the very same call site, as a recursive walk does. Both hubs
// outgrow their array runs, so each keeps a chain in its section's edge
// log, and every emit of the outer hub walks the inner one.
TEST_F(SnapFixture, NestedReadsKeepTheOuterEdgeLogChain) {
  constexpr NodeId kOuter = 4;
  constexpr NodeId kInner = 40;
  std::vector<NodeId> outer_expect;
  std::vector<NodeId> inner_expect;
  for (NodeId i = 0; i < 100; ++i) {
    store->insert_edge(kInner, i % 64);
    inner_expect.push_back(i % 64);
  }
  const std::uint64_t inner_log = store->stats().elog_inserts;
  for (NodeId i = 0; i < 100; ++i) {
    store->insert_edge(kOuter, (i * 7) % 64);
    outer_expect.push_back((i * 7) % 64);
  }
  ASSERT_GT(inner_log, 0u);
  ASSERT_GT(store->stats().elog_inserts, inner_log);
  ASSERT_EQ(store->stats().rebalances, 0u);  // no merge drained a chain

  const Snapshot s = store->consistent_view();
  std::vector<NodeId> outer;
  std::vector<NodeId> inner;
  std::function<void(NodeId)> walk = [&](NodeId v) {
    s.for_each_out(v, [&](NodeId d) {
      if (v == kInner) {
        inner.push_back(d);
        return;
      }
      outer.push_back(d);
      inner.clear();
      walk(kInner);
      EXPECT_EQ(inner, inner_expect);
    });
  };
  walk(kOuter);
  EXPECT_EQ(outer, outer_expect);
}

}  // namespace
}  // namespace dgap::core
