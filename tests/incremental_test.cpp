// Incremental analytics between snapshot epochs (snapshot_delta.hpp +
// src/algorithms/incremental): the diff must reproduce the exact mutation
// script applied between two cuts (inserts AND deletes, with their slot
// ordinals) identically at kernel widths 1, 2 and 4; the DRAM mirror must
// match each cut neighbor for neighbor, in order (built or maintained,
// through tombstones and a resize), give kernels bit-identical to the raw
// cut, and reject ids it cannot hold; the delta-seeded kernels must track
// the from-scratch kernels under randomized mutation rounds (CC labels
// exactly, PR within the published tolerance bound) at kernel widths 1, 2
// and 4 — including delete rounds inside an RMAT giant component (the
// full-kernel shortcut), inside a large component below it (scoped) and
// one-direction deletes — PR's Jacobi-then-Chebyshev closing loop must
// follow its documented recurrence and certify in fewer sweeps than plain
// Jacobi on a large delta (no more on a small one), a layout retirement
// must flip to the O(V) fallback with identical output, and the windowed
// structural gate must keep out-of-window snapshot reads flowing
// mid-rebalance.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <algorithm>

#include "src/algorithms/bc.hpp"
#include "src/algorithms/bfs.hpp"
#include "src/algorithms/cc.hpp"
#include "src/algorithms/incremental/cc_incr.hpp"
#include "src/algorithms/incremental/delta_mirror.hpp"
#include "src/algorithms/incremental/pagerank_incr.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/core/dgap_store.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/graph/generators.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

std::unique_ptr<PmemPool> make_pool(std::uint64_t mb) {
  return PmemPool::create({.path = "", .size = mb << 20});
}

DgapOptions small_opts() {
  DgapOptions o;
  o.init_vertices = 64;
  o.init_edges = 4096;
  return o;
}

// Chronological per-source record of every mutation applied through it.
// Each op — insert or delete — appends exactly one slot to its source, so
// the expected delta IS the script: per-source insert/delete (dst, slot
// ordinal) lists in application order, changed = sources with at least
// one op.
class ScriptedMutator {
 public:
  explicit ScriptedMutator(DgapStore& s) : store_(s) {}

  void insert(NodeId src, NodeId dst) {
    store_.insert_edge(src, dst);
    ins_[src].push_back({dst, slots_[src]++});
  }
  void remove(NodeId src, NodeId dst) {
    store_.delete_edge(src, dst);
    del_[src].push_back({dst, slots_[src]++});
  }
  // Forget the script so far (degrees keep accumulating): call at a cut so
  // the next expect() covers only the ops after it.
  void cut() {
    degree_at_cut_ = slots_;
    ins_.clear();
    del_.clear();
  }

  void expect(const SnapshotDelta& d) const {
    std::set<NodeId> changed;
    for (const auto& [src, v] : ins_) changed.insert(src);
    for (const auto& [src, v] : del_) changed.insert(src);
    ASSERT_EQ(d.changed.size(), changed.size());
    std::size_t i = 0;
    std::map<NodeId, std::vector<Event>> got_ins, got_del;
    std::size_t ii = 0, di = 0;
    for (const NodeId src : changed) {
      EXPECT_EQ(d.changed[i], src);  // sorted ascending
      const auto it = degree_at_cut_.find(src);
      EXPECT_EQ(d.changed_old_degree[i],
                it == degree_at_cut_.end() ? 0u : it->second)
          << "vertex " << src;
      ++i;
      // inserted/deleted are grouped by source in changed order.
      for (; ii < d.inserted.size() && d.inserted[ii].src == src; ++ii)
        got_ins[src].push_back({d.inserted[ii].dst, d.inserted[ii].at});
      for (; di < d.deleted.size() && d.deleted[di].src == src; ++di)
        got_del[src].push_back({d.deleted[di].dst, d.deleted[di].at});
    }
    EXPECT_EQ(ii, d.inserted.size());
    EXPECT_EQ(di, d.deleted.size());
    EXPECT_EQ(got_ins, ins_);
    EXPECT_EQ(got_del, del_);
  }

 private:
  using Event = std::pair<NodeId, std::uint32_t>;  // (dst, slot ordinal)
  DgapStore& store_;
  std::map<NodeId, std::uint32_t> slots_;          // lifetime slot counts
  std::map<NodeId, std::uint32_t> degree_at_cut_;  // frozen at last cut()
  std::map<NodeId, std::vector<Event>> ins_, del_;
};

TEST(SnapshotDelta, MatchesMutationScriptExactly) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  ScriptedMutator m(*store);
  std::mt19937 rng(7);
  for (int i = 0; i < 500; ++i)
    m.insert(rng() % 64, rng() % 64);

  const Snapshot older = store->consistent_view();
  m.cut();

  // Interleaved inserts and deletes, including a brand-new vertex range and
  // a vertex mutated twice (chronological order within a source matters).
  m.insert(3, 9);
  m.remove(3, 9);
  m.insert(3, 9);
  m.remove(17, 17 % 64);  // may or may not exist; tombstone either way
  for (int i = 0; i < 40; ++i) m.insert(64 + rng() % 8, rng() % 72);
  m.insert(5, 71);

  const Snapshot newer = store->consistent_view();
  const SnapshotDelta d = snapshot_delta(older, newer);
  EXPECT_FALSE(d.used_fallback);
  EXPECT_EQ(d.nodes_before, older.num_nodes());
  EXPECT_EQ(d.nodes_after, newer.num_nodes());
  EXPECT_GT(d.nodes_after, d.nodes_before);  // the new range grew the table
  m.expect(d);
  // The pruned path must not have degraded to a full scan: only touched
  // blocks (256 ids each) plus the new-vertex range are inspected.
  EXPECT_LE(d.scanned_vertices, newer.num_nodes());
}

TEST(SnapshotDelta, EmptyDeltaFastPathScansNothing) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(1, 2);
  const Snapshot a = store->consistent_view();
  const Snapshot b = store->consistent_view();

  // Same snapshot twice: equal capture sequences short-circuit entirely.
  const SnapshotDelta same = snapshot_delta(a, a);
  EXPECT_TRUE(same.empty());
  EXPECT_EQ(same.scanned_vertices, 0u);

  // Two cuts with nothing in between: every touch mark predates the older
  // cut, so the block pruning skips the whole table.
  const SnapshotDelta quiet = snapshot_delta(a, b);
  EXPECT_TRUE(quiet.empty());
  EXPECT_EQ(quiet.delta_edges(), 0u);
  EXPECT_EQ(quiet.scanned_vertices, 0u);
}

TEST(SnapshotDelta, RejectsCrossStoreAndReversedDiffs) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  auto pool2 = make_pool(32);
  auto store2 = DgapStore::create(*pool2, small_opts());
  store->insert_edge(0, 1);
  store2->insert_edge(0, 1);

  const Snapshot a = store->consistent_view();
  const Snapshot other = store2->consistent_view();
  store->insert_edge(0, 2);
  const Snapshot b = store->consistent_view();

  EXPECT_THROW((void)snapshot_delta(a, other), std::invalid_argument);
  EXPECT_THROW((void)snapshot_delta(b, a), std::invalid_argument);
  EXPECT_NO_THROW((void)snapshot_delta(a, b));
}

TEST(SnapshotDelta, LayoutRetirementFallsBackWithIdenticalOutput) {
  auto pool = make_pool(64);
  auto store = DgapStore::create(*pool, small_opts());
  ScriptedMutator m(*store);
  std::mt19937 rng(11);
  for (int i = 0; i < 200; ++i) m.insert(rng() % 64, rng() % 64);

  const Snapshot older = store->consistent_view();
  m.cut();

  // Flood until the array resizes: the older cut's layout is retired, so
  // the pruned walk must yield to the O(V) degree-compare — and still
  // report the exact script.
  const std::uint64_t resizes_before = store->stats().resizes;
  const auto flood = generate_uniform(256, 20000, 31);
  for (const Edge& e : flood.edges()) m.insert(e.src, e.dst);
  ASSERT_GT(store->stats().resizes, resizes_before);

  const Snapshot newer = store->consistent_view();
  ASSERT_GT(newer.layout_epoch(), older.layout_epoch());
  const SnapshotDelta d = snapshot_delta(older, newer);
  EXPECT_TRUE(d.used_fallback);
  EXPECT_EQ(d.scanned_vertices, newer.num_nodes());  // documented full scan
  m.expect(d);
}

// A hub whose array run is full sends every further edge to its section's
// edge log, so one chain spans several cuts. Each round's diff reads the
// hub's suffix by walking the chain from its live head: it must step over
// only the entries appended after the newer cut and stop at the first
// entry of the round — elog_reads is the round's log events plus those
// late appends, never the chain length.
TEST(SnapshotDelta, ElogSuffixReadStopsAtOlderCut) {
  auto pool = make_pool(32);
  DgapOptions o = small_opts();
  o.init_edges = 512;    // 32 slots per vertex: the hub's run fills fast
  o.segment_slots = 64;  // small sections: two vertices share an edge log
  auto store = DgapStore::create(*pool, o);
  ScriptedMutator m(*store);
  const auto log_entries = [&] { return store->stats().elog_inserts.load(); };
  constexpr NodeId kHub = 6;
  for (int i = 0; log_entries() == 0; ++i) {
    ASSERT_LT(i, 1000) << "the hub's run never filled";
    m.insert(kHub, i % 64);
  }
  const std::uint64_t rebalances = store->stats().rebalances;

  Snapshot older = store->consistent_view();
  m.cut();
  std::uint64_t log_at_older = log_entries();
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    // The round: hub inserts and tombstones (all edge-log appends), plus
    // array appends on two light vertices the diff reads with no chain.
    for (int i = 0; i < 12; ++i) m.insert(kHub, 40 + (round * 12 + i) % 24);
    for (int i = 0; i < 4; ++i) m.remove(kHub, 40 + i);
    m.insert(20 + round, round);
    m.remove(30, round);
    Snapshot newer = store->consistent_view();
    const ScriptedMutator round_script = m;
    m.cut();
    // Appended after the newer cut, before the diff reads the hub: the
    // chain head the walk starts from has grown past the cut.
    for (int i = 0; i < 5; ++i) m.insert(kHub, 50 + i);

    const SnapshotDelta d = snapshot_delta(older, newer);
    round_script.expect(d);
    const std::uint64_t chain_len = log_entries();  // the hub's whole chain
    EXPECT_EQ(d.elog_reads, chain_len - log_at_older);
    EXPECT_LT(d.elog_reads, chain_len);
    log_at_older = chain_len - 5;  // the late appends belong to next round
    older = std::move(newer);
  }
  // The chain grew across every cut: no merge reset it mid-test.
  EXPECT_EQ(store->stats().rebalances, rebalances);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

// The diff walks 256-id touch blocks in parallel and joins the per-block
// runs in block order, so every field — `at` ordinals and the pruning
// counter included — must equal the single-threaded walk at every width.
void expect_delta_width_invariant(const Snapshot& older,
                                  const Snapshot& newer) {
  SnapshotDelta want;
  {
    const par::ScopedKernelThreads threads(1);
    want = snapshot_delta(older, newer);
  }
  ASSERT_FALSE(want.changed.empty());
  ASSERT_FALSE(want.deleted.empty());
  for (const int width : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    const par::ScopedKernelThreads threads(width);
    const SnapshotDelta got = snapshot_delta(older, newer);
    EXPECT_EQ(got.changed, want.changed);
    EXPECT_EQ(got.changed_old_degree, want.changed_old_degree);
    EXPECT_EQ(got.inserted, want.inserted);
    EXPECT_EQ(got.deleted, want.deleted);
    EXPECT_EQ(got.scanned_vertices, want.scanned_vertices);
    EXPECT_EQ(got.used_fallback, want.used_fallback);
  }
}

TEST(SnapshotDelta, PrunedWalkIsWidthInvariant) {
  auto pool = make_pool(64);
  DgapOptions opts = small_opts();
  opts.init_vertices = 2048;  // 8 touch blocks
  opts.init_edges = 1 << 15;
  auto store = DgapStore::create(*pool, opts);
  ScriptedMutator m(*store);
  std::mt19937 rng(51);
  for (int i = 0; i < 6000; ++i) m.insert(rng() % 2048, rng() % 2048);
  const Snapshot older = store->consistent_view();
  m.cut();
  // Touch blocks 0, 4 and 5 only; the rest must stay pruned.
  for (int i = 0; i < 600; ++i) {
    const NodeId src = (i % 3 == 0 ? 0 : 1024) + rng() % 256 +
                       (i % 3 == 2 ? 256 : 0);
    if (i % 4 == 0)
      m.remove(src, rng() % 2048);
    else
      m.insert(src, rng() % 2048);
  }
  const Snapshot newer = store->consistent_view();
  const SnapshotDelta d = snapshot_delta(older, newer);
  EXPECT_FALSE(d.used_fallback);
  EXPECT_EQ(d.scanned_vertices, 3u * 256u);
  m.expect(d);
  expect_delta_width_invariant(older, newer);
}

TEST(SnapshotDelta, FallbackScanIsWidthInvariant) {
  auto pool = make_pool(64);
  auto store = DgapStore::create(*pool, small_opts());
  ScriptedMutator m(*store);
  std::mt19937 rng(53);
  for (int i = 0; i < 200; ++i) m.insert(rng() % 64, rng() % 64);
  const Snapshot older = store->consistent_view();
  m.cut();
  for (int i = 0; i < 40; ++i) m.remove(rng() % 64, rng() % 64);
  const std::uint64_t resizes_before = store->stats().resizes;
  const auto flood = generate_uniform(1024, 20000, 57);
  for (const Edge& e : flood.edges()) m.insert(e.src, e.dst);
  ASSERT_GT(store->stats().resizes, resizes_before);
  const Snapshot newer = store->consistent_view();
  const SnapshotDelta d = snapshot_delta(older, newer);
  EXPECT_TRUE(d.used_fallback);
  m.expect(d);
  expect_delta_width_invariant(older, newer);
}

// Vertex growth that ends inside a partial touch block: the block
// [256, 512) holds both old ids (up to nodes_before = 300) and new ones.
TEST(SnapshotDelta, GrowthInsidePartialBlockIsWidthInvariant) {
  auto pool = make_pool(64);
  DgapOptions opts = small_opts();
  opts.init_vertices = 300;
  opts.init_edges = 1 << 14;
  auto store = DgapStore::create(*pool, opts);
  ScriptedMutator m(*store);
  std::mt19937 rng(59);
  for (int i = 0; i < 2000; ++i) m.insert(rng() % 300, rng() % 300);
  const Snapshot older = store->consistent_view();
  ASSERT_EQ(older.num_nodes(), 300);
  m.cut();
  for (int i = 0; i < 200; ++i) {
    m.insert(256 + rng() % 44, 300 + rng() % 120);  // old ids, partial block
    m.insert(300 + rng() % 120, rng() % 420);       // new ids, same block
    if (i % 5 == 0) m.remove(256 + rng() % 44, rng() % 300);
  }
  const Snapshot newer = store->consistent_view();
  const SnapshotDelta d = snapshot_delta(older, newer);
  EXPECT_FALSE(d.used_fallback);
  ASSERT_GT(d.nodes_after, d.nodes_before);
  ASSERT_LT(d.nodes_after, 512);
  // Block 0 stays pruned; block 1 is scanned whole: 44 old + the new ids.
  EXPECT_EQ(d.scanned_vertices,
            static_cast<std::uint64_t>(d.nodes_after - 256));
  m.expect(d);
  expect_delta_width_invariant(older, newer);
}

// The mirror is observably identical to `cut` under GraphView: same slot
// degrees (tombstones included) and the same surviving neighbors in the
// same order — PageRank's sums follow adjacency order.
void expect_identical(const algorithms::DeltaMirror& m, const Snapshot& cut) {
  ASSERT_EQ(m.num_nodes(), cut.num_nodes());
  ASSERT_EQ(m.num_edges_directed(), cut.num_edges_directed());
  for (NodeId v = 0; v < cut.num_nodes(); ++v) {
    EXPECT_EQ(m.out_degree(v), cut.out_degree(v)) << "v " << v;
    std::vector<NodeId> got;
    m.for_each_out(v, [&](NodeId d) { got.push_back(d); });
    EXPECT_EQ(got, cut.neighbors(v)) << "v " << v;
  }
}

// build() over a cut with tombstones: slot degrees keep the tombstone
// slots, iteration yields only the survivors. A tombstone cancels the
// latest prior insert of its destination, so vertex 2 keeps its first
// (2,5) and its (2,6) in insertion order, and vertex 3 keeps nothing.
TEST(DeltaMirror, BuildCancelsTombstonesLikeTheSnapshot) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(2, 5);
  store->insert_edge(2, 6);
  store->insert_edge(2, 5);
  store->delete_edge(2, 5);
  store->insert_edge(3, 7);
  store->delete_edge(3, 7);

  const Snapshot snap = store->consistent_view();
  const auto mirror = algorithms::DeltaMirror::build(snap);
  EXPECT_EQ(mirror.out_degree(2), 4);  // 3 inserts + 1 tombstone
  EXPECT_EQ(mirror.out_degree(3), 2);
  std::vector<NodeId> two;
  mirror.for_each_out(2, [&](NodeId d) { two.push_back(d); });
  EXPECT_EQ(two, (std::vector<NodeId>{5, 6}));
  mirror.for_each_out(3, [](NodeId) { ADD_FAILURE() << "3 has no edges"; });
  expect_identical(mirror, snap);
}

// A cut taken after a resize reads the new layout; the mirror built from
// it matches it, and a mirror built from the cut before the resize still
// matches that older cut.
TEST(DeltaMirror, BuildAfterResizeMatchesEachCut) {
  auto pool = make_pool(64);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(0, 1);
  const Snapshot s1 = store->consistent_view();
  const auto m1 = algorithms::DeltaMirror::build(s1);

  const auto stream = generate_uniform(256, 20000, 31);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  ASSERT_GT(store->stats().resizes, 0u);
  const Snapshot s2 = store->consistent_view();
  ASSERT_GT(s2.layout_epoch(), s1.layout_epoch());
  expect_identical(algorithms::DeltaMirror::build(s2), s2);
  expect_identical(m1, s1);
}

// Same degree column and neighbor order => every kernel over the mirror
// equals the kernel over the snapshot bit for bit. One kernel thread: BFS
// parents and BC's atomic sums depend on thread timing at any larger
// width, on either view.
TEST(DeltaMirror, KernelsOverBuiltMirrorMatchSnapshotExactly) {
  auto pool = make_pool(64);
  auto store = DgapStore::create(*pool, small_opts());
  const auto stream = symmetrize(generate_rmat(256, 4000, 5));
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);

  const par::ScopedKernelThreads one_thread(1);
  const Snapshot snap = store->consistent_view();
  const auto mirror = algorithms::DeltaMirror::build(snap);
  const NodeId source = algorithms::max_degree_vertex(snap);
  EXPECT_EQ(algorithms::pagerank(snap), algorithms::pagerank(mirror));
  EXPECT_EQ(algorithms::connected_components(snap),
            algorithms::connected_components(mirror));
  EXPECT_EQ(algorithms::bfs(snap, source), algorithms::bfs(mirror, source));
  EXPECT_EQ(algorithms::betweenness_centrality(snap, source),
            algorithms::betweenness_centrality(mirror, source));
}

// The delta-maintained DRAM mirror (the structure the incremental kernels
// sweep) must stay observably identical to each cut through the nasty
// cancellation interleavings: same-round insert+delete of one edge, a
// dangling tombstone followed by a later insert of the same destination
// (which must SURVIVE — tombstones only cancel prior inserts), partial
// deletion of parallel duplicate edges, and vertex growth. A stale mirror
// fed a delta from the wrong base cut must detect the mismatch and rebuild.
void mirror_survives_interleaved_mutations() {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(0, 1);
  store->insert_edge(0, 2);
  store->insert_edge(0, 2);  // parallel duplicate
  store->insert_edge(1, 0);
  store->insert_edge(2, 3);

  Snapshot prev = store->consistent_view();
  auto mirror = algorithms::DeltaMirror::build(prev);
  expect_identical(mirror, prev);

  // Round 1: dangling tombstone, same-round birth+death, duplicate trim,
  // and a brand-new vertex beyond the seed node count.
  store->delete_edge(5, 9);  // never inserted: cancels nothing, ever
  store->insert_edge(3, 7);
  store->delete_edge(3, 7);
  store->delete_edge(0, 2);  // one of the two parallel (0,2) edges
  store->insert_edge(70, 0);
  Snapshot c1 = store->consistent_view();
  mirror.apply(snapshot_delta(prev, c1), c1);
  expect_identical(mirror, c1);
  EXPECT_EQ(mirror.rebuilt_vertices(), 3u);  // sources 0, 3 and 5 deleted

  // Round 2: insert (5,9) AFTER the dangling tombstone — the append path
  // must keep it (the old tombstone pairs only with PRIOR inserts).
  store->insert_edge(5, 9);
  store->insert_edge(2, 70);
  Snapshot c2 = store->consistent_view();
  mirror.apply(snapshot_delta(c1, c2), c2);
  expect_identical(mirror, c2);
  EXPECT_EQ(mirror.full_rebuilds(), 0u);
  EXPECT_EQ(mirror.rebuilt_vertices(), 3u);  // insert-only: appends only
  std::vector<NodeId> five;
  mirror.for_each_out(5, [&](NodeId d) { five.push_back(d); });
  EXPECT_EQ(five, std::vector<NodeId>{9});
  EXPECT_EQ(mirror.out_degree(5), 2);  // tombstone slot + live slot

  // A mirror still sitting at `prev` fed the c1->c2 delta: wrong base (the
  // delta's nodes_before is c1's grown node count), so it must take the
  // full-rebuild path and still come out identical to c2.
  auto stale = algorithms::DeltaMirror::build(prev);
  stale.apply(snapshot_delta(c1, c2), c2);
  EXPECT_EQ(stale.full_rebuilds(), 1u);
  expect_identical(stale, c2);
}

// Runs at kernel widths 1, 2 and 4: apply() maintains changed vertices in
// parallel.
TEST(DeltaMirror, StaysIdenticalThroughInterleavedMutations) {
  for (const int width : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    const par::ScopedKernelThreads threads(width);
    mirror_survives_interleaved_mutations();
  }
}

// One vertex, one round, every cancellation hazard in sequence: a dangling
// tombstone, a duplicate insert trimmed by one delete, and an insert that
// dies and is born again. Only replaying the events in slot order (the
// `at` merge) gets the survivors AND their order right; applying all
// inserts before all deletes would leave {1, 2, 7} here.
void mirror_replays_one_vertex_in_slot_order() {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  constexpr NodeId kV = 4, kA = 6, kB = 7;
  store->insert_edge(kV, 1);  // survivors from the older cut
  store->insert_edge(kV, 2);
  const Snapshot older = store->consistent_view();
  auto mirror = algorithms::DeltaMirror::build(older);

  store->delete_edge(kV, kA);  // dangling: cancels nothing
  store->insert_edge(kV, kA);
  store->insert_edge(kV, kA);
  store->delete_edge(kV, kA);  // cancels the second (kV, kA)
  store->insert_edge(kV, kB);
  store->delete_edge(kV, kB);
  store->insert_edge(kV, kB);
  const Snapshot newer = store->consistent_view();
  const SnapshotDelta d = snapshot_delta(older, newer);
  ASSERT_EQ(d.changed, std::vector<NodeId>{kV});
  mirror.apply(d, newer);

  const std::vector<NodeId> want{1, 2, kA, kB};
  ASSERT_EQ(newer.neighbors(kV), want);
  std::vector<NodeId> got;
  mirror.for_each_out(kV, [&](NodeId x) { got.push_back(x); });
  EXPECT_EQ(got, want);
  expect_identical(mirror, newer);
  EXPECT_EQ(mirror.rebuilt_vertices(), 1u);
}

TEST(DeltaMirror, ReplaysOneVertexRoundInSlotOrder) {
  for (const int width : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    const par::ScopedKernelThreads threads(width);
    mirror_replays_one_vertex_in_slot_order();
  }
}

// A GraphView whose vertex 0 points at `dst`: stands in for a view with an
// id the 32-bit mirror cannot hold.
struct OneEdgeView {
  NodeId nodes = 2;
  NodeId dst = 1;
  [[nodiscard]] NodeId num_nodes() const { return nodes; }
  [[nodiscard]] std::int64_t out_degree(NodeId v) const { return v == 0; }
  template <typename F>
  void for_each_out(NodeId v, F&& fn) const {
    if (v == 0) fn(dst);
  }
};

TEST(DeltaMirror, RejectsIdsAboveEncodingLimitInsteadOfTruncating) {
  // The largest legal id round-trips unchanged.
  const auto edge = algorithms::DeltaMirror::build(
      OneEdgeView{.dst = kMaxVertexId});
  std::vector<NodeId> got;
  edge.for_each_out(0, [&](NodeId x) { got.push_back(x); });
  EXPECT_EQ(got, std::vector<NodeId>{kMaxVertexId});

  EXPECT_THROW((void)algorithms::DeltaMirror::build(
                   OneEdgeView{.dst = kMaxVertexId + 1}),
               std::out_of_range);
  // Checked before anything is allocated.
  EXPECT_THROW((void)algorithms::DeltaMirror::build(
                   OneEdgeView{.nodes = kMaxVertexId + 2}),
               std::out_of_range);

  // apply() validates the whole delta before it edits anything.
  const OneEdgeView base{};
  auto mirror = algorithms::DeltaMirror::build(base);
  SnapshotDelta d;
  d.nodes_before = d.nodes_after = 2;
  d.changed = {1};
  d.changed_old_degree = {0};
  d.inserted = {{1, 0, 0}, {1, kMaxVertexId + 1, 1}};
  EXPECT_THROW(mirror.apply(d, base), std::out_of_range);
  d.inserted.clear();
  d.nodes_after = kMaxVertexId + 2;
  EXPECT_THROW(mirror.apply(d, base), std::out_of_range);
  EXPECT_EQ(mirror.num_nodes(), 2);
  EXPECT_EQ(mirror.out_degree(1), 0);
  mirror.for_each_out(1, [](NodeId) { ADD_FAILURE() << "mirror edited"; });
}

// Randomized mutation rounds: the delta-seeded kernels must track the
// from-scratch kernels on every cut — CC labels bit-exact (both converge to
// min-id component labels), PR within the triangle-inequality bound
// 2*tolerance/(1-damping) that the bench enforces per round. The rounds
// mutate an RMAT graph (ids from kClique up, plus vertices born each round)
// beside an untouched clique on ids [0, kClique) that holds most of the
// directed slots, so every round's delete path stays scoped instead of
// taking incremental_cc's full-kernel shortcut (which
// GiantComponentDeleteRoundsMatchFullCc covers).
void track_full_kernels_under_randomized_rounds() {
  constexpr NodeId kClique = 128;
  auto pool = make_pool(64);
  DgapOptions opts = small_opts();
  opts.init_vertices = kClique + 256;
  opts.init_edges = 1 << 15;
  auto store = DgapStore::create(*pool, opts);

  std::vector<Edge> clique;
  for (NodeId u = 0; u < kClique; ++u)
    for (NodeId v = 0; v < kClique; ++v)
      if (u != v) clique.push_back({u, v});
  store->insert_batch(clique);

  std::mt19937 rng(23);
  std::vector<Edge> live;  // surviving RMAT edges, eligible for deletion
  const auto seed_stream = symmetrize(generate_rmat(256, 3000, 5));
  for (const Edge& e : seed_stream.edges()) {
    const Edge shifted{e.src + kClique, e.dst + kClique};
    store->insert_edge(shifted.src, shifted.dst);
    live.push_back(shifted);
  }

  const algorithms::IncrementalPageRankParams ipr{};  // tol 1e-4, d 0.85
  const algorithms::PageRankParams full_pr{.iterations = 200,
                                           .damping = ipr.damping,
                                           .tolerance = ipr.tolerance};
  const double bound = 2.0 * ipr.tolerance / (1.0 - ipr.damping);

  Snapshot prev = store->consistent_view();
  std::vector<double> scores = algorithms::pagerank(prev, full_pr);
  std::vector<NodeId> labels = algorithms::connected_components(prev);
  // Kernels run over the delta-maintained DRAM mirror, exactly like the
  // live bench driver; fidelity is re-checked against the raw cut below.
  auto mirror = algorithms::DeltaMirror::build(prev);

  NodeId next_vertex = prev.num_nodes();
  for (int round = 0; round < 5; ++round) {
    // ~120 inserts (some to brand-new vertices) + ~30 deletes of live edges.
    for (int i = 0; i < 120; ++i) {
      NodeId u, v;
      if (i % 24 == 0) {
        u = next_vertex++;
        v = kClique + rng() % (next_vertex - kClique);
      } else {
        u = kClique + rng() % (next_vertex - kClique);
        v = kClique + rng() % (next_vertex - kClique);
      }
      store->insert_edge(u, v);
      live.push_back({u, v});
    }
    for (int i = 0; i < 30 && !live.empty(); ++i) {
      const std::size_t k = rng() % live.size();
      store->delete_edge(live[k].src, live[k].dst);
      live[k] = live.back();
      live.pop_back();
    }

    Snapshot cut = store->consistent_view();
    const SnapshotDelta delta = snapshot_delta(prev, cut);
    EXPECT_FALSE(delta.empty());

    // Exactly the sources with a delete event are edited in place.
    std::set<NodeId> deleted_srcs;
    for (const DeltaEdge& e : delta.deleted) deleted_srcs.insert(e.src);
    const std::uint64_t rebuilt_before = mirror.rebuilt_vertices();
    mirror.apply(delta, cut);
    EXPECT_EQ(mirror.full_rebuilds(), 0u) << "round " << round;
    EXPECT_EQ(mirror.rebuilt_vertices() - rebuilt_before,
              deleted_srcs.size())
        << "round " << round;
    ASSERT_EQ(mirror.num_nodes(), cut.num_nodes()) << "round " << round;
    for (NodeId v = 0; v < cut.num_nodes(); ++v) {
      EXPECT_EQ(mirror.out_degree(v), cut.out_degree(v))
          << "round " << round << " v " << v;
      std::vector<NodeId> got;
      mirror.for_each_out(v, [&](NodeId d) { got.push_back(d); });
      EXPECT_EQ(got, cut.neighbors(v)) << "round " << round << " v " << v;
    }

    auto ipr_res =
        algorithms::incremental_pagerank(mirror, delta, scores, ipr);
    const auto icc_res = algorithms::incremental_cc(mirror, delta, labels);
    EXPECT_FALSE(ipr_res.full_fallback) << "round " << round;
    EXPECT_FALSE(icc_res.full_fallback) << "round " << round;

    // From-scratch baselines on the same cut.
    const std::vector<double> full = algorithms::pagerank(cut, full_pr);
    const std::vector<NodeId> full_cc = algorithms::connected_components(cut);

    ASSERT_EQ(ipr_res.scores.size(), full.size());
    double l1 = 0.0;
    for (std::size_t i = 0; i < full.size(); ++i)
      l1 += std::abs(ipr_res.scores[i] - full[i]);
    EXPECT_LE(l1, bound) << "round " << round;
    EXPECT_EQ(icc_res.labels, full_cc) << "round " << round;

    // Deletes happened every round, so the scoped CC recomputation ran —
    // and stayed scoped (strictly fewer relabels than a full pass).
    EXPECT_GT(icc_res.recomputed_vertices, 0u);
    EXPECT_LT(icc_res.recomputed_vertices, cut.num_nodes());

    prev = std::move(cut);
    scores = std::move(ipr_res.scores);
    labels = icc_res.labels;
  }
}

// The mirror's apply and the scoped CC recompute both run on par::, so the
// whole randomized sequence is repeated at kernel widths 1, 2 and 4.
TEST(IncrementalKernels, TrackFullKernelsUnderRandomizedRounds) {
  for (const int width : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    const par::ScopedKernelThreads threads(width);
    track_full_kernels_under_randomized_rounds();
  }
}

TEST(IncrementalKernels, SeedSizeMismatchFallsBackToSeededFull) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  const auto stream = symmetrize(generate_rmat(128, 1500, 9));
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);

  const Snapshot a = store->consistent_view();
  store->insert_edge(0, 1);
  const Snapshot b = store->consistent_view();
  const SnapshotDelta d = snapshot_delta(a, b);

  const std::vector<double> wrong_seed(3, 1.0);  // wrong size on purpose
  const algorithms::IncrementalPageRankParams ipr{};
  const auto pr = algorithms::incremental_pagerank(b, d, wrong_seed, ipr);
  EXPECT_TRUE(pr.full_fallback);
  const std::vector<double> full = algorithms::pagerank(
      b, {.iterations = 200, .tolerance = ipr.tolerance});
  double l1 = 0.0;
  for (std::size_t i = 0; i < full.size(); ++i)
    l1 += std::abs(pr.scores[i] - full[i]);
  EXPECT_LE(l1, 2.0 * ipr.tolerance / (1.0 - ipr.damping));

  const std::vector<NodeId> wrong_labels(3, 0);
  const auto cc = algorithms::incremental_cc(b, d, wrong_labels);
  EXPECT_TRUE(cc.full_fallback);
  EXPECT_EQ(cc.labels, algorithms::connected_components(b));
}

// Without a seed the kernel's certification sweeps are pagerank()'s own
// sweep from the same uniform start, so the fallback must equal the
// tolerance-stopped full kernel bit for bit — at every kernel width, since
// both reduce per block in block order.
TEST(IncrementalKernels, SeedlessFallbackIsBitIdenticalToFullKernel) {
  auto pool = make_pool(64);
  DgapOptions opts = small_opts();
  opts.init_vertices = 4096;
  opts.init_edges = 1 << 16;
  auto store = DgapStore::create(*pool, opts);
  const auto stream = symmetrize(generate_rmat(4096, 20000, 31));
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  const Snapshot a = store->consistent_view();
  store->insert_edge(0, 1);
  const Snapshot b = store->consistent_view();
  const SnapshotDelta d = snapshot_delta(a, b);

  const algorithms::IncrementalPageRankParams ipr{};
  for (const int width : {1, 2, 4}) {
    const par::ScopedKernelThreads threads(width);
    const auto pr = algorithms::incremental_pagerank(b, d, {}, ipr);
    EXPECT_TRUE(pr.full_fallback) << "width " << width;
    const std::vector<double> full = algorithms::pagerank(
        b, {.iterations = ipr.max_iterations, .tolerance = ipr.tolerance});
    EXPECT_EQ(pr.scores, full) << "width " << width;
  }
}

// Test-side reference of pagerank_incr.hpp's closing loop from `seed`
// (extended for vertices born since the older cut, as the kernel does):
// plain Jacobi sweeps to the tolerance, or with `chebyshev` the header's
// Jacobi-then-Chebyshev recurrence, written here in its textbook form
// (x_k copied aside before each sweep). Returns the certified sweep output
// and the sweep count.
struct ClosedScores {
  std::vector<double> scores;
  int sweeps = 0;
};

template <algorithms::GraphView G>
ClosedScores close_from_seed(const G& g, std::vector<double> x,
                             const algorithms::IncrementalPageRankParams& p,
                             bool chebyshev) {
  const double d = p.damping;
  const double sigma = (1.0 - std::sqrt(1.0 - d * d)) / d;
  x.resize(static_cast<std::size_t>(g.num_nodes()),
           (1.0 - d) / static_cast<double>(g.num_nodes()));
  std::vector<double> contrib(x.size());
  std::vector<double> older;  // x_{k-1}
  int k = -1;                 // Chebyshev index of x; -1 while Jacobi
  double w = 1.0;
  double last = 0.0;
  for (int sweeps = 1; sweeps <= p.max_iterations; ++sweeps) {
    std::vector<double> xk = x;
    const double change = algorithms::pagerank_sweep(g, d, x, contrib);
    if (change < p.tolerance) return {x, sweeps};
    if (k < 0) {
      if (chebyshev && last > 0.0 && change > sigma * last) k = 0;
      last = change;
      continue;
    }
    if (k++ == 0) {  // x_1 = sweep(x_0)
      older = std::move(xk);
      continue;
    }
    w = k == 2 ? 1.0 / (1.0 - d * d / 2.0) : 1.0 / (1.0 - d * d * w / 4.0);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = older[i] + w * (x[i] - older[i]);
    older = std::move(xk);
  }
  ADD_FAILURE() << "no certificate within " << p.max_iterations << " sweeps";
  return {x, p.max_iterations};
}

// Seeded on half of a symmetrized RMAT, with the other half as one delta
// that also deletes every 10th seeded pair (the live benches delete about
// one chunk in ten): the changed vertices' degrees exceed the frontier
// budget, so the closing loop runs from the seed itself. It must leave
// Jacobi for Chebyshev and certify in strictly fewer sweeps than plain
// Jacobi from the same seed, return a sweep output (one more sweep moves
// it by less than d * tol), follow the header's recurrence bit for bit,
// stay within the L1 bound of the full kernel, and give identical scores
// at kernel widths 1, 2 and 4.
TEST(IncrementalKernels, LargeDeltaClosesWithChebyshevInFewerSweeps) {
  constexpr NodeId kVertices = 4096;
  auto pool = make_pool(64);
  DgapOptions opts = small_opts();
  opts.init_vertices = kVertices;
  opts.init_edges = 1 << 17;
  auto store = DgapStore::create(*pool, opts);
  const auto stream = symmetrize(generate_rmat(kVertices, 30000, 53));
  const std::size_t half = stream.num_edges() / 2;  // even: pairs stay whole
  store->insert_batch(stream.all().first(half));
  const Snapshot a = store->consistent_view();
  const algorithms::IncrementalPageRankParams ipr{};
  const algorithms::PageRankParams full_pr{.iterations = 200,
                                           .damping = ipr.damping,
                                           .tolerance = ipr.tolerance};
  const std::vector<double> seed = algorithms::pagerank(a, full_pr);
  store->insert_batch(stream.all().subspan(half));
  std::vector<Edge> deletes;  // every 10th seeded pair, both directions
  for (std::size_t p = 0; p < half; p += 20)
    deletes.insert(deletes.end(), {stream.edges()[p], stream.edges()[p + 1]});
  store->delete_batch(deletes);
  const Snapshot b = store->consistent_view();
  const SnapshotDelta delta = snapshot_delta(a, b);

  const ClosedScores jacobi = close_from_seed(b, seed, ipr, false);
  const ClosedScores reference = close_from_seed(b, seed, ipr, true);
  const std::vector<double> full = algorithms::pagerank(b, full_pr);
  const auto n = static_cast<std::uint64_t>(b.num_nodes());
  std::vector<double> width1;
  for (const int width : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    const par::ScopedKernelThreads threads(width);
    const auto r = algorithms::incremental_pagerank(b, delta, seed, ipr);
    EXPECT_FALSE(r.full_fallback);
    // Frontier skipped: every activation belongs to a full sweep.
    EXPECT_EQ(r.active_vertices, n * static_cast<std::uint64_t>(r.iterations));
    EXPECT_LT(r.iterations, jacobi.sweeps);
    EXPECT_EQ(r.iterations, reference.sweeps);
    EXPECT_EQ(r.scores, reference.scores);

    double l1 = 0.0;
    for (std::size_t i = 0; i < full.size(); ++i)
      l1 += std::abs(r.scores[i] - full[i]);
    EXPECT_LE(l1, 2.0 * ipr.tolerance / (1.0 - ipr.damping));
    std::vector<double> again = r.scores;
    std::vector<double> contrib(again.size());
    EXPECT_LT(algorithms::pagerank_sweep(b, ipr.damping, again, contrib),
              ipr.damping * ipr.tolerance);

    if (width == 1) {
      width1 = r.scores;
    } else {
      EXPECT_EQ(r.scores, width1);
    }
  }
}

// A small delta leaves the seed nearly converged: the hybrid loop must not
// spend more sweeps than plain Jacobi would from the same seed.
TEST(IncrementalKernels, SmallDeltaClosesInNoMoreSweepsThanJacobi) {
  constexpr NodeId kVertices = 4096;
  auto pool = make_pool(64);
  DgapOptions opts = small_opts();
  opts.init_vertices = kVertices;
  opts.init_edges = 1 << 17;
  auto store = DgapStore::create(*pool, opts);
  const auto stream = symmetrize(generate_rmat(kVertices, 30000, 59));
  const std::size_t body = stream.num_edges() - 400;  // 200 pairs held back
  store->insert_batch(stream.all().first(body));
  const Snapshot a = store->consistent_view();
  const algorithms::IncrementalPageRankParams ipr{};
  const std::vector<double> seed = algorithms::pagerank(
      a, {.iterations = 200,
          .damping = ipr.damping,
          .tolerance = ipr.tolerance});
  store->insert_batch(stream.all().subspan(body));
  store->delete_edge(stream.edges()[0].src, stream.edges()[0].dst);
  store->delete_edge(stream.edges()[1].src, stream.edges()[1].dst);
  const Snapshot b = store->consistent_view();
  const SnapshotDelta delta = snapshot_delta(a, b);

  const ClosedScores jacobi = close_from_seed(b, seed, ipr, false);
  const auto r = algorithms::incremental_pagerank(b, delta, seed, ipr);
  EXPECT_FALSE(r.full_fallback);
  EXPECT_LE(r.iterations, jacobi.sweeps);
}

TEST(IncrementalKernels, DeleteSplitsComponentScopedRecompute) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  // Two chains joined by a single bridge: 0-1-2-3  bridge(3,4)  4-5-6-7,
  // plus a far-away clique that must NOT be relabeled by the delete.
  for (NodeId v = 0; v < 3; ++v) {
    store->insert_edge(v, v + 1);
    store->insert_edge(v + 1, v);
  }
  for (NodeId v = 4; v < 7; ++v) {
    store->insert_edge(v, v + 1);
    store->insert_edge(v + 1, v);
  }
  store->insert_edge(3, 4);
  store->insert_edge(4, 3);
  for (NodeId u = 40; u < 48; ++u)
    for (NodeId v = 40; v < 48; ++v)
      if (u != v) store->insert_edge(u, v);

  const Snapshot a = store->consistent_view();
  std::vector<NodeId> labels = algorithms::connected_components(a);
  ASSERT_EQ(labels[7], labels[0]);  // bridged: one component

  store->delete_edge(3, 4);
  store->delete_edge(4, 3);
  const Snapshot b = store->consistent_view();
  const SnapshotDelta d = snapshot_delta(a, b);
  ASSERT_EQ(d.deleted.size(), 2u);

  const auto r = algorithms::incremental_cc(b, d, labels);
  EXPECT_FALSE(r.full_fallback);
  EXPECT_EQ(r.labels, algorithms::connected_components(b));
  EXPECT_NE(r.labels[0], r.labels[7]);  // split detected
  // The recompute stayed scoped to the old bridged component (8 vertices):
  // the clique and the untouched id space were never visited.
  EXPECT_LE(r.recomputed_vertices, 8u);
}

// Delete rounds inside copy 0 of `copies` disjoint copies of one RMAT graph
// (ids offset by the copy size): each round deletes 8 live edges of copy 0,
// the first inside its giant component, and inserts 8 random edges into
// it. With one copy the giant holds more than 31/32 of the directed slots,
// so every round must take the shortcut (the full kernel, recomputed_vertices == n,
// no fallback flag). With three it holds about a third, so every round must
// stay scoped, and the scoped Shiloach-Vishkin loop's racy parallel hooks
// run over thousands of members with real contention. Either way every
// round must reproduce connected_components on the same cut exactly, at
// kernel widths 1, 2 and 4.
void delete_rounds_in_first_copy_match_full_cc(NodeId copies) {
  constexpr NodeId kCopy = 4096;
  const bool shortcut = copies == 1;
  auto pool = make_pool(64);
  DgapOptions opts = small_opts();
  opts.init_vertices = copies * kCopy;
  opts.init_edges = static_cast<std::uint64_t>(copies) << 16;
  auto store = DgapStore::create(*pool, opts);
  std::vector<Edge> live;  // copy 0's edges, eligible for deletion
  const auto stream = symmetrize(generate_rmat(kCopy, 12000, 41));
  for (NodeId copy = 0; copy < copies; ++copy) {
    for (const Edge& e : stream.edges()) {
      store->insert_edge(e.src + copy * kCopy, e.dst + copy * kCopy);
      if (copy == 0) live.push_back(e);
    }
  }

  std::mt19937 rng(43);
  Snapshot prev = store->consistent_view();
  std::vector<NodeId> labels = algorithms::connected_components(prev);
  auto mirror = algorithms::DeltaMirror::build(prev);
  for (const int width : {1, 2, 4}) {
    const par::ScopedKernelThreads threads(width);
    for (int round = 0; round < 20; ++round) {
      SCOPED_TRACE(testing::Message()
                   << "width " << width << " round " << round);
      // One delete inside copy 0's giant component, plus random deletes
      // that may split off leaves, and a few inserts to re-merge.
      std::vector<std::size_t> sizes(static_cast<std::size_t>(kCopy), 0);
      for (NodeId v = 0; v < kCopy; ++v) ++sizes[labels[v]];
      const auto giant = static_cast<NodeId>(
          std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
      const std::size_t giant_size = sizes[giant];
      ASSERT_GT(giant_size, static_cast<std::size_t>(kCopy) / 4);
      std::size_t k = rng() % live.size();
      while (labels[live[k].src] != giant) k = rng() % live.size();
      for (int d = 0; d < 8; ++d) {
        store->delete_edge(live[k].src, live[k].dst);
        live[k] = live.back();
        live.pop_back();
        k = rng() % live.size();
      }
      for (int i = 0; i < 8; ++i) {
        const Edge e{static_cast<NodeId>(rng() % kCopy),
                     static_cast<NodeId>(rng() % kCopy)};
        store->insert_edge(e.src, e.dst);
        live.push_back(e);
      }

      Snapshot cut = store->consistent_view();
      const SnapshotDelta delta = snapshot_delta(prev, cut);
      mirror.apply(delta, cut);
      const auto r = algorithms::incremental_cc(mirror, delta, labels);
      ASSERT_FALSE(r.full_fallback);
      if (shortcut) {
        EXPECT_EQ(r.recomputed_vertices, static_cast<std::uint64_t>(kCopy));
      } else {
        EXPECT_GE(r.recomputed_vertices, giant_size);
        EXPECT_LT(r.recomputed_vertices, static_cast<std::uint64_t>(kCopy));
      }
      ASSERT_EQ(r.labels, algorithms::connected_components(cut));
      labels = r.labels;
      prev = std::move(cut);
    }
  }
}

TEST(IncrementalKernels, GiantComponentDeleteRoundsMatchFullCc) {
  delete_rounds_in_first_copy_match_full_cc(1);
}

TEST(IncrementalKernels, LargeComponentDeleteRoundsStayScopedAndMatchFullCc) {
  delete_rounds_in_first_copy_match_full_cc(3);
}

// A delete may absorb only one direction of a symmetric pair. Full SV still
// hooks the surviving direction, so the incremental recompute must too — in
// both orientations (surviving edge from the higher id and from the lower).
TEST(IncrementalKernels, OneDirectionDeleteKeepsComponentJoined) {
  for (const bool drop_low_to_high : {true, false}) {
    SCOPED_TRACE(testing::Message() << "drop (1,2): " << drop_low_to_high);
    auto pool = make_pool(32);
    auto store = DgapStore::create(*pool, small_opts());
    // Path 0-1-2-3 with both directions of every edge, plus 5-6.
    for (NodeId v = 0; v < 3; ++v) {
      store->insert_edge(v, v + 1);
      store->insert_edge(v + 1, v);
    }
    store->insert_edge(5, 6);
    store->insert_edge(6, 5);
    const Snapshot a = store->consistent_view();
    const std::vector<NodeId> labels = algorithms::connected_components(a);

    // Cut the middle edge in one direction only: (1,2) or (2,1) survives.
    if (drop_low_to_high) {
      store->delete_edge(1, 2);
    } else {
      store->delete_edge(2, 1);
    }
    const Snapshot b = store->consistent_view();
    const SnapshotDelta d = snapshot_delta(a, b);
    ASSERT_EQ(d.deleted.size(), 1u);
    auto mirror = algorithms::DeltaMirror::build(a);
    mirror.apply(d, b);
    const auto r = algorithms::incremental_cc(mirror, d, labels);
    EXPECT_FALSE(r.full_fallback);
    EXPECT_EQ(r.labels, algorithms::connected_components(b));
    EXPECT_EQ(r.labels[3], 0);  // still one path component
    EXPECT_EQ(r.labels[6], 5);  // untouched component keeps its label
    EXPECT_EQ(r.recomputed_vertices, 4u);
  }
}

// Regression for the windowed structural gate: while a rebalance window is
// announced, a snapshot read whose run lies OUTSIDE the window proceeds
// immediately; a read INSIDE the window parks (bumping the retry counter)
// until the window closes. Uses the store's debug hooks to hold a window
// open deterministically.
TEST(WindowedStructGate, OutOfWindowReadsFlowInWindowReadsPark) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  const auto stream = generate_uniform(64, 2000, 3);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  const Snapshot snap = store->consistent_view();

  const auto read_all = [&] {
    std::uint64_t sum = 0;
    for (NodeId v = 0; v < snap.num_nodes(); ++v)
      snap.for_each_out(v, [&](NodeId d) { sum += d; });
    return sum;
  };
  const std::uint64_t expected = read_all();

  // Empty window [0, 0): every vertex's run starts at-or-after the end, so
  // readers are admitted while the gate is held.
  store->debug_struct_gate_begin(0, 0);
  std::atomic<bool> done{false};
  std::thread out_reader([&] {
    EXPECT_EQ(read_all(), expected);
    done.store(true);
  });
  for (int i = 0; i < 2000 && !done.load(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(done.load()) << "out-of-window reader blocked by the gate";
  store->debug_struct_gate_end();
  out_reader.join();

  // All-covering window: the same read must park until the gate drops, and
  // each turned-away attempt is counted.
  const std::uint64_t retries_before = store->stats().snapshot_read_retries;
  store->debug_struct_gate_begin(0, ~std::uint64_t{0});
  std::atomic<bool> in_done{false};
  std::thread in_reader([&] {
    EXPECT_EQ(read_all(), expected);
    in_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(in_done.load()) << "in-window reader slipped past the gate";
  store->debug_struct_gate_end();
  in_reader.join();
  EXPECT_TRUE(in_done.load());
  EXPECT_GT(store->stats().snapshot_read_retries, retries_before);
}

}  // namespace
}  // namespace dgap::core
