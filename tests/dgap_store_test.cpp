// Functional tests for the DGAP core: inserts, edge logs, rebalancing,
// resizing, snapshots, deletions, vertex growth, shutdown/reopen, ablation
// variants, and multi-threaded writers. Every configuration is checked
// against the AdjGraph oracle.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "src/core/dgap_store.hpp"
#include "src/graph/adj_graph.hpp"
#include "src/graph/datasets.hpp"
#include "src/graph/generators.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

std::unique_ptr<PmemPool> make_pool(std::uint64_t mb = 64) {
  return PmemPool::create({.path = "", .size = mb << 20});
}

DgapOptions small_opts() {
  DgapOptions o;
  o.init_vertices = 64;
  o.init_edges = 256;
  o.segment_slots = 64;
  o.elog_bytes = 256;  // 21 entries: merges happen constantly
  o.max_writer_threads = 8;
  return o;
}

// Compare the store against the oracle: same sorted neighbor multiset for
// every vertex, through a fresh snapshot.
void expect_matches_oracle(const DgapStore& store, const AdjGraph& oracle,
                           const std::string& tag) {
  ASSERT_GE(store.num_nodes(), oracle.num_nodes()) << tag;
  const Snapshot snap = store.consistent_view();
  for (NodeId v = 0; v < oracle.num_nodes(); ++v) {
    auto got = snap.neighbors(v);
    std::sort(got.begin(), got.end());
    const auto want = oracle.sorted_neigh(v);
    ASSERT_EQ(got, want) << tag << " vertex " << v;
  }
}

TEST(DgapStore, EmptyStoreBasics) {
  auto pool = make_pool(8);
  auto store = DgapStore::create(*pool, small_opts());
  EXPECT_EQ(store->num_nodes(), 64);
  EXPECT_EQ(store->num_edge_slots(), 0u);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
  const Snapshot snap = store->consistent_view();
  EXPECT_EQ(snap.num_nodes(), 64);
  EXPECT_EQ(snap.out_degree(5), 0);
  EXPECT_TRUE(snap.neighbors(5).empty());
}

TEST(DgapStore, SingleEdgeRoundTrip) {
  auto pool = make_pool(8);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(3, 7);
  const Snapshot snap = store->consistent_view();
  EXPECT_EQ(snap.out_degree(3), 1);
  EXPECT_EQ(snap.neighbors(3), (std::vector<NodeId>{7}));
  EXPECT_EQ(snap.out_degree(7), 0);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(DgapStore, ChronologicalOrderPreserved) {
  // The paper stores edges in insertion order, not sorted by destination.
  auto pool = make_pool(8);
  auto store = DgapStore::create(*pool, small_opts());
  const std::vector<NodeId> order = {6, 2, 9, 1, 8, 4};
  for (const NodeId d : order) store->insert_edge(0, d);
  const Snapshot snap = store->consistent_view();
  std::vector<NodeId> got;
  snap.for_each_out(0, [&](NodeId d) { got.push_back(d); });
  EXPECT_EQ(got, order);
}

TEST(DgapStore, SnapshotIsolationFromLaterInserts) {
  auto pool = make_pool(8);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(1, 2);
  store->insert_edge(1, 3);
  const Snapshot old_snap = store->consistent_view();
  for (NodeId d = 4; d < 40; ++d) store->insert_edge(1, d);
  // The old snapshot still sees exactly two edges...
  EXPECT_EQ(old_snap.out_degree(1), 2);
  EXPECT_EQ(old_snap.neighbors(1), (std::vector<NodeId>{2, 3}));
  // ...while a new one sees everything.
  const Snapshot new_snap = store->consistent_view();
  EXPECT_EQ(new_snap.out_degree(1), 38);
}

TEST(DgapStore, SnapshotSurvivesRebalances) {
  // Force many merges/rebalances after the snapshot; the first-k-edges
  // guarantee must hold through data movement.
  auto pool = make_pool(16);
  auto store = DgapStore::create(*pool, small_opts());
  for (NodeId d = 0; d < 10; ++d) store->insert_edge(5, d + 100);
  const Snapshot snap = store->consistent_view();
  const auto before = snap.neighbors(5);
  // Hammer neighboring vertices to force rebalancing around vertex 5.
  auto stream = generate_uniform(64, 20000, 77);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  EXPECT_GT(store->stats().rebalances, 0u);
  EXPECT_EQ(snap.neighbors(5), before);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(DgapStore, DeleteEdgeTombstones) {
  auto pool = make_pool(8);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(2, 5);
  store->insert_edge(2, 6);
  store->insert_edge(2, 5);
  store->delete_edge(2, 5);  // cancels ONE instance
  const Snapshot snap = store->consistent_view();
  auto got = snap.neighbors(2);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{5, 6}));
  store->delete_edge(2, 5);
  const Snapshot snap2 = store->consistent_view();
  EXPECT_EQ(snap2.neighbors(2), (std::vector<NodeId>{6}));
  // A pre-delete snapshot still sees the deleted edges.
  EXPECT_EQ(snap.out_degree(2), 4);  // 3 inserts + 1 tombstone slot
}

TEST(DgapStore, DeleteThenForEachSkipsCancelled) {
  auto pool = make_pool(8);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(1, 9);
  store->delete_edge(1, 9);
  const Snapshot snap = store->consistent_view();
  int count = 0;
  snap.for_each_out(1, [&](NodeId) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(DgapStore, VertexGrowthBeyondInit) {
  auto pool = make_pool(16);
  DgapOptions o = small_opts();
  o.init_vertices = 4;
  auto store = DgapStore::create(*pool, o);
  EXPECT_EQ(store->num_nodes(), 4);
  store->insert_edge(100, 200);  // implies vertices up to 200
  EXPECT_EQ(store->num_nodes(), 201);
  const Snapshot snap = store->consistent_view();
  EXPECT_EQ(snap.neighbors(100), (std::vector<NodeId>{200}));
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(DgapStore, ExplicitInsertVertex) {
  auto pool = make_pool(8);
  DgapOptions o = small_opts();
  o.init_vertices = 2;
  auto store = DgapStore::create(*pool, o);
  store->insert_vertex(9);
  EXPECT_EQ(store->num_nodes(), 10);
  store->insert_vertex(3);  // already exists: no-op
  EXPECT_EQ(store->num_nodes(), 10);
}

TEST(DgapStore, RejectsNegativeIds) {
  auto pool = make_pool(8);
  auto store = DgapStore::create(*pool, small_opts());
  EXPECT_THROW(store->insert_edge(-1, 2), std::invalid_argument);
  EXPECT_THROW(store->insert_edge(2, -1), std::invalid_argument);
}

// Edge-array slots are 32-bit words: an id above kMaxVertexId cannot be
// encoded and must be refused by every entry point, not wrapped, and the
// refusal must leave the store as it was.
TEST(DgapStore, RejectsIdsAboveEncodingLimit) {
  // A 1 MB pool: were an over-limit id to slip past the check, the store
  // would append pivots toward it and hit PoolCapacityError within a few
  // seconds, failing the first ASSERT instead of growing for minutes.
  auto pool = make_pool(1);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(1, 2);
  const NodeId nodes = store->num_nodes();
  const std::uint64_t slots = store->num_edge_slots();
  constexpr NodeId kOver = kMaxVertexId + 1;
  const std::vector<Edge> bad = {{1, 3}, {4, kOver}};

  ASSERT_THROW(store->insert_edge(kOver, 2), std::out_of_range);
  EXPECT_THROW(store->insert_edge(2, kOver), std::out_of_range);
  EXPECT_THROW(store->insert_edge(NodeId{1} << 31, 2), std::out_of_range);
  EXPECT_THROW(store->delete_edge(1, kOver), std::out_of_range);
  EXPECT_THROW(store->insert_vertex(kOver), std::out_of_range);
  EXPECT_THROW(store->insert_batch(bad), std::out_of_range);
  EXPECT_THROW(store->delete_batch(bad), std::out_of_range);
  EXPECT_EQ(store->num_nodes(), nodes);
  EXPECT_EQ(store->num_edge_slots(), slots);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;

  auto pool2 = make_pool(1);
  DgapOptions o = small_opts();
  o.init_vertices = kMaxVertexId + 2;
  EXPECT_THROW((void)DgapStore::create(*pool2, o), std::out_of_range);
}

struct StoreConfig {
  const char* name;
  bool use_elog;
  bool use_ulog;
  bool metadata_in_dram;
  std::uint64_t segment_slots;
};

class DgapStoreSweep : public ::testing::TestWithParam<StoreConfig> {};

TEST_P(DgapStoreSweep, SkewedWorkloadMatchesOracle) {
  const auto& cfg = GetParam();
  auto pool = make_pool(128);
  DgapOptions o = small_opts();
  o.use_elog = cfg.use_elog;
  o.use_ulog = cfg.use_ulog;
  o.metadata_in_dram = cfg.metadata_in_dram;
  o.segment_slots = cfg.segment_slots;
  o.init_vertices = 200;
  auto store = DgapStore::create(*pool, o);

  const auto stream = symmetrize(generate_rmat(200, 6000, 42));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) {
    store->insert_edge(e.src, e.dst);
    oracle.add_edge(e.src, e.dst);
  }
  std::string why;
  ASSERT_TRUE(store->check_invariants(&why)) << why;
  expect_matches_oracle(*store, oracle, cfg.name);
  // Growth must have kicked in (12000 directed edges vs 256 initial).
  EXPECT_GT(store->stats().resizes, 0u) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DgapStoreSweep,
    ::testing::Values(
        StoreConfig{"full", true, true, true, 64},
        StoreConfig{"no_elog", false, true, true, 64},
        StoreConfig{"no_elog_no_ulog", false, false, true, 64},
        StoreConfig{"all_on_pm", false, false, false, 64},
        StoreConfig{"tiny_segments", true, true, true, 16},
        StoreConfig{"big_segments", true, true, true, 512}),
    [](const ::testing::TestParamInfo<StoreConfig>& info) {
      return info.param.name;
    });

TEST(DgapStore, DenseSingleVertexRun) {
  // One vertex with a run far larger than a segment: exercises multi-chunk
  // run moves and window expansion across sections.
  auto pool = make_pool(64);
  DgapOptions o = small_opts();
  o.segment_slots = 32;
  o.ulog_bytes = 256;  // 32-slot chunks: many chunks per move
  auto store = DgapStore::create(*pool, o);
  AdjGraph oracle(64);
  for (int i = 0; i < 3000; ++i) {
    store->insert_edge(10, (i * 7) % 64);
    oracle.add_edge(10, (i * 7) % 64);
    if (i % 10 == 0) {
      store->insert_edge(11, i % 64);
      oracle.add_edge(11, i % 64);
    }
  }
  std::string why;
  ASSERT_TRUE(store->check_invariants(&why)) << why;
  expect_matches_oracle(*store, oracle, "dense");
}

TEST(DgapStore, ElogMergeTriggersRecorded) {
  auto pool = make_pool(32);
  DgapOptions o = small_opts();
  o.elog_bytes = 128;  // ~10 entries: quick merges
  auto store = DgapStore::create(*pool, o);
  const auto stream = generate_uniform(64, 5000, 3);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  EXPECT_GT(store->stats().elog_inserts, 0u);
  EXPECT_GT(store->stats().merges, 0u);
  EXPECT_GT(store->elog_fill_at_merge(), 0.0);
  EXPECT_LE(store->elog_fill_at_merge(), 1.0);
}

TEST(DgapStore, CleanShutdownFastReopen) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dgap_shutdown_" + std::to_string(::getpid()) + ".pool"))
          .string();
  std::filesystem::remove(path);
  const auto stream = generate_uniform(64, 3000, 5);
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) oracle.add_edge(e.src, e.dst);
  {
    auto pool = PmemPool::create({.path = path, .size = 64 << 20});
    auto store = DgapStore::create(*pool, small_opts());
    for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
    store->shutdown();
    EXPECT_TRUE(pool->was_clean_shutdown());
  }
  {
    auto pool = PmemPool::open({.path = path});
    auto store = DgapStore::open(*pool, small_opts());
    std::string why;
    ASSERT_TRUE(store->check_invariants(&why)) << why;
    expect_matches_oracle(*store, oracle, "reopen");
    // Keep operating after the reopen.
    store->insert_edge(1, 2);
    const Snapshot snap = store->consistent_view();
    EXPECT_FALSE(snap.neighbors(1).empty());
  }
  std::filesystem::remove(path);
}

TEST(DgapStore, ReopenWithoutShutdownTakesScanPath) {
  // Destroying the store without shutdown() leaves NORMAL_SHUTDOWN unset:
  // the next open must take the crash-recovery scan and still be complete
  // (every insert was persisted before returning).
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dgap_noshutdown_" + std::to_string(::getpid()) + ".pool"))
          .string();
  std::filesystem::remove(path);
  const auto stream = generate_uniform(64, 2000, 6);
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) oracle.add_edge(e.src, e.dst);
  {
    auto pool = PmemPool::create({.path = path, .size = 64 << 20});
    auto store = DgapStore::create(*pool, small_opts());
    for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
    // no shutdown()
  }
  {
    auto pool = PmemPool::open({.path = path});
    EXPECT_FALSE(pool->was_clean_shutdown());
    auto store = DgapStore::open(*pool, small_opts());
    std::string why;
    ASSERT_TRUE(store->check_invariants(&why)) << why;
    expect_matches_oracle(*store, oracle, "scan-reopen");
  }
  std::filesystem::remove(path);
}

// The root magic is the on-media format version: a pool written under a
// previous format must be rejected at open, not misread. "DGAPSTO3" still
// carried the shard-identity fields in DgapRoot; "DGAPSTO4" stored 64-bit
// edge-array slots.
TEST(DgapStore, OpenRejectsPreviousRootMagic) {
  for (const std::uint64_t previous :
       {0x4447'4150'5354'4f33ULL, 0x4447'4150'5354'4f34ULL}) {
    auto pool = make_pool();
    auto store = DgapStore::create(*pool, small_opts());
    store->insert_edge(1, 2);
    store->shutdown();
    store.reset();
    // Control: the current magic reopens.
    EXPECT_NO_THROW((void)DgapStore::open(*pool, small_opts()));

    ASSERT_NE(previous, kDgapMagic);
    pool->store_persist(&pool->at<DgapRoot>(pool->root())->magic, previous);
    EXPECT_THROW((void)DgapStore::open(*pool, small_opts()),
                 std::runtime_error)
        << std::hex << previous;
  }
}

// --- batched ingestion (insert_batch / delete_batch) ------------------------

TEST(DgapStore, BatchEquivalentToPerEdge) {
  // The same stream driven per-edge and in batches (sizes straddling
  // section boundaries and rebalance/resize triggers) must produce
  // identical graphs.
  const auto stream = symmetrize(generate_rmat(200, 6000, 42));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) oracle.add_edge(e.src, e.dst);

  for (const std::size_t batch :
       {std::size_t{3}, std::size_t{64}, std::size_t{257},
        std::size_t{5000}}) {
    auto pool = make_pool(128);
    DgapOptions o = small_opts();
    o.init_vertices = 200;
    auto store = DgapStore::create(*pool, o);
    const auto& edges = stream.edges();
    for (std::size_t i = 0; i < edges.size(); i += batch)
      store->insert_batch(std::span<const Edge>(
          edges.data() + i, std::min(batch, edges.size() - i)));
    std::string why;
    ASSERT_TRUE(store->check_invariants(&why))
        << "batch=" << batch << ": " << why;
    expect_matches_oracle(*store, oracle,
                          "batch=" + std::to_string(batch));
    // The small store must have grown: batches straddled resize triggers.
    EXPECT_GT(store->stats().resizes, 0u) << "batch=" << batch;
    EXPECT_GT(store->stats().rebalances, 0u) << "batch=" << batch;
    EXPECT_GT(store->stats().batch_inserts, 0u) << "batch=" << batch;
  }
}

TEST(DgapStore, BatchMixedNewVertexDuplicateTombstone) {
  auto pool = make_pool(64);
  DgapOptions o = small_opts();
  o.init_vertices = 8;  // most batch vertices are brand-new
  auto store = DgapStore::create(*pool, o);
  AdjGraph oracle(300);
  store->insert_vertex(299);  // ids the stream may not reference

  const auto stream = symmetrize(generate_rmat(300, 3000, 7));
  const auto& edges = stream.edges();
  std::vector<Edge> dels;
  for (std::size_t i = 0; i < edges.size(); i += 100) {
    const std::span<const Edge> chunk(edges.data() + i,
                                      std::min<std::size_t>(100, edges.size() - i));
    store->insert_batch(chunk);
    for (const Edge& e : chunk) oracle.add_edge(e.src, e.dst);
    // Delete every 5th edge of the chunk (duplicates included) in a batch.
    dels.clear();
    for (std::size_t k = 0; k < chunk.size(); k += 5) dels.push_back(chunk[k]);
    store->delete_batch(dels);
    for (const Edge& e : dels) oracle.remove_edge(e.src, e.dst);
    std::string why;
    ASSERT_TRUE(store->check_invariants(&why)) << "chunk " << i << ": " << why;
  }
  expect_matches_oracle(*store, oracle, "mixed-batch");
}

TEST(DgapStore, BatchCountersRecorded) {
  auto pool = make_pool(64);
  auto store = DgapStore::create(*pool, small_opts());
  const auto stream = generate_uniform(64, 4000, 11);
  const auto& edges = stream.edges();
  for (std::size_t i = 0; i < edges.size(); i += 256)
    store->insert_batch(std::span<const Edge>(
        edges.data() + i, std::min<std::size_t>(256, edges.size() - i)));
  const DgapStats& st = store->stats();
  EXPECT_EQ(st.batch_inserts, edges.size());
  EXPECT_GT(st.flush_epochs, 0u);
  // 64 vertices inside batches of 256 guarantee shared-section groups.
  EXPECT_GT(st.locks_saved, 0u);
  // The batch path still uses the normal absorption machinery.
  EXPECT_EQ(st.array_inserts + st.elog_inserts, edges.size());
}

TEST(DgapStore, BatchNoElogAblationFallsBack) {
  auto pool = make_pool(64);
  DgapOptions o = small_opts();
  o.use_elog = false;
  auto store = DgapStore::create(*pool, o);
  const auto stream = generate_uniform(64, 2000, 13);
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) oracle.add_edge(e.src, e.dst);
  store->insert_batch(stream.edges());
  std::string why;
  ASSERT_TRUE(store->check_invariants(&why)) << why;
  expect_matches_oracle(*store, oracle, "no-elog-batch");
}

TEST(DgapStore, BatchRejectsNegativeIds) {
  auto pool = make_pool(8);
  auto store = DgapStore::create(*pool, small_opts());
  const std::vector<Edge> bad = {{1, 2}, {-1, 3}};
  EXPECT_THROW(store->insert_batch(bad), std::invalid_argument);
  store->insert_batch(std::span<const Edge>{});  // empty batch: no-op
  EXPECT_EQ(store->num_edge_slots(), 0u);
}

TEST(DgapStore, MultiThreadedBatchWritersMatchOracle) {
  auto pool = make_pool(128);
  DgapOptions o = small_opts();
  o.init_vertices = 400;
  o.max_writer_threads = 8;
  auto store = DgapStore::create(*pool, o);

  const auto stream = symmetrize(generate_rmat(400, 8000, 19));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) oracle.add_edge(e.src, e.dst);

  constexpr int kThreads = 4;
  constexpr std::size_t kBatch = 128;
  const auto& edges = stream.edges();
  const std::size_t chunks = (edges.size() + kBatch - 1) / kBatch;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t c = static_cast<std::size_t>(t); c < chunks;
           c += kThreads) {
        const std::size_t begin = c * kBatch;
        store->insert_batch(std::span<const Edge>(
            edges.data() + begin,
            std::min(kBatch, edges.size() - begin)));
      }
    });
  }
  for (auto& th : threads) th.join();

  std::string why;
  ASSERT_TRUE(store->check_invariants(&why)) << why;
  expect_matches_oracle(*store, oracle, "mt-batch");
}

TEST(DgapStore, MixedBatchAndPerEdgeWriters) {
  // Batch and per-edge writers racing on the same store must still land
  // every edge exactly once.
  auto pool = make_pool(128);
  DgapOptions o = small_opts();
  o.init_vertices = 300;
  o.max_writer_threads = 8;
  auto store = DgapStore::create(*pool, o);

  const auto stream = symmetrize(generate_rmat(300, 6000, 23));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) oracle.add_edge(e.src, e.dst);
  const auto& edges = stream.edges();
  const std::size_t half = edges.size() / 2;

  std::thread batcher([&] {
    for (std::size_t i = 0; i < half; i += 64)
      store->insert_batch(std::span<const Edge>(
          edges.data() + i, std::min<std::size_t>(64, half - i)));
  });
  for (std::size_t i = half; i < edges.size(); ++i)
    store->insert_edge(edges[i].src, edges[i].dst);
  batcher.join();

  std::string why;
  ASSERT_TRUE(store->check_invariants(&why)) << why;
  expect_matches_oracle(*store, oracle, "mixed-writers");
}

TEST(DgapStore, BatchSurvivesShutdownReopen) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dgap_batch_reopen_" + std::to_string(::getpid()) + ".pool"))
          .string();
  std::filesystem::remove(path);
  const auto stream = generate_uniform(64, 3000, 29);
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) oracle.add_edge(e.src, e.dst);
  {
    auto pool = PmemPool::create({.path = path, .size = 64 << 20});
    auto store = DgapStore::create(*pool, small_opts());
    store->insert_batch(stream.edges());
    store->shutdown();
  }
  {
    auto pool = PmemPool::open({.path = path});
    auto store = DgapStore::open(*pool, small_opts());
    std::string why;
    ASSERT_TRUE(store->check_invariants(&why)) << why;
    expect_matches_oracle(*store, oracle, "batch-reopen");
  }
  std::filesystem::remove(path);
}

TEST(DgapStore, MultiThreadedWritersMatchOracle) {
  auto pool = make_pool(128);
  DgapOptions o = small_opts();
  o.init_vertices = 400;
  o.max_writer_threads = 8;
  auto store = DgapStore::create(*pool, o);

  const auto stream = symmetrize(generate_rmat(400, 8000, 9));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) oracle.add_edge(e.src, e.dst);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < stream.num_edges(); i += kThreads)
        store->insert_edge(stream.edges()[i].src, stream.edges()[i].dst);
    });
  }
  for (auto& th : threads) th.join();

  std::string why;
  ASSERT_TRUE(store->check_invariants(&why)) << why;
  expect_matches_oracle(*store, oracle, "mt");
}

TEST(DgapStore, ConcurrentReadersDuringWrites) {
  auto pool = make_pool(64);
  DgapOptions o = small_opts();
  o.init_vertices = 128;
  auto store = DgapStore::create(*pool, o);
  for (NodeId v = 0; v < 128; ++v) store->insert_edge(v, (v + 1) % 128);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  // Snapshot taken strictly before the writer starts: the frozen view must
  // show exactly one edge per vertex no matter how much the writer below
  // inserts or how many rebalances move the data.
  const Snapshot snap = store->consistent_view();
  std::thread reader([&] {
    // Keep sweeping until the writer is done AND at least one full sweep
    // completed (on oversubscribed hosts the writer can finish first).
    while (!stop || reads.load() == 0) {
      for (NodeId v = 0; v < 128; ++v) {
        std::uint64_t n = 0;
        NodeId got = kInvalidNode;
        snap.for_each_out(v, [&](NodeId d) {
          ++n;
          got = d;
        });
        ASSERT_EQ(n, 1u);  // frozen view: exactly the first edge
        ASSERT_EQ(got, (v + 1) % 128);
      }
      reads.fetch_add(1);
    }
  });
  const auto stream = generate_uniform(128, 20000, 17);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  stop = true;
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

}  // namespace
}  // namespace dgap::core
