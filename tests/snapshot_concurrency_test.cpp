// The epoch-versioned snapshot subsystem's concurrency contracts
// (src/core/snapshot.hpp):
//
//   * a snapshot held across a forced resize_and_rebuild no longer blocks
//     the resize (before the refactor the writer stalled on the reader
//     gate / the test deadlocked), and keeps reading the OLD consistent
//     cut while writers proceed;
//   * retired layout generations are reclaimed exactly when the last
//     snapshot referencing them is destroyed (epoch reclamation);
//   * use-after-close fails fast (std::logic_error) instead of UAF;
//   * lock-free snapshot reads stay exact through a resize/rebalance storm
//     driven from multiple writer threads;
//   * every consistent_view() taken beside a sequential writer is a point-
//     in-time cut across all sources: a prefix of the insert order;
//   * snapshot diffs taken while writers grow a few hubs' edge-log chains
//     (merges and resizes included) equal each newer cut's slot stream
//     past the older cut's degree, and a DeltaMirror advanced by them
//     stays equal to one built from the newer cut.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algorithms/incremental/delta_mirror.hpp"
#include "src/core/dgap_store.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/graph/generators.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

DgapOptions tiny_opts() {
  DgapOptions o;
  o.init_vertices = 64;
  o.init_edges = 512;  // small initial array: resizes come quickly
  return o;
}

std::map<NodeId, std::vector<NodeId>> freeze_contents(const Snapshot& s) {
  std::map<NodeId, std::vector<NodeId>> m;
  for (NodeId v = 0; v < s.num_nodes(); ++v)
    if (s.out_degree(v) > 0) m[v] = s.neighbors(v);
  return m;
}

TEST(SnapshotConcurrency, HeldSnapshotDoesNotBlockForcedResize) {
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  auto store = DgapStore::create(*pool, tiny_opts());
  for (NodeId v = 0; v < 64; ++v) store->insert_edge(v, v + 1000);

  const Snapshot snap = store->consistent_view();
  const auto before = freeze_contents(snap);
  const std::uint64_t resizes_before = store->stats().resizes;

  // Writer floods the store with enough volume (new vertex ids included)
  // to force vertex-table growth and at least one whole-array resize, all
  // while `snap` is alive AND actively being read from another thread.
  // Pre-refactor this deadlocked: growth quiesced the reader gate the
  // snapshot held for its lifetime.
  std::atomic<bool> writer_done{false};
  std::thread reader([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      for (NodeId v = 0; v < 64; ++v) {
        std::uint64_t n = 0;
        snap.for_each_out(v, [&](NodeId) { ++n; });
        ASSERT_EQ(n, 1u);
      }
    }
  });
  const auto stream = generate_uniform(512, 30000, 7);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  store->insert_vertex(5000);  // table growth under the held snapshot
  writer_done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(store->stats().resizes, resizes_before);
  EXPECT_GT(store->num_nodes(), 5000);
  // The held snapshot still reads the old consistent cut.
  EXPECT_EQ(freeze_contents(snap), before);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(SnapshotConcurrency, RetiredLayoutReclaimedWhenLastSnapshotDies) {
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  auto store = DgapStore::create(*pool, tiny_opts());
  store->insert_edge(1, 2);

  std::optional<Snapshot> snap(store->consistent_view());
  const std::uint64_t epoch_before = snap->layout_epoch();

  // Force at least one resize while the snapshot pins its generation.
  const auto stream = generate_uniform(256, 20000, 11);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  ASSERT_GT(store->stats().resizes, 0u);
  ASSERT_GT(store->layout_epoch(), epoch_before);

  // Every pre-resize layout is retired but NOT freed: the snapshot pins
  // the generation it was captured against.
  EXPECT_GT(store->retired_layouts(), 0u);

  // Dropping the last snapshot reclaims every retired layout.
  snap.reset();
  EXPECT_EQ(store->retired_layouts(), 0u);
}

TEST(SnapshotConcurrency, SnapshotAfterStoreCloseFailsFast) {
  auto pool = PmemPool::create({.path = "", .size = 32 << 20});
  auto store = DgapStore::create(*pool, tiny_opts());
  store->insert_edge(3, 4);
  Snapshot snap = store->consistent_view();
  EXPECT_EQ(snap.neighbors(3), (std::vector<NodeId>{4}));

  store.reset();  // snapshot outlives the store

  // Degree metadata is snapshot-local and stays readable...
  EXPECT_EQ(snap.out_degree(3), 1);
  // ...but anything touching store memory throws instead of UAF.
  EXPECT_THROW((void)snap.neighbors(3), std::logic_error);
  EXPECT_THROW(snap.for_each_out(3, [](NodeId) {}), std::logic_error);
  // Destruction after close must not touch the dead store either
  // (release() is a no-op store-side); leaving scope exercises it.
}

TEST(SnapshotConcurrency, EmptySnapshotThrowsOnUse) {
  Snapshot empty;
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_THROW((void)empty.neighbors(0), std::logic_error);
}

TEST(SnapshotConcurrency, LayoutEpochAdvancesAcrossResize) {
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  auto store = DgapStore::create(*pool, tiny_opts());
  store->insert_edge(0, 1);
  const Snapshot s1 = store->consistent_view();
  const auto stream = generate_uniform(256, 20000, 13);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  ASSERT_GT(store->stats().resizes, 0u);
  const Snapshot s2 = store->consistent_view();
  EXPECT_GT(s2.layout_epoch(), s1.layout_epoch());
  EXPECT_NE(s2.capture_seq(), s1.capture_seq());
}

TEST(SnapshotConcurrency, ParallelFrozenReadersThroughResizeStorm) {
  auto pool = PmemPool::create({.path = "", .size = 128 << 20});
  DgapOptions o = tiny_opts();
  o.init_vertices = 128;
  o.max_writer_threads = 8;
  auto store = DgapStore::create(*pool, o);
  for (NodeId v = 0; v < 128; ++v) store->insert_edge(v, (v + 1) % 128);

  const Snapshot snap = store->consistent_view();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sweeps{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load() || sweeps.load() == 0) {
        for (NodeId v = 0; v < 128; ++v) {
          NodeId got = kInvalidNode;
          std::uint64_t n = 0;
          snap.for_each_out(v, [&](NodeId d) {
            ++n;
            got = d;
          });
          ASSERT_EQ(n, 1u);
          ASSERT_EQ(got, (v + 1) % 128);
        }
        sweeps.fetch_add(1);
      }
    });
  }
  // Two writers hammer inserts (growth + rebalances + resizes).
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      const auto stream = generate_uniform(1024, 15000, 100 + w);
      for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(sweeps.load(), 0u);
  EXPECT_GT(store->stats().resizes, 0u);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

// A sequential writer rotates edge i over four sources in different
// sections, so a cut that froze one section's writes before another's
// would show a gap. Every concurrent cut must hold edges 0..k-1 exactly
// (count == max payload + 1), and the writer's rebalances and resizes run
// between the cuts, so the freeze's rebalance_mu_ -> global_mu_ order is
// exercised too.
TEST(SnapshotConcurrency, ConsistentViewIsPointInTimeCutAcrossSources) {
  constexpr NodeId kSources = 4;
  constexpr NodeId kEdges = 3000;
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  DgapOptions o = tiny_opts();
  o.init_vertices = 1024;
  auto store = DgapStore::create(*pool, o);
  std::vector<NodeId> srcs;
  for (NodeId k = 0; k < kSources; ++k) srcs.push_back(k * 256);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (NodeId i = 0; i < kEdges; ++i) {
      store->insert_edge(srcs[static_cast<std::size_t>(i % kSources)], i);
      // Periodic yields guarantee the snapshot loop interleaves even on a
      // loaded single-core host (mid-stream cuts are the point here).
      if ((i & 63) == 0) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t cuts = 0;
  std::uint64_t mid_stream_cuts = 0;
  std::string violation;
  while (violation.empty() && !done.load(std::memory_order_acquire)) {
    const Snapshot snap = store->consistent_view();
    std::uint64_t count = 0;
    NodeId max_dst = -1;
    for (const NodeId s : srcs) {
      snap.for_each_out(s, [&](NodeId d) {
        ++count;
        max_dst = std::max(max_dst, d);
      });
    }
    if (count != static_cast<std::uint64_t>(max_dst + 1)) {
      // Record and break (the writer must be joined before asserting, or
      // a failure would terminate() on the joinable thread).
      violation = "cut is not a prefix: " + std::to_string(count) +
                  " edges but max payload " + std::to_string(max_dst);
      break;
    }
    ++cuts;
    if (count > 0 && count < static_cast<std::uint64_t>(kEdges))
      ++mid_stream_cuts;
  }
  writer.join();
  ASSERT_TRUE(violation.empty()) << violation;
  EXPECT_GT(cuts, 0u);
  // The loop must have observed genuinely concurrent cuts, not just the
  // empty/full states.
  EXPECT_GT(mid_stream_cuts, 0u);

  const Snapshot final_snap = store->consistent_view();
  std::uint64_t total = 0;
  for (const NodeId s : srcs) total += final_snap.neighbors(s).size();
  EXPECT_EQ(total, static_cast<std::uint64_t>(kEdges));
  EXPECT_GT(store->stats().resizes, 0u);
}

// v's frozen slots in `cut` as (dst, tombstone), chronological.
std::vector<std::pair<NodeId, bool>> slot_stream(const Snapshot& cut,
                                                 NodeId v) {
  std::vector<std::pair<NodeId, bool>> out;
  cut.for_each_slot_from(v, 0, [&](NodeId d, bool tomb) {
    out.emplace_back(d, tomb);
  });
  return out;
}

// Empty when `d` is exactly the newer cut's slots past the older cut's
// degree, vertex by vertex; otherwise what differs.
std::string delta_mismatch(const Snapshot& older, const Snapshot& newer,
                           const SnapshotDelta& d) {
  std::map<NodeId, std::map<std::uint32_t, std::pair<NodeId, bool>>> events;
  for (const DeltaEdge& e : d.inserted) events[e.src][e.at] = {e.dst, false};
  for (const DeltaEdge& e : d.deleted) events[e.src][e.at] = {e.dst, true};
  std::size_t i = 0;
  for (NodeId v = 0; v < newer.num_nodes(); ++v) {
    const auto d_old = static_cast<std::uint32_t>(
        v < older.num_nodes() ? older.out_degree(v) : 0);
    const auto d_new = static_cast<std::uint32_t>(newer.out_degree(v));
    const bool listed = i < d.changed.size() && d.changed[i] == v;
    if (listed != (d_new > d_old))
      return "vertex " + std::to_string(v) + " changed-list mismatch";
    if (!listed) continue;
    if (d.changed_old_degree[i++] != d_old)
      return "vertex " + std::to_string(v) + " old degree mismatch";
    const auto stream = slot_stream(newer, v);
    if (stream.size() != d_new)
      return "vertex " + std::to_string(v) + " stream length mismatch";
    const auto& got = events[v];
    if (got.size() != d_new - d_old)
      return "vertex " + std::to_string(v) + " event count mismatch";
    std::uint32_t at = d_old;
    for (const auto& [ord, ev] : got) {
      if (ord != at || ev != stream[at])
        return "vertex " + std::to_string(v) + " event at " +
               std::to_string(ord) + " differs from the cut's slot";
      ++at;
    }
  }
  if (i != d.changed.size()) return "changed lists a vertex past the cut";
  return {};
}

// Empty when the mirrors are observably identical (degrees with tombstone
// slots, surviving neighbors in order).
std::string mirror_mismatch(const algorithms::DeltaMirror& got,
                            const algorithms::DeltaMirror& want) {
  if (got.num_nodes() != want.num_nodes() ||
      got.num_edges_directed() != want.num_edges_directed())
    return "mirror size mismatch";
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    std::vector<NodeId> a;
    std::vector<NodeId> b;
    got.for_each_out(v, [&](NodeId x) { a.push_back(x); });
    want.for_each_out(v, [&](NodeId x) { b.push_back(x); });
    if (got.out_degree(v) != want.out_degree(v) || a != b)
      return "mirror vertex " + std::to_string(v) + " differs";
  }
  return {};
}

// Two writers grow four hubs' edge-log chains (one per edge, one in small
// batches; about a quarter of the slots tombstones) until merges and
// resizes reset them, while this thread cuts, diffs and checks every
// round. The diff walks each hub's chain from a head that writers keep
// moving, and the full-stream reads it is checked against race the same
// appends.
TEST(SnapshotConcurrency, ElogChainDiffsMatchCutsWhileHubsGrow) {
  constexpr NodeId kHubs[] = {1, 9, 17, 40};
  constexpr int kOps = 4000;
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  DgapOptions o = tiny_opts();
  o.segment_slots = 64;
  auto store = DgapStore::create(*pool, o);

  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      std::mt19937 rng(static_cast<unsigned>(500 + w));
      std::vector<Edge> ins;
      std::vector<Edge> del;
      for (int i = 0; i < kOps; ++i) {
        const Edge e{kHubs[rng() % 4], static_cast<NodeId>(rng() % 256)};
        const bool tomb = rng() % 4 == 0;
        if (w == 0) {
          tomb ? store->delete_edge(e.src, e.dst)
               : store->insert_edge(e.src, e.dst);
        } else {
          (tomb ? del : ins).push_back(e);
          if (ins.size() + del.size() >= 16) {
            store->insert_batch(ins);
            store->delete_batch(del);
            ins.clear();
            del.clear();
          }
        }
        if ((i & 63) == 0) std::this_thread::yield();
      }
      store->insert_batch(ins);
      store->delete_batch(del);
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  Snapshot older = store->consistent_view();
  auto mirror = algorithms::DeltaMirror::build(older);
  std::string violation;
  int rounds = 0;
  std::uint64_t elog_reads = 0;
  for (bool last = false; violation.empty() && !last; ++rounds) {
    last = writers_done.load(std::memory_order_acquire) == 2;
    Snapshot newer = store->consistent_view();
    const SnapshotDelta d = snapshot_delta(older, newer);
    elog_reads += d.elog_reads;
    violation = delta_mismatch(older, newer, d);
    if (violation.empty()) {
      mirror.apply(d, newer);
      violation = mirror_mismatch(mirror,
                                  algorithms::DeltaMirror::build(newer));
    }
    if (!violation.empty())
      violation = "round " + std::to_string(rounds) + ": " + violation;
    older = std::move(newer);
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(violation.empty()) << violation;
  EXPECT_GT(rounds, 1);
  EXPECT_GT(elog_reads, 0u);
  EXPECT_GT(store->stats().merges, 0u);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

}  // namespace
}  // namespace dgap::core
