// Correctness of the asynchronous ingestion subsystem (src/ingest):
//   * oracle equivalence of async vs synchronous ingestion, single- and
//     multi-producer,
//   * per-source ordering (deletes submitted after their inserts from the
//     same producer are absorbed after them),
//   * epoch durability: wait_durable(e) implies visibility, drain() implies
//     everything, the destructor drains,
//   * backpressure: bounded queues stall producers instead of growing
//     without bound,
//   * snapshot consistency: a Snapshot taken mid-stream always sees each
//     source's chronological prefix, never a torn batch group.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/common/timer.hpp"
#include "src/core/dgap_store.hpp"
#include "src/graph/adj_graph.hpp"
#include "src/graph/generators.hpp"
#include "src/ingest/async_ingestor.hpp"

namespace dgap::ingest {
namespace {

using core::DgapOptions;
using core::DgapStore;
using core::Snapshot;
using pmem::PmemPool;

DgapOptions small_opts(std::uint32_t writers) {
  DgapOptions o;
  o.init_vertices = 64;
  o.init_edges = 512;
  o.segment_slots = 64;
  o.max_writer_threads = writers + 1;
  return o;
}

// Multiset of all (src, dst) pairs visible in a snapshot.
std::map<std::pair<NodeId, NodeId>, int> snapshot_multiset(
    const DgapStore& store) {
  std::map<std::pair<NodeId, NodeId>, int> got;
  const Snapshot snap = store.consistent_view();
  for (NodeId v = 0; v < snap.num_nodes(); ++v)
    for (const NodeId d : snap.neighbors(v)) got[{v, d}] += 1;
  return got;
}

std::map<std::pair<NodeId, NodeId>, int> oracle_multiset(
    const AdjGraph& oracle) {
  std::map<std::pair<NodeId, NodeId>, int> want;
  for (NodeId v = 0; v < oracle.num_nodes(); ++v)
    for (const NodeId d : oracle.out_neigh(v)) want[{v, d}] += 1;
  return want;
}

struct AsyncFixture : ::testing::Test {
  void make_store(std::uint32_t absorbers) {
    pool = PmemPool::create({.path = "", .size = 64 << 20});
    store = DgapStore::create(*pool, small_opts(absorbers));
  }
  std::unique_ptr<PmemPool> pool;
  std::unique_ptr<DgapStore> store;
};

TEST_F(AsyncFixture, SingleProducerOracleEquivalence) {
  make_store(2);
  const auto stream = symmetrize(generate_rmat(64, 3000, 42));
  AsyncIngestor::Options o;
  o.absorbers = 2;
  o.queues = 4;
  auto ing = make_dgap_ingestor(*store, o);

  const auto& edges = stream.edges();
  constexpr std::size_t kChunk = 97;  // deliberately odd-sized submissions
  for (std::size_t i = 0; i < edges.size(); i += kChunk)
    ing->submit(std::span<const Edge>(
        edges.data() + i, std::min(kChunk, edges.size() - i)));
  const Epoch final_epoch = ing->drain();

  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : edges) oracle.add_edge(e.src, e.dst);
  EXPECT_EQ(snapshot_multiset(*store), oracle_multiset(oracle));

  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;

  const IngestStats s = ing->stats();
  EXPECT_EQ(s.submitted_edges, edges.size());
  EXPECT_EQ(s.absorbed_edges, edges.size());
  EXPECT_EQ(s.durable, final_epoch);
  EXPECT_EQ(s.last_submitted, final_epoch);
  EXPECT_GT(s.absorb_batches, 0u);
}

TEST_F(AsyncFixture, MultiProducerOracleEquivalence) {
  make_store(2);
  const auto stream = symmetrize(generate_rmat(64, 4000, 7));
  AsyncIngestor::Options o;
  o.absorbers = 2;
  auto ing = make_dgap_ingestor(*store, o);

  const auto& edges = stream.edges();
  constexpr int kProducers = 4;
  constexpr std::size_t kChunk = 128;
  const std::size_t chunks = (edges.size() + kChunk - 1) / kChunk;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t c = static_cast<std::size_t>(p); c < chunks;
           c += kProducers) {
        const std::size_t begin = c * kChunk;
        ing->submit(std::span<const Edge>(
            edges.data() + begin, std::min(kChunk, edges.size() - begin)));
      }
    });
  }
  for (auto& t : producers) t.join();
  ing->drain();

  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : edges) oracle.add_edge(e.src, e.dst);
  EXPECT_EQ(snapshot_multiset(*store), oracle_multiset(oracle));
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST_F(AsyncFixture, DeletesFollowInsertsFromSameProducer) {
  make_store(2);
  AsyncIngestor::Options o;
  o.absorbers = 2;
  o.queues = 4;
  auto ing = make_dgap_ingestor(*store, o);

  const auto stream = symmetrize(generate_rmat(64, 2000, 11));
  const auto& edges = stream.edges();
  AdjGraph oracle(stream.num_vertices());
  // One producer alternates inserts with deletions of every 5th prior edge;
  // same source => same staging queue => FIFO absorption, so the delete can
  // never overtake its insert.
  std::vector<Edge> dels;
  constexpr std::size_t kChunk = 64;
  for (std::size_t i = 0; i < edges.size(); i += kChunk) {
    const std::span<const Edge> part(edges.data() + i,
                                     std::min(kChunk, edges.size() - i));
    ing->submit(part);
    for (const Edge& e : part) oracle.add_edge(e.src, e.dst);
    dels.clear();
    for (std::size_t j = 0; j < part.size(); j += 5) dels.push_back(part[j]);
    ing->submit_deletes(dels);
    for (const Edge& e : dels) oracle.remove_edge(e.src, e.dst);
  }
  ing->drain();
  EXPECT_EQ(snapshot_multiset(*store), oracle_multiset(oracle));
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST_F(AsyncFixture, WaitDurableImpliesVisibility) {
  make_store(1);
  AsyncIngestor::Options o;
  o.absorbers = 1;
  auto ing = make_dgap_ingestor(*store, o);

  const auto stream = generate_uniform(64, 1000, 3);
  const auto& edges = stream.edges();
  const std::size_t half = edges.size() / 2;
  const Epoch first =
      ing->submit(std::span<const Edge>(edges.data(), half));
  ing->submit(
      std::span<const Edge>(edges.data() + half, edges.size() - half));

  ing->wait_durable(first);
  EXPECT_GE(ing->durable_epoch(), first);
  // Everything in the first submission must be visible in a snapshot now.
  AdjGraph oracle(stream.num_vertices());
  for (std::size_t i = 0; i < half; ++i)
    oracle.add_edge(edges[i].src, edges[i].dst);
  const auto got = snapshot_multiset(*store);
  for (const auto& [edge, count] : oracle_multiset(oracle)) {
    const auto it = got.find(edge);
    ASSERT_TRUE(it != got.end() && it->second >= count)
        << "durable edge " << edge.first << "->" << edge.second
        << " missing from snapshot";
  }
  ing->drain();
  EXPECT_EQ(ing->durable_epoch(), ing->last_submitted());
}

TEST_F(AsyncFixture, BackpressureBoundsQueues) {
  make_store(1);
  AsyncIngestor::Options o;
  o.absorbers = 1;
  o.queues = 1;
  o.queue_capacity_edges = 256;  // tiny: force stalls
  o.absorb_chunk_edges = 128;
  // Throttled sink: each absorption pass costs ~50us, so the unpaced
  // producer deterministically outruns the queue bound.
  AsyncIngestor ing(
      [&](std::span<const Edge> part, bool tombstone) {
        spin_wait_ns(50'000);
        if (tombstone)
          store->delete_batch(part);
        else
          store->insert_batch(part);
      },
      o);

  const auto stream = symmetrize(generate_rmat(64, 10000, 9));
  const auto& edges = stream.edges();
  for (std::size_t i = 0; i < edges.size(); i += 64)
    ing.submit(std::span<const Edge>(
        edges.data() + i, std::min<std::size_t>(64, edges.size() - i)));
  ing.drain();

  const IngestStats s = ing.stats();
  EXPECT_EQ(s.absorbed_edges, edges.size());
  EXPECT_GT(s.stalls, 0u) << "tiny queue never exerted backpressure";
  EXPECT_LE(s.queue_high_watermark, 256u);

  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : edges) oracle.add_edge(e.src, e.dst);
  EXPECT_EQ(snapshot_multiset(*store), oracle_multiset(oracle));
}

TEST_F(AsyncFixture, DestructorDrainsQueuedEdges) {
  make_store(2);
  const auto stream = symmetrize(generate_rmat(64, 3000, 21));
  const auto& edges = stream.edges();
  {
    AsyncIngestor::Options o;
    o.absorbers = 2;
    auto ing = make_dgap_ingestor(*store, o);
    for (std::size_t i = 0; i < edges.size(); i += 256)
      ing->submit(std::span<const Edge>(
          edges.data() + i, std::min<std::size_t>(256, edges.size() - i)));
    // No drain(): the destructor must absorb everything still staged.
  }
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : edges) oracle.add_edge(e.src, e.dst);
  EXPECT_EQ(snapshot_multiset(*store), oracle_multiset(oracle));
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST_F(AsyncFixture, RejectsNegativeIdsProducerSide) {
  make_store(1);
  AsyncIngestor::Options o;
  o.absorbers = 1;
  auto ing = make_dgap_ingestor(*store, o);
  const std::vector<Edge> bad = {{3, 4}, {-1, 2}};
  EXPECT_THROW(ing->submit(bad), std::invalid_argument);
  // The poisoned batch never reached staging: nothing to absorb.
  EXPECT_EQ(ing->stats().submitted_edges, 0u);
  ing->drain();
}

// An id the store's encoding cannot hold fails on the producer side; it
// must not reach an absorber, where the store's throw would latch the
// ingestor's error and poison every later submission.
TEST_F(AsyncFixture, RejectsIdsAboveEncodingLimitProducerSide) {
  make_store(1);
  AsyncIngestor::Options o;
  o.absorbers = 1;
  auto ing = make_dgap_ingestor(*store, o);
  const std::vector<Edge> bad = {{3, 4}, {5, core::kMaxVertexId + 1}};
  ASSERT_THROW(ing->submit(bad), std::out_of_range);
  ASSERT_THROW(ing->submit_deletes(bad), std::out_of_range);
  ASSERT_EQ(ing->stats().submitted_edges, 0u);

  const std::vector<Edge> good = {{3, 4}, {5, 6}};
  ing->wait_durable(ing->submit(good));
  EXPECT_EQ(ing->stats().submitted_edges, 2u);
  EXPECT_EQ(store->consistent_view().neighbors(3), std::vector<NodeId>{4});
  EXPECT_EQ(store->consistent_view().neighbors(5), std::vector<NodeId>{6});
}

// A Snapshot taken mid-stream must never observe a half-absorbed batch
// group out of order: each source's visible neighbor list is always the
// chronological prefix of what was submitted for it. Sources emit
// monotonically increasing destinations, so any gap or reordering in a
// snapshot is detectable.
TEST_F(AsyncFixture, SnapshotMidStreamSeesChronologicalPrefixes) {
  make_store(2);
  AsyncIngestor::Options o;
  o.absorbers = 2;
  o.queues = 4;
  o.absorb_chunk_edges = 512;
  auto ing = make_dgap_ingestor(*store, o);

  constexpr NodeId kSources = 16;
  constexpr NodeId kPerSource = 400;
  constexpr NodeId kDstBase = 100;

  std::atomic<bool> done{false};
  std::thread producer([&] {
    // Round-robin the sources in batches so absorption interleaves them.
    std::vector<Edge> batch;
    for (NodeId j = 0; j < kPerSource; j += 8) {
      for (NodeId s = 0; s < kSources; ++s) {
        batch.clear();
        for (NodeId k = j; k < std::min<NodeId>(j + 8, kPerSource); ++k)
          batch.push_back({s, kDstBase + k});
        ing->submit(batch);
      }
    }
    done = true;
  });

  int checked = 0;
  while (!done.load() || checked < 3) {
    const Snapshot snap = store->consistent_view();
    for (NodeId s = 0; s < kSources && s < snap.num_nodes(); ++s) {
      const auto neigh = snap.neighbors(s);
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        ASSERT_EQ(neigh[i], kDstBase + static_cast<NodeId>(i))
            << "source " << s << " saw a torn/reordered prefix at " << i;
      }
    }
    ++checked;
  }
  producer.join();
  ing->drain();

  const Snapshot final_snap = store->consistent_view();
  for (NodeId s = 0; s < kSources; ++s)
    EXPECT_EQ(final_snap.out_degree(s), kPerSource);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

// Idle-absorber flush deadline: with a gather threshold far above the
// trickle, the only way the tail epoch closes is the deadline draining the
// partial chunk. wait_durable must therefore return promptly instead of
// hanging until absorb_min_edges accumulate.
TEST_F(AsyncFixture, FlushDeadlineClosesTailEpochsUnderTrickle) {
  make_store(1);
  AsyncIngestor::Options o;
  o.absorbers = 1;
  o.absorb_min_edges = 4096;     // far more than we will ever submit
  o.flush_deadline_us = 2000;    // ... so the deadline must fire
  auto ing = make_dgap_ingestor(*store, o);

  const std::vector<Edge> trickle = {{1, 2}, {3, 4}, {5, 6}};
  Timer t;
  const Epoch e = ing->submit(trickle);
  ing->wait_durable(e);
  // Generous bound: the deadline is 2ms; seconds would mean it never fired.
  EXPECT_LT(t.seconds(), 5.0);
  EXPECT_GE(ing->durable_epoch(), e);

  const Snapshot snap = store->consistent_view();
  EXPECT_EQ(snap.neighbors(1), std::vector<NodeId>{2});
  EXPECT_EQ(snap.neighbors(3), std::vector<NodeId>{4});
  EXPECT_EQ(snap.neighbors(5), std::vector<NodeId>{6});

  // Steady trickle keeps closing epochs too (every submit restarts the
  // deadline, never an unbounded wait).
  for (NodeId i = 0; i < 8; ++i) {
    const std::vector<Edge> one = {{7, 10 + i}};
    ing->wait_durable(ing->submit(one));
  }
  EXPECT_EQ(store->consistent_view().out_degree(7), 8);
}

// The flush deadline is per queue: a sub-threshold queue must drain on
// time even while its absorber is kept continuously busy (and continuously
// signaled) by a flooded sibling queue. A global idle-only deadline would
// starve the trickle queue here and this wait_durable would never return.
TEST_F(AsyncFixture, FlushDeadlineNotStarvedByBusySiblingQueues) {
  make_store(1);
  AsyncIngestor::Options o;
  o.absorbers = 1;
  o.queues = 2;
  o.absorb_min_edges = 1 << 14;
  o.flush_deadline_us = 1500;
  o.route_block = 1;  // queue = src % 2
  auto ing = make_dgap_ingestor(*store, o);

  // Queue 1: a tiny trickle far below the gather threshold.
  const std::vector<Edge> trickle = {{1, 5}, {3, 6}};  // odd srcs
  const Epoch e = ing->submit(trickle);

  // Queue 0: flood until the trickle epoch is durable — if it never
  // becomes durable, this test hangs, which is the regression signal.
  std::atomic<bool> stop{false};
  std::thread flooder([&] {
    std::vector<Edge> burst(512);
    NodeId round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < burst.size(); ++i)
        burst[i] = {static_cast<NodeId>((i * 2) % 64), round % 64};
      ++round;
      ing->submit(burst);
    }
  });
  ing->wait_durable(e);
  stop.store(true, std::memory_order_release);
  flooder.join();
  ing->drain();
  EXPECT_GE(ing->durable_epoch(), e);
  EXPECT_EQ(store->consistent_view().neighbors(1), std::vector<NodeId>{5});
}

// A gather threshold with no deadline to bound it would hang trickle
// ingest forever: rejected at construction.
TEST(AsyncIngestorApi, GatherThresholdRequiresDeadline) {
  auto noop = [](std::span<const Edge>, bool) {};
  AsyncIngestor::Options o;
  o.absorb_min_edges = 512;
  o.flush_deadline_us = 0;
  EXPECT_THROW(AsyncIngestor(noop, o), std::invalid_argument);
}

TEST(AsyncIngestorApi, ValidatesOptions) {
  auto noop = [](std::span<const Edge>, bool) {};
  AsyncIngestor::Options bad;
  bad.absorbers = 0;
  EXPECT_THROW(AsyncIngestor(noop, bad), std::invalid_argument);
  AsyncIngestor::Options bad2;
  bad2.queue_capacity_edges = 0;
  EXPECT_THROW(AsyncIngestor(noop, bad2), std::invalid_argument);
  EXPECT_THROW(AsyncIngestor(nullptr, AsyncIngestor::Options{}),
               std::invalid_argument);
}

// Regression (absorb-chunk bound): one staged item can be larger than
// absorb_chunk_edges (items are bounded by the queue capacity), and the
// drain loop used to check the bound BEFORE adding the next item — a sink
// call could exceed the configured chunk by almost a full queue-capacity
// item. The boundary item must be split (or stopped before) so the bound
// holds for every sink invocation.
TEST(AsyncIngestorApi, SinkBatchesNeverExceedAbsorbChunk) {
  AsyncIngestor::Options o;
  o.absorbers = 1;
  o.absorb_chunk_edges = 64;
  o.queue_capacity_edges = 4096;
  std::mutex mu;
  std::vector<std::vector<Edge>> calls;
  {
    AsyncIngestor ing(
        [&](std::span<const Edge> edges, bool) {
          std::lock_guard<std::mutex> g(mu);
          calls.emplace_back(edges.begin(), edges.end());
        },
        o);
    std::vector<Edge> edges(1000);
    for (std::size_t i = 0; i < edges.size(); ++i)
      edges[i] = {static_cast<NodeId>(i % 50), static_cast<NodeId>(i)};
    const Epoch e = ing.submit(edges);
    // Durability of the split submission: every piece must retire before
    // the epoch closes.
    ing.wait_durable(e);
  }
  std::size_t total = 0;
  std::vector<Edge> flat;
  for (const auto& call : calls) {
    EXPECT_LE(call.size(), o.absorb_chunk_edges)
        << "sink saw a batch larger than absorb_chunk_edges";
    total += call.size();
    flat.insert(flat.end(), call.begin(), call.end());
  }
  EXPECT_EQ(total, 1000u);
  // Single queue, single submission: splitting must preserve order.
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_EQ(flat[i].dst, static_cast<NodeId>(i));
}

// Regression (stats under backpressure): submitted_edges/submit_calls used
// to be bumped only after every push_item returned, so a stats() poll
// while the producer was blocked on a full queue undercounted the accepted
// work — exactly what streaming_analytics polls to decide whether more
// edges are coming. Accounting now happens at ticket registration.
TEST(AsyncIngestorApi, StatsSeeSubmissionDuringBackpressure) {
  AsyncIngestor::Options o;
  o.absorbers = 1;
  o.queue_capacity_edges = 8;
  o.absorb_chunk_edges = 8;
  std::promise<void> gate;
  std::shared_future<void> released = gate.get_future().share();
  AsyncIngestor ing(
      [released](std::span<const Edge>, bool) { released.wait(); }, o);

  std::vector<Edge> edges(100);
  for (std::size_t i = 0; i < edges.size(); ++i)
    edges[i] = {1, static_cast<NodeId>(i)};
  std::thread producer([&] { ing.submit(edges); });

  // The producer is stuck: the sink is gated shut and the queue holds at
  // most 8 edges. The full 100-edge submission must still become visible
  // to stats() while the producer blocks.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  IngestStats s;
  do {
    s = ing.stats();
    if (s.submitted_edges >= edges.size()) break;
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(s.submitted_edges, edges.size())
      << "stats() undercounts accepted work while the producer is stalled";
  EXPECT_EQ(s.submit_calls, 1u);

  gate.set_value();
  producer.join();
  ing.drain();
  EXPECT_EQ(ing.stats().absorbed_edges, edges.size());
}

// Arrival-rate absorb autotuning: under a trickle the effective gather
// threshold stays near zero (immediate drains); under a flood it converges
// to the full absorb chunk (maximum batch-path savings); and when the
// flood subsides it decays back down.
TEST(AsyncIngestorApi, AutotuneConvergesBetweenTrickleAndFlood) {
  AsyncIngestor::Options o;
  o.absorbers = 1;
  o.absorb_chunk_edges = 1024;
  o.queue_capacity_edges = 1 << 16;
  o.autotune = true;
  o.flush_deadline_us = 20000;  // 20 ms window
  std::atomic<std::uint64_t> sunk{0};
  AsyncIngestor ing(
      [&](std::span<const Edge> e, bool) { sunk += e.size(); }, o);

  // Trickle: one edge every ~2 ms is a few hundred edges/second — far
  // below what fills a chunk within the deadline window.
  for (int i = 0; i < 20; ++i) {
    const std::vector<Edge> one = {{1, static_cast<NodeId>(i)}};
    ing.submit(one);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_LT(ing.stats().absorb_min_effective, o.absorb_chunk_edges / 4)
      << "trickle must not be deadline-paced behind a large threshold";

  // Flood: tight-loop bursts push the EWMA rate far past
  // chunk / deadline, so the threshold must converge to the full chunk.
  std::vector<Edge> burst(512);
  for (std::size_t i = 0; i < burst.size(); ++i)
    burst[i] = {static_cast<NodeId>(i % 64), static_cast<NodeId>(i)};
  std::uint64_t peak = 0;
  const auto flood_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (peak < o.absorb_chunk_edges &&
         std::chrono::steady_clock::now() < flood_deadline) {
    ing.submit(burst);
    peak = std::max(peak, ing.stats().absorb_min_effective);
  }
  EXPECT_EQ(peak, o.absorb_chunk_edges)
      << "flood never converged the gather threshold to the chunk";

  // Back to trickle: the threshold must fall again (each slow arrival
  // decays the EWMA), so post-flood trickle is not deadline-paced forever.
  std::uint64_t low = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < 400 && low > 64; ++i) {
    const std::vector<Edge> one = {{2, static_cast<NodeId>(i)}};
    ing.submit(one);
    low = std::min(low, ing.stats().absorb_min_effective);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_LE(low, 64u) << "threshold never decayed after the flood ended";

  ing.drain();
  const IngestStats s = ing.stats();
  EXPECT_EQ(sunk.load(), s.submitted_edges);
  EXPECT_EQ(s.absorbed_edges, s.submitted_edges);
}

// Autotune rides the normal absorption machinery: oracle equivalence and
// full durability are unchanged.
TEST_F(AsyncFixture, AutotuneOracleEquivalence) {
  make_store(2);
  const auto stream = symmetrize(generate_rmat(64, 3000, 21));
  AsyncIngestor::Options o;
  o.absorbers = 2;
  o.queues = 4;
  o.autotune = true;
  o.flush_deadline_us = 500;
  auto ing = make_dgap_ingestor(*store, o);

  const auto& edges = stream.edges();
  for (std::size_t i = 0; i < edges.size(); i += 100)
    ing->submit(std::span<const Edge>(
        edges.data() + i, std::min<std::size_t>(100, edges.size() - i)));
  ing->drain();

  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : edges) oracle.add_edge(e.src, e.dst);
  EXPECT_EQ(snapshot_multiset(*store), oracle_multiset(oracle));
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
  EXPECT_EQ(ing->stats().absorbed_edges, edges.size());
}

// Autotune needs the flush deadline as its rate window and latency bound.
TEST(AsyncIngestorApi, AutotuneRequiresDeadline) {
  auto noop = [](std::span<const Edge>, bool) {};
  AsyncIngestor::Options o;
  o.autotune = true;
  o.flush_deadline_us = 0;
  EXPECT_THROW(AsyncIngestor(noop, o), std::invalid_argument);
}

TEST(AsyncIngestorApi, SinkFailurePropagatesToWaiters) {
  AsyncIngestor::Options o;
  o.absorbers = 1;
  AsyncIngestor ing(
      [](std::span<const Edge>, bool) {
        throw std::runtime_error("sink exploded");
      },
      o);
  const std::vector<Edge> edges = {{1, 2}, {3, 4}};
  const Epoch e = ing.submit(edges);
  EXPECT_THROW(ing.wait_durable(e), std::runtime_error);
  // The failure is visible to pollers and the durable epoch never covers
  // the dropped submission.
  const IngestStats s = ing.stats();
  EXPECT_TRUE(s.failed);
  EXPECT_LT(s.durable, e);
}

}  // namespace
}  // namespace dgap::ingest
