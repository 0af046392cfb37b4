// Crash-consistency tests for DGAP (paper §3.1.4 / §3.1.5 / Fig 4).
//
// Strategy: run workloads on a shadow-mode pool where only explicitly
// persisted cache lines survive, fire a deterministic crash at the Nth
// flush (before that flush lands), revert to the durable image, recover via
// DgapStore::open, and verify:
//   * structural invariants hold,
//   * every acknowledged insert survived,
//   * at most the single in-flight insert appears beyond the acknowledged
//     prefix.
// The crash point sweeps across a workload that includes edge-log appends,
// merges, multi-chunk run moves and array resizes, so every state of the
// undo-log protocol gets interrupted somewhere in the sweep.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <span>
#include <string>

#include "src/core/dgap_store.hpp"
#include "src/graph/adj_graph.hpp"
#include "src/graph/generators.hpp"
#include "src/ingest/async_ingestor.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

DgapOptions crash_opts() {
  DgapOptions o;
  o.init_vertices = 48;
  o.init_edges = 128;
  o.segment_slots = 32;
  o.elog_bytes = 144;  // 12 entries: constant merging
  o.ulog_bytes = 256;  // 32-slot chunks: multi-chunk moves
  o.max_writer_threads = 2;
  return o;
}

// Count multiset difference got - want; returns the extra edges.
std::map<std::pair<NodeId, NodeId>, int> multiset_extra(
    const DgapStore& store, const AdjGraph& oracle) {
  std::map<std::pair<NodeId, NodeId>, int> diff;
  const Snapshot snap = store.consistent_view();
  for (NodeId v = 0; v < oracle.num_nodes(); ++v) {
    for (const NodeId d : snap.neighbors(v)) diff[{v, d}] += 1;
    for (const NodeId d : oracle.out_neigh(v)) diff[{v, d}] -= 1;
  }
  std::erase_if(diff, [](const auto& kv) { return kv.second == 0; });
  return diff;
}

struct CrashOutcome {
  std::size_t acked = 0;
  bool crashed = false;
};

// Run the insert workload until the armed crash fires (or completes).
CrashOutcome run_until_crash(DgapStore& store,
                             const std::vector<Edge>& edges) {
  CrashOutcome out;
  try {
    for (const Edge& e : edges) {
      store.insert_edge(e.src, e.dst);
      ++out.acked;
    }
  } catch (const PmemPool::CrashInjected&) {
    out.crashed = true;
  }
  return out;
}

class CrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, RecoversToAcknowledgedPrefix) {
  // Sweep resolution: each test instance covers a band of crash points.
  const int band = GetParam();
  const auto stream = symmetrize(generate_rmat(48, 1500, 1234));
  const auto& edges = stream.edges();

  for (int offset = 0; offset < 10; ++offset) {
    const std::uint64_t crash_at =
        static_cast<std::uint64_t>(band) * 1000 + offset * 97;
    auto pool =
        PmemPool::create({.path = "", .size = 8 << 20, .shadow = true});
    auto store = DgapStore::create(*pool, crash_opts());
    pool->arm_crash_after(crash_at);
    const CrashOutcome out = run_until_crash(*store, edges);
    pool->disarm_crash();
    if (!out.crashed) {
      // Workload finished before the crash point: verify and stop — later
      // bands would not crash either.
      std::string why;
      ASSERT_TRUE(store->check_invariants(&why)) << why;
      return;
    }

    // The in-flight insert (not acknowledged) may or may not have reached
    // PM; anything before it must have.
    AdjGraph oracle(stream.num_vertices());
    for (std::size_t i = 0; i < out.acked; ++i)
      oracle.add_edge(edges[i].src, edges[i].dst);
    const Edge inflight = out.acked < edges.size()
                              ? edges[out.acked]
                              : Edge{kInvalidNode, kInvalidNode};

    store.reset();           // discard wrecked volatile state
    pool->simulate_crash();  // drop every unpersisted line
    auto recovered = DgapStore::open(*pool, crash_opts());

    std::string why;
    ASSERT_TRUE(recovered->check_invariants(&why))
        << why << " (crash_at=" << crash_at << ")";
    const auto extra = multiset_extra(*recovered, oracle);
    for (const auto& [edge, count] : extra) {
      ASSERT_GT(count, 0) << "lost edge " << edge.first << "->"
                          << edge.second << " (crash_at=" << crash_at << ")";
      ASSERT_EQ(count, 1) << "duplicated edge (crash_at=" << crash_at << ")";
      ASSERT_TRUE(edge.first == inflight.src && edge.second == inflight.dst)
          << "unexpected extra edge " << edge.first << "->" << edge.second
          << " (crash_at=" << crash_at << ")";
    }
    ASSERT_LE(extra.size(), 1u) << "crash_at=" << crash_at;

    // The recovered store must keep working.
    recovered->insert_edge(1, 2);
    ASSERT_TRUE(recovered->check_invariants(&why)) << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, CrashSweep, ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Band" + std::to_string(info.param);
                         });

TEST(DgapCrash, CrashDuringDeleteWorkload) {
  const auto base = symmetrize(generate_rmat(48, 800, 77));
  auto pool =
      PmemPool::create({.path = "", .size = 8 << 20, .shadow = true});
  auto store = DgapStore::create(*pool, crash_opts());
  AdjGraph oracle(base.num_vertices());

  std::size_t acked = 0;
  pool->arm_crash_after(1200);
  bool crashed = false;
  try {
    for (const Edge& e : base.edges()) {
      store->insert_edge(e.src, e.dst);
      oracle.add_edge(e.src, e.dst);
      ++acked;
      if (acked % 7 == 0) {
        store->delete_edge(e.src, e.dst);
        oracle.remove_edge(e.src, e.dst);
      }
    }
  } catch (const PmemPool::CrashInjected&) {
    crashed = true;
    // Roll the oracle back to the acknowledged prefix: rebuild exactly.
    oracle = AdjGraph(base.num_vertices());
    for (std::size_t i = 0; i < acked; ++i) {
      oracle.add_edge(base.edges()[i].src, base.edges()[i].dst);
      if ((i + 1) % 7 == 0)
        oracle.remove_edge(base.edges()[i].src, base.edges()[i].dst);
    }
  }
  ASSERT_TRUE(crashed) << "crash point not reached; enlarge workload";
  pool->disarm_crash();
  store.reset();
  pool->simulate_crash();
  auto recovered = DgapStore::open(*pool, crash_opts());
  std::string why;
  ASSERT_TRUE(recovered->check_invariants(&why)) << why;
  // The in-flight op may add one edge OR one tombstone; allow one unit of
  // slack in either direction on the affected pair only.
  const auto extra = multiset_extra(*recovered, oracle);
  ASSERT_LE(extra.size(), 1u);
}

TEST(DgapCrash, RepeatedCrashesOnSameStore) {
  // Crash, recover, keep inserting, crash again — recovery must be
  // re-entrant across generations.
  const auto stream = symmetrize(generate_rmat(48, 1200, 5));
  const auto& edges = stream.edges();
  auto pool =
      PmemPool::create({.path = "", .size = 8 << 20, .shadow = true});
  auto store = DgapStore::create(*pool, crash_opts());
  AdjGraph oracle(stream.num_vertices());
  std::size_t next = 0;

  for (int gen = 0; gen < 4; ++gen) {
    pool->arm_crash_after(1500 + gen * 911);
    bool crashed = false;
    try {
      for (; next < edges.size(); ++next) {
        store->insert_edge(edges[next].src, edges[next].dst);
        oracle.add_edge(edges[next].src, edges[next].dst);
      }
    } catch (const PmemPool::CrashInjected&) {
      crashed = true;
    }
    pool->disarm_crash();
    if (!crashed) break;
    store.reset();
    pool->simulate_crash();
    store = DgapStore::open(*pool, crash_opts());
    std::string why;
    ASSERT_TRUE(store->check_invariants(&why)) << why << " gen " << gen;
    const auto extra = multiset_extra(*store, oracle);
    // Only the single in-flight edge may be extra; nothing may be missing.
    for (const auto& [edge, count] : extra) {
      ASSERT_EQ(count, 1);
      ASSERT_TRUE(edge.first == edges[next].src &&
                  edge.second == edges[next].dst);
      // Account for it so the oracle matches the store going forward.
      oracle.add_edge(edge.first, edge.second);
    }
    ++next;  // skip the in-flight edge: it may already be present
  }

  std::string why;
  ASSERT_TRUE(store->check_invariants(&why)) << why;
}

struct AblationCrashParam {
  const char* name;
  bool use_elog;
  bool use_ulog;
};

class AblationCrashSweep
    : public ::testing::TestWithParam<AblationCrashParam> {};

// The ablation variants must be crash-consistent too: "No EL" protects
// nearby shifts with the undo log; "No EL&UL" protects rebalances with
// PMDK-style transactions whose journal is rolled back on open().
TEST_P(AblationCrashSweep, RecoversAcknowledgedEdges) {
  const auto& param = GetParam();
  const auto stream = symmetrize(generate_rmat(48, 1200, 2024));
  const auto& edges = stream.edges();
  for (const std::uint64_t crash_at : {400u, 1100u, 2600u, 5100u, 9900u}) {
    auto pool =
        PmemPool::create({.path = "", .size = 16 << 20, .shadow = true});
    DgapOptions o = crash_opts();
    o.use_elog = param.use_elog;
    o.use_ulog = param.use_ulog;
    auto store = DgapStore::create(*pool, o);
    pool->arm_crash_after(crash_at);
    const CrashOutcome out = run_until_crash(*store, edges);
    pool->disarm_crash();
    if (!out.crashed) return;  // later crash points will not fire either

    AdjGraph oracle(stream.num_vertices());
    for (std::size_t i = 0; i < out.acked; ++i)
      oracle.add_edge(edges[i].src, edges[i].dst);

    store.reset();
    pool->simulate_crash();
    auto recovered = DgapStore::open(*pool, o);
    std::string why;
    ASSERT_TRUE(recovered->check_invariants(&why))
        << param.name << " crash_at=" << crash_at << ": " << why;
    const auto extra = multiset_extra(*recovered, oracle);
    for (const auto& [edge, count] : extra) {
      ASSERT_EQ(count, 1) << param.name << " crash_at=" << crash_at;
      ASSERT_TRUE(out.acked < edges.size() &&
                  edge.first == edges[out.acked].src &&
                  edge.second == edges[out.acked].dst)
          << param.name << ": unexpected edge " << edge.first << "->"
          << edge.second;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AblationCrashSweep,
    ::testing::Values(AblationCrashParam{"no_elog", false, true},
                      AblationCrashParam{"no_elog_no_ulog", false, false}),
    [](const ::testing::TestParamInfo<AblationCrashParam>& info) {
      return info.param.name;
    });

// --- cold-tier crash consistency --------------------------------------------
//
// The SSD cold tier's commit point is the persisted residency-word flip
// (cold_ops.cpp). Sweeping crashes across a workload that interleaves
// inserts with forced demote-all passes interrupts every phase of the
// protocol: mid-file-write (word still resident, pmem authoritative —
// the torn image is ignored), between word-persist and page release, and
// mid-promotion (word still cold, the durable file image re-serves). After
// recovery the acknowledged prefix must be intact and every still-cold
// section must serve from its file image.
class ColdTierCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(ColdTierCrashSweep, RecoversResidencyAndAcknowledgedPrefix) {
  const int band = GetParam();
  const auto stream = symmetrize(generate_rmat(48, 1500, 909));
  const auto& edges = stream.edges();
  const std::string cold_path =
      "/tmp/dgap_cold_crash_" + std::to_string(::getpid()) + "_" +
      std::to_string(band);

  DgapOptions o = crash_opts();
  o.cold_tier = true;
  o.cold_tier_path = cold_path;

  for (int offset = 0; offset < 5; ++offset) {
    std::filesystem::remove(cold_path);
    const std::uint64_t crash_at =
        static_cast<std::uint64_t>(band) * 1400 + offset * 211;
    auto pool =
        PmemPool::create({.path = "", .size = 8 << 20, .shadow = true});
    auto store = DgapStore::create(*pool, o);
    pool->arm_crash_after(crash_at);
    CrashOutcome out;
    try {
      for (const Edge& e : edges) {
        store->insert_edge(e.src, e.dst);
        ++out.acked;
        // Every 300 acks, shove everything demotable to the SSD so the
        // following inserts promote it back — both protocol directions
        // stay in the crash blast radius for the whole sweep.
        if (out.acked % 300 == 0) store->debug_cold_demote_all();
      }
    } catch (const PmemPool::CrashInjected&) {
      out.crashed = true;
    }
    pool->disarm_crash();
    if (!out.crashed) {
      std::string why;
      ASSERT_TRUE(store->check_invariants(&why)) << why;
      store.reset();
      std::filesystem::remove(cold_path);
      return;  // later bands would not crash either
    }

    AdjGraph oracle(stream.num_vertices());
    for (std::size_t i = 0; i < out.acked; ++i)
      oracle.add_edge(edges[i].src, edges[i].dst);
    const Edge inflight = out.acked < edges.size()
                              ? edges[out.acked]
                              : Edge{kInvalidNode, kInvalidNode};

    store.reset();
    pool->simulate_crash();
    auto recovered = DgapStore::open(*pool, o);

    std::string why;
    ASSERT_TRUE(recovered->check_invariants(&why))
        << why << " (crash_at=" << crash_at << ")";
    const auto extra = multiset_extra(*recovered, oracle);
    for (const auto& [edge, count] : extra) {
      ASSERT_GT(count, 0) << "lost edge " << edge.first << "->"
                          << edge.second << " (crash_at=" << crash_at << ")";
      ASSERT_EQ(count, 1) << "duplicated edge (crash_at=" << crash_at << ")";
      ASSERT_TRUE(edge.first == inflight.src && edge.second == inflight.dst)
          << "unexpected extra edge " << edge.first << "->" << edge.second
          << " (crash_at=" << crash_at << ")";
    }
    ASSERT_LE(extra.size(), 1u) << "crash_at=" << crash_at;

    // The recovered store keeps working across residency states.
    recovered->insert_edge(1, 2);
    recovered->debug_cold_promote_all();
    ASSERT_TRUE(recovered->check_invariants(&why)) << why;
    recovered.reset();
    std::filesystem::remove(cold_path);
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, ColdTierCrashSweep, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Band" + std::to_string(info.param);
                         });

// --- batched ingestion crash consistency ------------------------------------
//
// Durability of insert_batch is acknowledged per batch: after the call
// returns every edge in it must survive a crash; a crash mid-batch may keep
// any subset of the in-flight batch (each vertex keeps a chronological
// prefix of its share), never a torn edge and never a duplicate.
class BatchCrashSweep : public ::testing::TestWithParam<int> {};

// Shared body, parameterized on store options so the DRAM hot-tier variant
// (write-through cache on) runs the identical sweep: the cache is volatile
// and must change NOTHING about what survives a crash, and the
// post-recovery oracle check reads through a fresh cache, so a stale or
// torn frame would surface as a multiset difference.
void run_batch_crash_sweep(int band, const DgapOptions& store_opts) {
  constexpr std::size_t kBatch = 64;
  const auto stream = symmetrize(generate_rmat(48, 1500, 4321));
  const auto& edges = stream.edges();

  for (int offset = 0; offset < 6; ++offset) {
    const std::uint64_t crash_at =
        static_cast<std::uint64_t>(band) * 1200 + offset * 151;
    auto pool =
        PmemPool::create({.path = "", .size = 8 << 20, .shadow = true});
    auto store = DgapStore::create(*pool, store_opts);
    pool->arm_crash_after(crash_at);

    std::size_t acked = 0;  // edges in fully acknowledged batches
    std::size_t inflight_begin = 0;
    std::size_t inflight_end = 0;
    bool crashed = false;
    try {
      for (std::size_t i = 0; i < edges.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, edges.size() - i);
        inflight_begin = i;
        inflight_end = i + n;
        store->insert_batch(std::span<const Edge>(edges.data() + i, n));
        acked = i + n;
      }
    } catch (const PmemPool::CrashInjected&) {
      crashed = true;
    }
    pool->disarm_crash();
    if (!crashed) {
      std::string why;
      ASSERT_TRUE(store->check_invariants(&why)) << why;
      return;  // later bands would not crash either
    }

    AdjGraph oracle(stream.num_vertices());
    for (std::size_t i = 0; i < acked; ++i)
      oracle.add_edge(edges[i].src, edges[i].dst);
    // Multiset of the in-flight batch: the only edges allowed to be extra.
    std::map<std::pair<NodeId, NodeId>, int> inflight;
    for (std::size_t i = inflight_begin; i < inflight_end; ++i)
      inflight[{edges[i].src, edges[i].dst}] += 1;

    store.reset();
    pool->simulate_crash();
    auto recovered = DgapStore::open(*pool, store_opts);

    std::string why;
    ASSERT_TRUE(recovered->check_invariants(&why))
        << why << " (crash_at=" << crash_at << ")";
    const auto extra = multiset_extra(*recovered, oracle);
    for (const auto& [edge, count] : extra) {
      ASSERT_GT(count, 0) << "lost acknowledged edge " << edge.first << "->"
                          << edge.second << " (crash_at=" << crash_at << ")";
      const auto it = inflight.find(edge);
      ASSERT_TRUE(it != inflight.end() && count <= it->second)
          << "extra edge " << edge.first << "->" << edge.second
          << " x" << count << " not from the in-flight batch (crash_at="
          << crash_at << ")";
    }

    // The recovered store must keep working, batched included.
    recovered->insert_batch(std::span<const Edge>(edges.data(), 32));
    ASSERT_TRUE(recovered->check_invariants(&why)) << why;
  }
}

TEST_P(BatchCrashSweep, RecoversToAcknowledgedBatches) {
  run_batch_crash_sweep(GetParam(), crash_opts());
}

INSTANTIATE_TEST_SUITE_P(Bands, BatchCrashSweep, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Band" + std::to_string(info.param);
                         });

// DRAM hot tier on: a deliberately tiny budget keeps eviction churning
// through the whole sweep.
DgapOptions cached_crash_opts() {
  DgapOptions o = crash_opts();
  o.dram_cache_bytes = 4 << 10;  // 16 frames over 256-byte sections
  return o;
}

class CachedBatchCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CachedBatchCrashSweep, RecoversToAcknowledgedBatches) {
  run_batch_crash_sweep(GetParam(), cached_crash_opts());
}

INSTANTIATE_TEST_SUITE_P(Bands, CachedBatchCrashSweep,
                         ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Band" + std::to_string(info.param);
                         });

// --- delete_batch crash consistency -----------------------------------------
//
// Mirror of BatchCrashSweep for the deletion path: the workload alternates
// insert_batch with delete_batch calls that tombstone a slice of the
// previously acknowledged batch. A crash mid-call may apply any per-vertex
// chronological prefix of the in-flight batch — for a delete batch that
// means some of its tombstones landed (edges missing vs the acked oracle)
// — but never anything outside the in-flight call and never a lost
// acknowledged edge.
class DeleteBatchCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeleteBatchCrashSweep, RecoversToAcknowledgedBatches) {
  const int band = GetParam();
  constexpr std::size_t kBatch = 64;
  const auto stream = symmetrize(generate_rmat(48, 1500, 8888));
  const auto& edges = stream.edges();

  for (int offset = 0; offset < 6; ++offset) {
    const std::uint64_t crash_at =
        static_cast<std::uint64_t>(band) * 1200 + offset * 173;
    auto pool =
        PmemPool::create({.path = "", .size = 8 << 20, .shadow = true});
    auto store = DgapStore::create(*pool, crash_opts());
    pool->arm_crash_after(crash_at);

    // Acknowledged state is replayed into the oracle batch by batch; the
    // in-flight call's multiset and mode are kept for the post-crash check.
    AdjGraph oracle(stream.num_vertices());
    std::map<std::pair<NodeId, NodeId>, int> inflight;
    bool inflight_is_delete = false;
    bool crashed = false;
    try {
      for (std::size_t i = 0; i < edges.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, edges.size() - i);
        const std::span<const Edge> batch(edges.data() + i, n);

        inflight.clear();
        inflight_is_delete = false;
        for (const Edge& e : batch) inflight[{e.src, e.dst}] += 1;
        store->insert_batch(batch);
        for (const Edge& e : batch) oracle.add_edge(e.src, e.dst);

        // Tombstone every 3rd edge of the batch just acknowledged.
        std::vector<Edge> dels;
        for (std::size_t j = 0; j < n; j += 3) dels.push_back(batch[j]);
        inflight.clear();
        inflight_is_delete = true;
        for (const Edge& e : dels) inflight[{e.src, e.dst}] += 1;
        store->delete_batch(dels);
        for (const Edge& e : dels) oracle.remove_edge(e.src, e.dst);
      }
    } catch (const PmemPool::CrashInjected&) {
      crashed = true;
    }
    pool->disarm_crash();
    if (!crashed) {
      std::string why;
      ASSERT_TRUE(store->check_invariants(&why)) << why;
      return;  // later bands would not crash either
    }

    store.reset();
    pool->simulate_crash();
    auto recovered = DgapStore::open(*pool, crash_opts());

    std::string why;
    ASSERT_TRUE(recovered->check_invariants(&why))
        << why << " (crash_at=" << crash_at << ")";
    const auto extra = multiset_extra(*recovered, oracle);
    for (const auto& [edge, count] : extra) {
      const auto it = inflight.find(edge);
      if (count > 0) {
        // Extra edges can only come from an in-flight insert batch.
        ASSERT_TRUE(!inflight_is_delete && it != inflight.end() &&
                    count <= it->second)
            << "extra edge " << edge.first << "->" << edge.second << " x"
            << count << " not from the in-flight batch (crash_at="
            << crash_at << ")";
      } else {
        // Missing edges can only come from in-flight tombstones landing.
        ASSERT_TRUE(inflight_is_delete && it != inflight.end() &&
                    -count <= it->second)
            << "lost acknowledged edge " << edge.first << "->" << edge.second
            << " x" << -count << " (crash_at=" << crash_at << ")";
      }
    }

    // The recovered store must keep working, both batch modes included.
    recovered->insert_batch(std::span<const Edge>(edges.data(), 32));
    recovered->delete_batch(std::span<const Edge>(edges.data(), 8));
    ASSERT_TRUE(recovered->check_invariants(&why)) << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, DeleteBatchCrashSweep, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Band" + std::to_string(info.param);
                         });

// --- async ingestion drain durability ---------------------------------------
//
// Destroying an AsyncIngestor with staged edges must drain them durably:
// after the destructor returns, a crash (losing every unflushed line) and
// reopen must surface every submitted epoch. This is the destructor-drain
// half of the epoch contract; wait_durable/drain are covered in
// async_ingest_test.cpp.
TEST(DgapCrash, AsyncIngestorDestructorDrainsDurably) {
  const auto stream = symmetrize(generate_rmat(48, 2000, 3030));
  const auto& edges = stream.edges();
  auto pool =
      PmemPool::create({.path = "", .size = 16 << 20, .shadow = true});
  DgapOptions o = crash_opts();
  o.max_writer_threads = 3;  // 2 absorbers + slack
  auto store = DgapStore::create(*pool, o);
  {
    ingest::AsyncIngestor::Options io;
    io.absorbers = 2;
    io.queues = 4;
    auto ing = ingest::make_dgap_ingestor(*store, io);
    for (std::size_t i = 0; i < edges.size(); i += 128)
      ing->submit(std::span<const Edge>(
          edges.data() + i, std::min<std::size_t>(128, edges.size() - i)));
    // No drain()/wait_durable(): destruction alone must make it all stick.
  }
  store.reset();           // no shutdown(): volatile state is gone
  pool->simulate_crash();  // drop every unpersisted line
  auto recovered = DgapStore::open(*pool, o);

  std::string why;
  ASSERT_TRUE(recovered->check_invariants(&why)) << why;
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : edges) oracle.add_edge(e.src, e.dst);
  const auto extra = multiset_extra(*recovered, oracle);
  ASSERT_TRUE(extra.empty())
      << extra.size() << " multiset differences after reopen; first: "
      << extra.begin()->first.first << "->" << extra.begin()->first.second
      << " x" << extra.begin()->second;
}

TEST(DgapCrash, CrashImmediatelyAfterCreate) {
  auto pool =
      PmemPool::create({.path = "", .size = 16 << 20, .shadow = true});
  auto store = DgapStore::create(*pool, crash_opts());
  store.reset();
  pool->simulate_crash();
  auto recovered = DgapStore::open(*pool, crash_opts());
  EXPECT_EQ(recovered->num_nodes(), 48);
  std::string why;
  EXPECT_TRUE(recovered->check_invariants(&why)) << why;
}

}  // namespace
}  // namespace dgap::core
