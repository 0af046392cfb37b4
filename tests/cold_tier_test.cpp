// SSD cold tier (src/tier/cold_tier.*, protocol in src/core/cold_ops.cpp):
// demote/promote round trips stay bit-identical to a tier-off store, the
// persisted residency map survives reopen and mid-demotion kills, lock-free
// cold reads stay torn-free under concurrent demote/promote churn, a
// thread's reused cold image never outlives the bytes it copied, and read
// promotion resists uniform sweeps while still following a skewed reader.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/algorithms/pagerank.hpp"
#include "src/core/dgap_store.hpp"
#include "src/graph/adj_graph.hpp"
#include "src/graph/generators.hpp"
#include "src/obs/metrics_registry.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

std::string temp_cold_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("dgap_cold_test_" + std::string(tag) + "_" +
           std::to_string(::getpid())))
      .string();
}

DgapOptions cold_opts(const std::string& path) {
  DgapOptions o;
  o.init_vertices = 64;
  o.init_edges = 256;
  o.segment_slots = 64;
  o.elog_bytes = 256;  // constant merges keep elogs cycling back to empty
  o.max_writer_threads = 4;
  o.cold_tier = true;
  o.cold_tier_path = path;
  return o;
}

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

// Store + oracle filled from one symmetrized RMAT stream.
struct Loaded {
  std::unique_ptr<DgapStore> store;
  AdjGraph oracle{0};
};

// dst_shift rotates every destination id: same degree sequence (and so the
// same layout), different neighbors.
Loaded load_rmat(PmemPool& pool, const DgapOptions& opts, NodeId n,
                 std::uint64_t edges, std::uint64_t seed,
                 NodeId dst_shift = 0) {
  Loaded l;
  l.store = DgapStore::create(pool, opts);
  const auto stream = symmetrize(generate_rmat(n, edges, seed));
  l.oracle = AdjGraph(stream.num_vertices());
  for (const Edge& e : stream.edges()) {
    const NodeId dst = (e.dst + dst_shift) % stream.num_vertices();
    l.store->insert_edge(e.src, dst);
    l.oracle.add_edge(e.src, dst);
  }
  return l;
}

// Read-triggered promotions run as scheduler tasks: wait until the counter
// stops moving so the next measured window does not inherit them.
void settle_promotions(const DgapStore& store) {
  std::uint64_t last = store.cold_stats().promotions;
  for (int quiet = 0, i = 0; quiet < 3 && i < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::uint64_t now = store.cold_stats().promotions;
    quiet = now == last ? quiet + 1 : 0;
    last = now;
  }
}

// File reads plus image reuses: nonzero iff reading v touched a cold
// section.
std::uint64_t cold_touches(const DgapStore& store) {
  const tier::ColdStats s = store.cold_stats();
  return s.cold_reads + s.read_reuses;
}

void expect_vertex(const DgapStore& store, const AdjGraph& oracle, NodeId v,
                   const char* tag) {
  auto got = store.consistent_view().neighbors(v);
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got, oracle.sorted_neigh(v)) << tag << " vertex " << v;
}

// A cold-tier budget that holds about half of the sections: the pool's
// metadata floor (everything demoted) plus half of the section bytes.
std::uint64_t half_sections_budget(DgapStore& store) {
  const std::uint64_t full = store.resident_bytes();
  store.debug_cold_demote_all();
  const std::uint64_t floor = store.resident_bytes();
  store.debug_cold_promote_all();
  return floor + (full - floor) / 2;
}

class ColdFile {
 public:
  explicit ColdFile(const char* tag) : path_(temp_cold_path(tag)) {
    std::filesystem::remove(path_);
  }
  ~ColdFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ColdTier, DemotePromoteRoundTripMatchesOracle) {
  const ColdFile file("roundtrip");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  auto store = DgapStore::create(*pool, cold_opts(file.path()));
  ASSERT_TRUE(store->cold_tier_active());

  const auto stream = symmetrize(generate_rmat(64, 3000, 42));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) {
    store->insert_edge(e.src, e.dst);
    oracle.add_edge(e.src, e.dst);
  }

  store->debug_cold_demote_all();
  const tier::ColdStats after_demote = store->cold_stats();
  EXPECT_GT(after_demote.demotions, 0u)
      << "workload produced no demotable (empty-elog) section; shrink "
         "elog_bytes";
  EXPECT_GT(after_demote.cold_sections, 0u);
  EXPECT_GT(after_demote.demoted_bytes, 0u);

  // Reads served while sections are cold come from the backing file.
  expect_matches_oracle(*store, oracle, "cold");
  EXPECT_GT(store->cold_stats().cold_reads, 0u);

  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;

  store->debug_cold_promote_all();
  const tier::ColdStats after_promote = store->cold_stats();
  EXPECT_EQ(after_promote.cold_sections, 0u);
  EXPECT_GE(after_promote.promotions, after_demote.demotions);
  expect_matches_oracle(*store, oracle, "promoted");
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(ColdTier, WritesToColdSectionsPromoteFirst) {
  const ColdFile file("writes");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  auto store = DgapStore::create(*pool, cold_opts(file.path()));

  const auto stream = symmetrize(generate_rmat(64, 2000, 7));
  AdjGraph oracle(stream.num_vertices());
  std::size_t i = 0;
  for (const Edge& e : stream.edges()) {
    store->insert_edge(e.src, e.dst);
    oracle.add_edge(e.src, e.dst);
    // Interleave demotions with inserts: writers must transparently
    // promote their target sections.
    if (++i % 500 == 0) store->debug_cold_demote_all();
  }
  expect_matches_oracle(*store, oracle, "interleaved");
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(ColdTier, BatchInsertAcrossColdSections) {
  const ColdFile file("batch");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  auto store = DgapStore::create(*pool, cold_opts(file.path()));

  const auto stream = symmetrize(generate_rmat(64, 4000, 99));
  const auto& edges = stream.edges();
  AdjGraph oracle(stream.num_vertices());
  const std::size_t half = edges.size() / 2;
  std::vector<Edge> first(edges.begin(), edges.begin() + half);
  std::vector<Edge> second(edges.begin() + half, edges.end());

  store->insert_batch(first);
  for (const Edge& e : first) oracle.add_edge(e.src, e.dst);
  store->debug_cold_demote_all();
  store->insert_batch(second);
  for (const Edge& e : second) oracle.add_edge(e.src, e.dst);

  expect_matches_oracle(*store, oracle, "batch");
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(ColdTier, ResidencyMapSurvivesReopen) {
  const ColdFile file("reopen");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  const DgapOptions opts = cold_opts(file.path());
  auto store = DgapStore::create(*pool, opts);

  const auto stream = symmetrize(generate_rmat(64, 2500, 11));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) {
    store->insert_edge(e.src, e.dst);
    oracle.add_edge(e.src, e.dst);
  }
  store->debug_cold_demote_all();
  const std::uint64_t cold_before = store->cold_stats().cold_sections;
  ASSERT_GT(cold_before, 0u);

  store.reset();
  auto reopened = DgapStore::open(*pool, opts);
  EXPECT_EQ(reopened->cold_stats().cold_sections, cold_before);
  std::string why;
  EXPECT_TRUE(reopened->check_invariants(&why)) << why;
  expect_matches_oracle(*reopened, oracle, "reopened-cold");

  // And the reopened store keeps working: promote everything, keep writing.
  reopened->debug_cold_promote_all();
  EXPECT_EQ(reopened->cold_stats().cold_sections, 0u);
  reopened->insert_edge(1, 2);
  oracle.add_edge(1, 2);
  expect_matches_oracle(*reopened, oracle, "reopened-promoted");
}

TEST(ColdTier, TierOffReopenOfColdPoolRefusesCleanly) {
  const ColdFile file("tieroff");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  const DgapOptions opts = cold_opts(file.path());
  auto store = DgapStore::create(*pool, opts);
  const auto stream = symmetrize(generate_rmat(64, 2000, 5));
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  store->debug_cold_demote_all();
  ASSERT_GT(store->cold_stats().cold_sections, 0u);
  store.reset();

  DgapOptions off = opts;
  off.cold_tier = false;
  // Demoted sections live only in the backing file: opening without the
  // tier must refuse loudly instead of serving punched zeros.
  EXPECT_THROW(DgapStore::open(*pool, off), std::runtime_error);

  // With the tier back on the same pool opens fine.
  auto reopened = DgapStore::open(*pool, opts);
  std::string why;
  EXPECT_TRUE(reopened->check_invariants(&why)) << why;
}

TEST(ColdTier, ColdReadsStayConsistentUnderDemotePromoteChurn) {
  const ColdFile file("churn");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  auto store = DgapStore::create(*pool, cold_opts(file.path()));

  const auto stream = symmetrize(generate_rmat(64, 1500, 123));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) {
    store->insert_edge(e.src, e.dst);
    oracle.add_edge(e.src, e.dst);
  }

  // One thread cycles every section through demote+promote while readers
  // continuously verify full neighbor sets. Any torn cold read (file image
  // vs pmem mixup, missed revalidation) shows up as a neighbor-set
  // mismatch. The churn is bounded with a breather between cycles: each
  // demotion closes the full structural gate, and back-to-back gate storms
  // would starve the readers instead of racing them.
  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int cycle = 0; cycle < 20; ++cycle) {
      store->debug_cold_demote_all();
      store->debug_cold_promote_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
  });
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      int round = 0;
      while (!failed.load() && (!done.load() || round < 2)) {
        const Snapshot snap = store->consistent_view();
        for (NodeId v = t; v < oracle.num_nodes(); v += 2) {
          auto got = snap.neighbors(v);
          std::sort(got.begin(), got.end());
          if (got != oracle.sorted_neigh(v)) {
            failed.store(true);
            ADD_FAILURE() << "torn cold read at vertex " << v << " round "
                          << round;
            break;
          }
        }
        ++round;
      }
    });
  }
  for (auto& r : readers) r.join();
  churn.join();
  EXPECT_FALSE(failed.load());
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;

  // Every cold read above may have been served from a thread's reused
  // image. The phases below pin down, on ONE thread, the three ways a
  // reused image could go stale. A 1-byte budget leaves no headroom and no
  // eviction mark, so reads never promote and a demoted section stays cold
  // until this thread changes it.
  store->set_cold_budget_bytes(1);
  //
  // (1) demote -> promote -> write -> demote: the rewritten section comes
  // back cold under a bumped generation, so the image this thread cached
  // before the write must not be served. Each vertex is read twice while
  // cold (the second read reuses the image), then rewritten and re-read.
  for (NodeId v = 1; v < oracle.num_nodes(); v += 7) {
    store->debug_cold_demote_all();
    expect_vertex(*store, oracle, v, "cold");
    expect_vertex(*store, oracle, v, "cold-again");
    store->debug_cold_promote_all();
    for (NodeId k = 0; k < 3; ++k) {
      const NodeId dst = (v * 13 + k * 29) % oracle.num_nodes();
      store->insert_edge(v, dst);
      oracle.add_edge(v, dst);
    }
    store->debug_cold_demote_all();
    expect_vertex(*store, oracle, v, "rewritten");
    expect_matches_oracle(*store, oracle, "cycle");
  }
  EXPECT_GT(store->cold_stats().read_reuses, 0u)
      << "no image was ever reused: the phases below test nothing";

  // (2) A resize starts a fresh residency map whose generations restart,
  // so the first demotion of each layout writes the same cold(1) words.
  // Vertex 0's run starts at slot 0 in every layout. Cache the section
  // holding its last edge at cold(1), grow vertex 0 through a resize,
  // demote the new layout once and read vertex 0 from that edge on: a key
  // without the layout epoch would serve the old image, which ends where
  // the run used to end. Growth stops right at each resize, so every fresh
  // section still has an empty edge log and demotes. Default budget: no
  // background demotions.
  store->set_cold_budget_bytes(pool->size());
  store->debug_cold_promote_all();
  std::uint64_t grow_seed = 77;
  const auto grow_until_resize = [&] {
    const std::uint64_t epoch = store->layout_epoch();
    while (store->layout_epoch() == epoch) {
      const auto g = symmetrize(generate_rmat(64, 2000, grow_seed++));
      for (const Edge& e : g.edges()) {
        // Every edge also grows vertex 0.
        for (const NodeId src : {e.src, NodeId{0}}) {
          store->insert_edge(src, e.dst);
          oracle.add_edge(src, e.dst);
        }
        if (store->layout_epoch() != epoch) break;
      }
    }
  };
  grow_until_resize();
  store->debug_cold_demote_all();
  const auto tail_from = static_cast<std::uint32_t>(oracle.out_degree(0) - 1);
  store->consistent_view().for_each_slot_from(
      0, tail_from, [](NodeId, bool) { return true; });  // one slot
  store->debug_cold_promote_all();
  grow_until_resize();
  store->debug_cold_demote_all();
  std::vector<NodeId> tail;
  store->consistent_view().for_each_slot_from(
      0, tail_from, [&](NodeId d, bool) { tail.push_back(d); });
  const auto want = oracle.out_neigh(0).subspan(tail_from);
  EXPECT_EQ(tail, std::vector<NodeId>(want.begin(), want.end()));
  expect_matches_oracle(*store, oracle, "post-resize");

  // (3) Two stores with the same degree sequence (so the same layout and
  // epoch) but different neighbors, each demoted once: section s is cold(1)
  // in both. Reading each vertex from one store and then the other on this
  // thread must not serve the first store's image.
  const ColdFile file_a("twin_a");
  const ColdFile file_b("twin_b");
  auto pool_a = PmemPool::create({.path = "", .size = 64ull << 20});
  auto pool_b = PmemPool::create({.path = "", .size = 64ull << 20});
  Loaded a = load_rmat(*pool_a, cold_opts(file_a.path()), 64, 1500, 1);
  Loaded b = load_rmat(*pool_b, cold_opts(file_b.path()), 64, 1500, 1,
                       /*dst_shift=*/1);
  ASSERT_EQ(a.store->layout_epoch(), b.store->layout_epoch());
  for (Loaded* t : {&a, &b}) {
    t->store->set_cold_budget_bytes(1);
    t->store->debug_cold_demote_all();
  }
  for (NodeId v = 0; v < a.oracle.num_nodes(); ++v) {
    expect_vertex(*a.store, a.oracle, v, "twin-a");
    expect_vertex(*b.store, b.oracle, v, "twin-b");
  }
}

TEST(ColdTier, NestedColdReadsKeepTheOuterImage) {
  // A callback that reads the store again (a triangle-count style
  // neighbor-of-neighbor walk) must not overwrite the cold image its
  // caller is still emitting from.
  const ColdFile file("nested");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  Loaded l = load_rmat(*pool, cold_opts(file.path()), 64, 1500, 41);
  l.store->set_cold_budget_bytes(1);  // reads never promote
  l.store->debug_cold_demote_all();
  ASSERT_GT(l.store->cold_stats().cold_sections, 0u);
  const Snapshot snap = l.store->consistent_view();
  for (NodeId v = 0; v < l.oracle.num_nodes(); ++v) {
    std::vector<NodeId> outer;
    snap.for_each_out(v, [&](NodeId u) {
      outer.push_back(u);
      auto inner = snap.neighbors(u);
      std::sort(inner.begin(), inner.end());
      EXPECT_EQ(inner, l.oracle.sorted_neigh(u)) << "inner vertex " << u;
    });
    std::sort(outer.begin(), outer.end());
    ASSERT_EQ(outer, l.oracle.sorted_neigh(v)) << "outer vertex " << v;
  }
}

TEST(ColdTier, BudgetEnforcementDemotesColdestSections) {
  const ColdFile file("budget");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  DgapOptions opts = cold_opts(file.path());
  opts.cold_tier_budget_bytes = 1;  // everything demotable must go
  auto store = DgapStore::create(*pool, opts);

  const auto stream = symmetrize(generate_rmat(64, 3000, 31));
  AdjGraph oracle(stream.num_vertices());
  for (const Edge& e : stream.edges()) {
    store->insert_edge(e.src, e.dst);
    oracle.add_edge(e.src, e.dst);
  }
  const std::uint64_t resident_before = store->resident_bytes();
  store->cold_enforce_budget();
  EXPECT_GT(store->cold_stats().demotions, 0u);
  EXPECT_LT(store->resident_bytes(), resident_before);
  expect_matches_oracle(*store, oracle, "enforced");
}

TEST(ColdTier, UniformSweepFreezesResidency) {
  const ColdFile file("sweep");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  Loaded l = load_rmat(*pool, cold_opts(file.path()), 1024, 8000, 13);
  DgapStore& store = *l.store;
  const std::uint64_t budget = half_sections_budget(store);
  store.set_cold_budget_bytes(budget);
  store.cold_enforce_budget();
  ASSERT_GT(store.cold_stats().cold_sections, 0u);
  ASSERT_LE(store.resident_bytes(), budget);

  // Sample residency against the budget for the whole run.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> peak{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      const std::uint64_t r = store.resident_bytes();
      if (r > peak.load()) peak.store(r);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // PageRank reads every section on every iteration: the cyclic sweep that
  // used to promote each cold section and demote an equally hot one.
  const auto want = algorithms::pagerank(l.oracle);
  const Snapshot snap = store.consistent_view();
  EXPECT_EQ(algorithms::pagerank(snap), want);  // first pass: may fill headroom
  settle_promotions(store);
  const tier::ColdStats before = store.cold_stats();
  for (int pass = 0; pass < 3; ++pass)
    EXPECT_EQ(algorithms::pagerank(snap), want);
  settle_promotions(store);
  const tier::ColdStats after = store.cold_stats();
  stop.store(true);
  sampler.join();

  EXPECT_EQ(after.demotions, before.demotions);
  EXPECT_EQ(after.promotions, before.promotions);
  EXPECT_GT(after.cold_reads, before.cold_reads) << "sweep never hit SSD";
  EXPECT_GT(after.promote_vetoes, before.promote_vetoes);
  EXPECT_GT(after.read_reuses, before.read_reuses);
  EXPECT_LE(peak.load(), budget);
  EXPECT_LE(store.resident_bytes(), budget);
}

TEST(ColdTier, SkewedReaderPromotesHotSectionsAndDemotesColdOnes) {
  const ColdFile file("skew");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  Loaded l = load_rmat(*pool, cold_opts(file.path()), 1024, 8000, 29);
  DgapStore& store = *l.store;
  store.set_cold_budget_bytes(half_sections_budget(store));
  store.cold_enforce_budget();
  ASSERT_GT(store.cold_stats().cold_sections, 0u);

  // A few vertices whose runs sit in cold sections, each in a different
  // section from the one before it (reading it took a file read, not a
  // reuse of the previous vertex's image).
  const Snapshot snap = store.consistent_view();
  std::vector<NodeId> hot;
  for (NodeId v = 0; v < l.oracle.num_nodes() && hot.size() < 4; v += 17) {
    if (l.oracle.out_degree(v) == 0) continue;
    const std::uint64_t t0 = store.cold_stats().cold_reads;
    (void)snap.neighbors(v);
    if (store.cold_stats().cold_reads > t0) hot.push_back(v);
  }
  ASSERT_GE(hot.size(), 2u) << "no vertex reads a cold section";

  // Hammer them round-robin; every resident section stays unread.
  const std::uint64_t demotions0 = store.cold_stats().demotions;
  bool promoted = false;
  for (int round = 0; round < 2000 && !promoted; ++round) {
    for (const NodeId v : hot) {
      auto got = snap.neighbors(v);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, l.oracle.sorted_neigh(v));
    }
    if (round % 50 == 49) {
      settle_promotions(store);
      const std::uint64_t t0 = cold_touches(store);
      for (const NodeId v : hot) (void)snap.neighbors(v);
      promoted = cold_touches(store) == t0;
    }
  }
  EXPECT_TRUE(promoted) << "hammered cold sections never became resident";
  // Promoting past the budget queued a pass that demoted colder sections.
  for (int i = 0; i < 500 && store.cold_stats().demotions == demotions0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(store.cold_stats().demotions, demotions0);
  expect_matches_oracle(store, l.oracle, "skewed");
}

TEST(ColdTier, ColdMetricsAppearInRegistry) {
  const ColdFile file("metrics");
  auto pool = PmemPool::create({.path = "", .size = 64ull << 20});
  auto store = DgapStore::create(*pool, cold_opts(file.path()));
  const auto stream = symmetrize(generate_rmat(64, 1500, 3));
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  store->debug_cold_demote_all();
  (void)store->consistent_view().neighbors(1);

  bool saw_demotions = false;
  bool saw_resident = false;
  bool saw_reuses = false;
  bool saw_vetoes = false;
  obs::registry().visit([&](const std::string& name, obs::MetricKind,
                            const obs::ValueFn& value, const obs::HistFn&) {
    if (name.find("cold_demotions") != std::string::npos) {
      saw_demotions = true;
      EXPECT_GT(value(), 0.0);
    }
    if (name.find("cold_resident_bytes") != std::string::npos)
      saw_resident = true;
    saw_reuses = saw_reuses || name.find("cold_read_reuses") != std::string::npos;
    saw_vetoes =
        saw_vetoes || name.find("cold_promote_vetoes") != std::string::npos;
  });
  EXPECT_TRUE(saw_demotions);
  EXPECT_TRUE(saw_resident);
  EXPECT_TRUE(saw_reuses);
  EXPECT_TRUE(saw_vetoes);
}

}  // namespace
}  // namespace dgap::core
