// SnapshotCsr / SnapshotCsrCache (src/core/snapshot.hpp): the materialized
// CSR must be observably IDENTICAL to the snapshot it was built from
// (same degrees incl. tombstone slots, same surviving neighbors in the
// same order — kernels produce bit-identical results), and the K-deep
// cache (default K=2) must hit for repeated kernels over the same cut,
// keep alternating cuts resident, evict LRU beyond K, and rebuild on a
// new cut or a new layout generation.
#include <gtest/gtest.h>

#include "src/algorithms/cc.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/core/dgap_store.hpp"
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
  o.init_edges = 2048;
  return o;
}

void expect_views_identical(const Snapshot& snap, const SnapshotCsr& csr) {
  ASSERT_EQ(csr.num_nodes(), snap.num_nodes());
  ASSERT_EQ(csr.num_edges_directed(), snap.num_edges_directed());
  for (NodeId v = 0; v < snap.num_nodes(); ++v) {
    EXPECT_EQ(csr.out_degree(v), snap.out_degree(v)) << "vertex " << v;
    std::vector<NodeId> a;
    std::vector<NodeId> b;
    snap.for_each_out(v, [&](NodeId d) { a.push_back(d); });
    csr.for_each_out(v, [&](NodeId d) { b.push_back(d); });
    EXPECT_EQ(a, b) << "vertex " << v;
  }
}

TEST(SnapshotCsrCache, MaterializationMatchesSnapshotExactly) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  const auto stream = generate_uniform(64, 4000, 21);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);

  const Snapshot snap = store->consistent_view();
  SnapshotCsrCache cache;
  const SnapshotCsr& csr = cache.get(snap);
  EXPECT_EQ(cache.misses(), 1u);
  expect_views_identical(snap, csr);
}

TEST(SnapshotCsrCache, TombstonesCancelledIdentically) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(2, 5);
  store->insert_edge(2, 6);
  store->insert_edge(2, 5);
  store->delete_edge(2, 5);  // cancels one instance
  store->insert_edge(3, 7);
  store->delete_edge(3, 7);  // vertex 3 fully cancelled

  const Snapshot snap = store->consistent_view();
  SnapshotCsrCache cache;
  const SnapshotCsr& csr = cache.get(snap);
  // Slot-count degree semantics preserved (3 inserts + 1 tombstone)...
  EXPECT_EQ(csr.out_degree(2), 4);
  EXPECT_EQ(csr.out_degree(3), 2);
  // ...while iteration yields only surviving neighbors.
  expect_views_identical(snap, csr);
}

TEST(SnapshotCsrCache, KernelResultsIdenticalCachedVsUncached) {
  auto pool = make_pool(64);
  auto store = DgapStore::create(*pool, small_opts());
  const auto stream = symmetrize(generate_rmat(256, 4000, 5));
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);

  const Snapshot snap = store->consistent_view();
  SnapshotCsrCache cache;
  const SnapshotCsr& csr = cache.get(snap);

  // Same neighbor order + same degree column => bit-identical summation.
  EXPECT_EQ(algorithms::pagerank(snap), algorithms::pagerank(csr));
  EXPECT_EQ(algorithms::connected_components(snap),
            algorithms::connected_components(csr));
}

TEST(SnapshotCsrCache, RepeatKernelsHitNewCutMisses) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(1, 2);

  const Snapshot s1 = store->consistent_view();
  SnapshotCsrCache cache;
  (void)cache.get(s1);
  (void)cache.get(s1);  // PR then CC over the same cut: second is a hit
  (void)cache.get(s1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);

  store->insert_edge(1, 3);
  const Snapshot s2 = store->consistent_view();  // a new cut
  const SnapshotCsr& csr2 = cache.get(s2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(csr2.out_degree(1), 2);
  // The rebuilt entry serves the new cut.
  (void)cache.get(s2);
  EXPECT_EQ(cache.hits(), 3u);
}

// The incremental-analytics loop alternates between the previous cut's CSR
// (diff-seeded kernels) and the current cut's: with the default depth of 2
// both stay resident; a third distinct cut evicts the least recently used.
TEST(SnapshotCsrCache, TwoDeepAlternationHitsThirdCutEvictsLru) {
  auto pool = make_pool(32);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(0, 1);
  const Snapshot s1 = store->consistent_view();
  store->insert_edge(0, 2);
  const Snapshot s2 = store->consistent_view();
  store->insert_edge(0, 3);
  const Snapshot s3 = store->consistent_view();

  SnapshotCsrCache cache;
  EXPECT_EQ(cache.capacity(), 2u);
  (void)cache.get(s1);
  (void)cache.get(s2);
  EXPECT_EQ(cache.misses(), 2u);
  (void)cache.get(s1);  // prev/current alternation: all hits
  (void)cache.get(s2);
  (void)cache.get(s1);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.resident(), 2u);

  (void)cache.get(s3);  // third cut evicts the LRU entry (s2)...
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.resident(), 2u);
  (void)cache.get(s1);  // ...so s1 still hits...
  EXPECT_EQ(cache.hits(), 4u);
  (void)cache.get(s2);  // ...and s2 rebuilds.
  EXPECT_EQ(cache.misses(), 4u);

  // A deeper cache keeps all three cuts cycling hit-only.
  SnapshotCsrCache deep(3);
  (void)deep.get(s1);
  (void)deep.get(s2);
  (void)deep.get(s3);
  (void)deep.get(s1);
  (void)deep.get(s2);
  (void)deep.get(s3);
  EXPECT_EQ(deep.misses(), 3u);
  EXPECT_EQ(deep.hits(), 3u);
}

TEST(SnapshotCsrCache, EpochKeyedInvalidationAcrossResize) {
  auto pool = make_pool(64);
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(0, 1);
  const Snapshot s1 = store->consistent_view();
  SnapshotCsrCache cache;
  (void)cache.get(s1);

  // Drive the store through a resize: the next snapshot carries a new
  // layout epoch, so its cache key cannot collide with s1's even if a
  // sequence counter ever wrapped.
  const auto stream = generate_uniform(256, 20000, 31);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  ASSERT_GT(store->stats().resizes, 0u);
  const Snapshot s2 = store->consistent_view();
  ASSERT_GT(s2.layout_epoch(), s1.layout_epoch());
  (void)cache.get(s2);
  EXPECT_EQ(cache.misses(), 2u);
  expect_views_identical(s2, cache.get(s2));

  cache.invalidate();
  (void)cache.get(s2);
  EXPECT_EQ(cache.misses(), 3u);
}

}  // namespace
}  // namespace dgap::core
