// DRAM hot tier (src/tier/dram_cache.hpp): the SectionCache unit contracts
// — frame budget honored exactly, deterministic LRU victim choice,
// churn-gated admission, write-through visibility, invalidation — plus the
// store-level torn-read check: snapshot reads served through a tiny,
// constantly-evicting cache stay a single point-in-time cut while a writer
// drives rebalances and resizes underneath.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dgap_store.hpp"
#include "src/tier/dram_cache.hpp"

namespace dgap::tier {
namespace {

constexpr std::uint64_t kSlots = 32;  // 256-byte frames
constexpr std::uint64_t kFrameBytes = kSlots * sizeof(core::Slot);

// A recognizable per-section fill pattern.
std::vector<core::Slot> section_image(std::uint64_t sec) {
  std::vector<core::Slot> v(kSlots);
  for (std::uint64_t i = 0; i < kSlots; ++i)
    v[i] = core::encode_edge(static_cast<NodeId>(sec * 1000 + i));
  return v;
}

TEST(SectionCache, FrameCountIsBudgetOverFrameSize) {
  // 4.5 frames of budget => exactly 4 frames, never a partial one.
  SectionCache cache(4 * kFrameBytes + kFrameBytes / 2);
  cache.configure(/*num_sections=*/64, kSlots);
  const CacheStats s = cache.stats();
  EXPECT_TRUE(cache.active());
  EXPECT_EQ(s.frames, 4u);
  EXPECT_EQ(s.frame_bytes, kFrameBytes);
  EXPECT_EQ(s.resident, 0u);
}

TEST(SectionCache, FramesNeverExceedSectionCount) {
  // Budget for 100 frames but only 3 sections exist: don't allocate waste.
  SectionCache cache(100 * kFrameBytes);
  cache.configure(/*num_sections=*/3, kSlots);
  EXPECT_EQ(cache.stats().frames, 3u);
}

TEST(SectionCache, ResidencyNeverExceedsCapacity) {
  SectionCache cache(4 * kFrameBytes);
  cache.configure(/*num_sections=*/16, kSlots);
  for (std::uint64_t sec = 0; sec < 10; ++sec) {
    const auto img = section_image(sec);
    const SectionCache::Pin p = cache.populate(sec, img.data());
    ASSERT_TRUE(p) << "section " << sec;
    cache.release(p);
    EXPECT_LE(cache.stats().resident, 4u);
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.resident, 4u);
  EXPECT_EQ(s.populates, 10u);
  // 10 sections through 4 frames: the first 4 fill free frames, the other
  // 6 must each evict a resident one.
  EXPECT_EQ(s.evictions, 6u);
}

TEST(SectionCache, ZeroBudgetIsInert) {
  SectionCache cache(0);
  cache.configure(/*num_sections=*/16, kSlots);
  EXPECT_FALSE(cache.active());
  const auto img = section_image(0);
  EXPECT_FALSE(cache.populate(0, img.data()));
  EXPECT_FALSE(cache.acquire(0));
  cache.write_through(0, 0, core::encode_edge(1));  // must not crash
  cache.invalidate(0);
  EXPECT_EQ(cache.stats().frames, 0u);
  EXPECT_EQ(cache.stats().resident, 0u);
}

// LRU protects the recently-touched section.
TEST(SectionCache, LruEvictsLeastRecentlyTouched) {
  SectionCache cache(2 * kFrameBytes);
  cache.configure(/*num_sections=*/8, kSlots);
  const auto img0 = section_image(0);
  const auto img1 = section_image(1);
  const auto img2 = section_image(2);
  cache.release(cache.populate(0, img0.data()));
  cache.release(cache.populate(1, img1.data()));
  {
    const SectionCache::Pin p = cache.acquire(0);  // 0 becomes MRU
    ASSERT_TRUE(p);
    cache.release(p);
  }
  cache.release(cache.populate(2, img2.data()));  // must evict 1, not 0

  EXPECT_FALSE(cache.acquire(1)) << "LRU victim should have been section 1";
  const SectionCache::Pin kept = cache.acquire(0);
  ASSERT_TRUE(kept);
  EXPECT_EQ(kept.data[5], img0[5]);
  cache.release(kept);
  const SectionCache::Pin fresh = cache.acquire(2);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh.data[7], img2[7]);
  cache.release(fresh);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// A cold challenger cannot displace a warm incumbent (a cyclic sweep larger
// than the cache must freeze the resident set, not churn it through
// populates that evict before reuse), but repeated challenges age the
// incumbent out once it stops being read — frozen, not fossilized.
TEST(SectionCache, ColdChallengerCannotDisplaceWarmResident) {
  SectionCache cache(2 * kFrameBytes);
  cache.configure(/*num_sections=*/8, kSlots);
  const auto img0 = section_image(0);
  const auto img1 = section_image(1);
  const auto img5 = section_image(5);
  cache.release(cache.populate(0, img0.data()));
  cache.release(cache.populate(1, img1.data()));
  for (int i = 0; i < 4; ++i) {  // warm both incumbents
    cache.release(cache.acquire(0));
    cache.release(cache.acquire(1));
  }
  // A one-shot cold populate is vetoed: no eviction, incumbents untouched.
  EXPECT_FALSE(cache.populate(5, img5.data()));
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_GE(cache.stats().admit_rejects, 1u);
  cache.release(cache.acquire(0));
  cache.release(cache.acquire(1));

  // Keep challenging while the incumbents go unread: per-challenge aging
  // admits the now-hotter challenger after a bounded number of rounds.
  SectionCache::Pin got;
  int rounds = 0;
  while (!got && rounds < 32) {
    (void)cache.acquire(5);  // miss; warms the challenger
    got = cache.populate(5, img5.data());
    ++rounds;
  }
  ASSERT_TRUE(got) << "aging never admitted the challenger";
  cache.release(got);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SectionCache, PinnedFramesAreNeverEvicted) {
  SectionCache cache(2 * kFrameBytes);
  cache.configure(/*num_sections=*/8, kSlots);
  const auto img0 = section_image(0);
  const auto img1 = section_image(1);
  const auto img2 = section_image(2);
  const SectionCache::Pin held = cache.populate(0, img0.data());  // stays pinned
  ASSERT_TRUE(held);
  cache.release(cache.populate(1, img1.data()));
  cache.release(cache.populate(2, img2.data()));  // only 1 is evictable

  EXPECT_EQ(held.data[0], img0[0]);  // still valid under the pin
  const SectionCache::Pin again = cache.acquire(0);
  ASSERT_TRUE(again) << "pinned frame was reclaimed";
  cache.release(again);
  cache.release(held);
}

TEST(SectionCache, WriteThroughUpdatesResidentFrameOnly) {
  SectionCache cache(2 * kFrameBytes);
  cache.configure(/*num_sections=*/8, kSlots);
  auto img = section_image(4);
  cache.release(cache.populate(4, img.data()));

  const core::Slot updated = core::encode_edge(999);
  cache.write_through(4, 5, updated);
  const std::vector<core::Slot> range = {core::encode_edge(50),
                                         core::encode_edge(51),
                                         core::encode_edge(52)};
  cache.write_through_range(4, 8, range.data(), range.size());
  // A non-resident section's write-through is a no-op (counter untouched).
  cache.write_through(6, 0, updated);

  const SectionCache::Pin p = cache.acquire(4);
  ASSERT_TRUE(p);
  EXPECT_EQ(p.data[5], updated);
  EXPECT_EQ(p.data[8], range[0]);
  EXPECT_EQ(p.data[10], range[2]);
  EXPECT_EQ(p.data[4], img[4]);  // untouched slots keep the pmem image
  cache.release(p);
  EXPECT_EQ(cache.stats().write_updates, 4u);
}

TEST(SectionCache, InvalidateDropsFrameAndRecyclesIt) {
  SectionCache cache(2 * kFrameBytes);
  cache.configure(/*num_sections=*/8, kSlots);
  const auto img = section_image(3);
  cache.release(cache.populate(3, img.data()));
  const SectionCache::Pin p = cache.acquire(3);
  ASSERT_TRUE(p);
  cache.release(p);

  cache.invalidate(3);
  EXPECT_FALSE(cache.acquire(3));
  CacheStats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.resident, 0u);
  // The freed frame is reusable without an eviction.
  const auto img2 = section_image(5);
  cache.release(cache.populate(5, img2.data()));
  s = cache.stats();
  EXPECT_EQ(s.resident, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(SectionCache, AdmissionRejectsWriteChurnedSections) {
  SectionCache cache(2 * kFrameBytes);
  cache.configure(/*num_sections=*/8, kSlots);
  // Section 2 takes a write storm with no reads: churn EWMA saturates.
  for (int i = 0; i < 64; ++i)
    cache.write_through(2, 0, core::encode_edge(i));  // non-resident: churn only
  EXPECT_FALSE(cache.should_admit(2));
  EXPECT_GE(cache.stats().admit_rejects, 1u);

  // A cold section admits; a read-mostly section admits.
  EXPECT_TRUE(cache.should_admit(3));
  for (int i = 0; i < 64; ++i) (void)cache.acquire(4);  // misses, bump reads
  EXPECT_TRUE(cache.should_admit(4));

  // Reads on the churned section eventually re-qualify it (EWMAs decay).
  for (int i = 0; i < 64; ++i) (void)cache.acquire(2);
  EXPECT_TRUE(cache.should_admit(2));
}

TEST(SectionCache, HitAndMissCountersTrackAccesses) {
  SectionCache cache(2 * kFrameBytes);
  cache.configure(/*num_sections=*/8, kSlots);
  EXPECT_FALSE(cache.acquire(0));  // miss
  const auto img = section_image(0);
  cache.release(cache.populate(0, img.data()));
  cache.release(cache.acquire(0));  // hit
  cache.release(cache.acquire(0));  // hit
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 2.0 / 3.0);
}

// --- store-level: snapshot reads through an evicting cache ------------------

// A sequential writer lands edge i (payload dst = i) fully before edge i+1
// starts, so EVERY legal snapshot is a prefix of the stream: the payload set
// must be exactly {0..max}. The store runs a cache so small that frames
// evict constantly, while the writer's volume forces rebalances and resizes
// (invalidation + reconfigure paths). A stale, torn, or misdirected frame
// surfaces as a hole or a duplicate in the payload set.
TEST(DramTier, SnapshotReadsStayConsistentThroughEvictionChurn) {
  auto pool = pmem::PmemPool::create({.path = "", .size = 128 << 20});
  core::DgapOptions o;
  o.init_vertices = 64;
  o.init_edges = 512;  // small initial array: resizes come quickly
  o.segment_slots = 64;
  o.max_writer_threads = 2;
  o.dram_cache_bytes = 4 << 10;  // 8 frames of 512 B: constant eviction
  auto store = core::DgapStore::create(*pool, o);

  constexpr NodeId kEdges = 20000;
  constexpr NodeId kSources = 64;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (NodeId i = 0; i < kEdges; ++i) {
      store->insert_edge(i % kSources, i);
      if ((i & 255) == 0) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t cuts = 0;
  std::uint64_t mid_stream_cuts = 0;
  std::string violation;
  while (violation.empty() && !done.load(std::memory_order_acquire)) {
    const core::Snapshot snap = store->consistent_view();
    std::vector<bool> seen(kEdges, false);
    std::uint64_t count = 0;
    NodeId max_payload = -1;
    bool bad_payload = false;
    for (NodeId v = 0; v < kSources; ++v) {
      snap.for_each_out(v, [&](NodeId d) {
        if (d < 0 || d >= kEdges || seen[static_cast<std::size_t>(d)] ||
            d % kSources != v) {
          bad_payload = true;
          return;
        }
        seen[static_cast<std::size_t>(d)] = true;
        ++count;
        max_payload = std::max(max_payload, d);
      });
    }
    if (bad_payload) {
      violation = "duplicate or foreign payload in a cut";
      break;
    }
    if (count != static_cast<std::uint64_t>(max_payload + 1)) {
      violation = "cut is not a prefix: " + std::to_string(count) +
                  " edges but max payload " + std::to_string(max_payload);
      break;
    }
    ++cuts;
    if (count > 0 && count < kEdges) ++mid_stream_cuts;
  }
  writer.join();
  ASSERT_TRUE(violation.empty()) << violation;
  EXPECT_GT(cuts, 0u);
  EXPECT_GT(mid_stream_cuts, 0u);

  // The sweep genuinely exercised the tier AND its churn paths.
  const CacheStats cs = store->cache_stats();
  EXPECT_GT(cs.populates, 0u);
  EXPECT_GT(cs.hits, 0u);
  EXPECT_GT(cs.evictions, 0u);
  EXPECT_GT(store->stats().resizes, 0u);

  // Final state: complete and exact through a fresh snapshot.
  const core::Snapshot last = store->consistent_view();
  std::uint64_t total = 0;
  for (NodeId v = 0; v < kSources; ++v)
    last.for_each_out(v, [&](NodeId) { ++total; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kEdges));
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

// Cache-on and cache-off stores fed the same stream must be observably
// identical vertex by vertex (write-through keeps frames exact; pmem stays
// the source of truth).
TEST(DramTier, CachedStoreMatchesUncachedExactly) {
  auto mk = [](std::uint64_t cache_bytes) {
    core::DgapOptions o;
    o.init_vertices = 128;
    o.init_edges = 1024;
    o.segment_slots = 64;
    o.dram_cache_bytes = cache_bytes;
    return o;
  };
  auto pool_off = pmem::PmemPool::create({.path = "", .size = 64 << 20});
  auto pool_on = pmem::PmemPool::create({.path = "", .size = 64 << 20});
  auto off = core::DgapStore::create(*pool_off, mk(0));
  auto on = core::DgapStore::create(*pool_on, mk(6 << 10));

  // Deterministic mixed workload: inserts with duplicates plus deletes.
  for (NodeId i = 0; i < 6000; ++i) {
    const NodeId src = (i * 17) % 128;
    const NodeId dst = (i * 31) % 500;
    off->insert_edge(src, dst);
    on->insert_edge(src, dst);
    if (i % 7 == 0) {
      off->delete_edge(src, dst);
      on->delete_edge(src, dst);
    }
  }

  const core::Snapshot a = off->consistent_view();
  const core::Snapshot b = on->consistent_view();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.out_degree(v), b.out_degree(v)) << "vertex " << v;
    EXPECT_EQ(a.neighbors(v), b.neighbors(v)) << "vertex " << v;
  }
  // Repeat the sweep: the second pass must be serviced by the tier.
  const std::uint64_t hits_before = on->cache_stats().hits;
  for (NodeId v = 0; v < b.num_nodes(); ++v) (void)b.neighbors(v);
  EXPECT_GT(on->cache_stats().hits, hits_before);
}

}  // namespace
}  // namespace dgap::tier
