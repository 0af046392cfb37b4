// Adaptive ingest tuning: ingest-profile section geometry (fewer, larger
// sections for ingest-heavy configs; persisted in the root, adopted on
// reopen, pinned section count across resizes) plus the batched sort-key layout limits (batch_key.hpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/core/batch_key.hpp"
#include "src/core/dgap_store.hpp"
#include "src/graph/generators.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

std::string temp_pool(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("dgap_tuning_" + tag + ".pool"))
      .string();
}

std::uint64_t section_slots_of(const DgapStore& s) {
  return s.capacity_slots() / s.num_segments();
}

// --- batch sort-key layout (satellite: make_key guard) ----------------------

TEST(BatchKey, LayoutLimitsRoundTrip) {
  using namespace batchkey;
  // The largest representable home section and index survive the packing.
  const std::uint64_t home = kMaxKeySections - 1;
  const std::uint32_t idx = (1u << kIdxBits) - 1;
  const NodeId src = (1 << 20) + 12345;
  const std::uint64_t k = make_key(home, src, idx);
  EXPECT_EQ(key_home(k), home);
  EXPECT_EQ(key_idx(k), idx);
  EXPECT_EQ(key_group(k), (home << kSrcBits) |
                              (static_cast<std::uint64_t>(src) & kSrcMask));

  // The first section count past the limit wraps to 0 — two different
  // sections would collide, which is why update_batch_internal guards on
  // kMaxKeySections and falls back to the per-edge path.
  EXPECT_EQ(key_home(make_key(kMaxKeySections, 0, 0)), 0u);

  // Sources that alias in their low kSrcBits share a cluster but never a
  // home or index: the absorption loop separates them by real id.
  const NodeId alias = src + (1 << kSrcBits);
  EXPECT_EQ(make_key(home, src, idx), make_key(home, alias, idx));

  // Keys order by (home, src-low, idx) — the invariant the absorption
  // loop's grouping and chronological tiebreak depend on.
  EXPECT_LT(make_key(1, 5, 9), make_key(2, 0, 0));
  EXPECT_LT(make_key(1, 5, 9), make_key(1, 6, 0));
  EXPECT_LT(make_key(1, 5, 9), make_key(1, 5, 10));
}

// --- profile geometry at create ---------------------------------------------

TEST(IngestProfile, IngestHeavySelectsFewerLargerSections) {
  DgapOptions ob;
  ob.init_vertices = 1024;
  ob.init_edges = 16384;
  auto pool_b = PmemPool::create({.path = "", .size = 64 << 20});
  auto sb = DgapStore::create(*pool_b, ob);

  DgapOptions oh = ob;
  oh.ingest_profile = IngestProfile::ingest_heavy;
  auto pool_h = PmemPool::create({.path = "", .size = 64 << 20});
  auto sh = DgapStore::create(*pool_h, oh);

  EXPECT_EQ(section_slots_of(*sb), ob.segment_slots);
  // Same capacity estimate, split into the target section count: fewer,
  // larger sections than the balanced store.
  EXPECT_EQ(sh->num_segments(), kIngestHeavyTargetSections);
  EXPECT_LT(sh->num_segments(), sb->num_segments());
  EXPECT_EQ(section_slots_of(*sh),
            sh->capacity_slots() / kIngestHeavyTargetSections);
  EXPECT_GT(section_slots_of(*sh), section_slots_of(*sb));
  // The per-section edge log scales with the section size.
  const std::uint64_t ratio = section_slots_of(*sh) / ob.segment_slots;
  EXPECT_EQ(sh->options().elog_bytes, ob.elog_bytes * ratio);
  EXPECT_EQ(static_cast<int>(sh->options().ingest_profile),
            static_cast<int>(IngestProfile::ingest_heavy));
}

TEST(IngestProfile, SectionSlotsHintOverridesProfile) {
  DgapOptions o;
  o.init_vertices = 256;
  o.init_edges = 4096;
  o.ingest_profile = IngestProfile::ingest_heavy;
  o.section_slots_hint = 2048;  // explicit hint wins over the 8x default
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  auto store = DgapStore::create(*pool, o);
  EXPECT_EQ(section_slots_of(*store), 2048u);

  DgapOptions bad = o;
  bad.section_slots_hint = 1000;  // not a power of two
  auto pool2 = PmemPool::create({.path = "", .size = 64 << 20});
  EXPECT_THROW(DgapStore::create(*pool2, bad), std::invalid_argument);

  DgapOptions huge = o;  // past the section-size cap: capacity byte-size
  huge.section_slots_hint = kMaxSegmentSlots * 2;  // math must not overflow
  EXPECT_THROW(DgapStore::create(*pool2, huge), std::invalid_argument);
}

// --- resize honors the profile ----------------------------------------------

TEST(IngestProfile, ResizeGrowsSectionSizeNotSectionCount) {
  const auto stream = symmetrize(generate_rmat(512, 24000, 5));

  DgapOptions oh;
  oh.init_vertices = 64;
  oh.init_edges = 256;  // tiny estimate: growth forces several resizes
  oh.ingest_profile = IngestProfile::ingest_heavy;
  auto pool_h = PmemPool::create({.path = "", .size = 256 << 20});
  auto sh = DgapStore::create(*pool_h, oh);
  const std::uint64_t nseg0 = sh->num_segments();
  const std::uint64_t cap0 = sh->capacity_slots();
  const std::uint64_t ss0 = section_slots_of(*sh);
  sh->insert_batch(stream.edges());
  ASSERT_GE(sh->stats().resizes, 1u);
  EXPECT_GT(sh->capacity_slots(), cap0);
  // Ingest-heavy pins the section count and grows the section size.
  EXPECT_EQ(sh->num_segments(), nseg0);
  EXPECT_GT(section_slots_of(*sh), ss0);
  EXPECT_EQ(sh->num_edge_slots(), stream.edges().size());
  std::string why;
  EXPECT_TRUE(sh->check_invariants(&why)) << why;

  // Contrast: the balanced profile grows the section count instead.
  DgapOptions ob;
  ob.init_vertices = 64;
  ob.init_edges = 256;
  auto pool_b = PmemPool::create({.path = "", .size = 256 << 20});
  auto sb = DgapStore::create(*pool_b, ob);
  const std::uint64_t b_nseg0 = sb->num_segments();
  const std::uint64_t b_ss0 = section_slots_of(*sb);
  sb->insert_batch(stream.edges());
  ASSERT_GE(sb->stats().resizes, 1u);
  EXPECT_GT(sb->num_segments(), b_nseg0);
  EXPECT_EQ(section_slots_of(*sb), b_ss0);
}

// --- reopen adopts the persisted profile ------------------------------------

TEST(IngestProfile, ReopenWithMismatchedProfileAdoptsPersisted) {
  const std::string path = temp_pool("reopen");
  std::filesystem::remove(path);
  const auto stream = symmetrize(generate_rmat(128, 3000, 9));

  std::uint64_t nseg = 0;
  std::uint64_t ss = 0;
  {
    auto pool = PmemPool::create({.path = path, .size = 64 << 20});
    DgapOptions o;
    o.init_vertices = 1024;
    o.init_edges = 65536;  // big enough to pick a non-default geometry
    o.ingest_profile = IngestProfile::ingest_heavy;
    auto store = DgapStore::create(*pool, o);
    ASSERT_GT(section_slots_of(*store), o.segment_slots);
    store->insert_batch(stream.edges());
    nseg = store->num_segments();
    ss = section_slots_of(*store);
    store->shutdown();
  }
  {
    auto pool = PmemPool::open({.path = path});
    DgapOptions mismatched;  // balanced, 512-slot sections requested
    auto store = DgapStore::open(*pool, mismatched);
    // Geometry is durable: the persisted profile wins, the request is
    // never silently remapped onto the on-media layout.
    EXPECT_EQ(static_cast<int>(store->options().ingest_profile),
              static_cast<int>(IngestProfile::ingest_heavy));
    EXPECT_EQ(store->num_segments(), nseg);
    EXPECT_EQ(section_slots_of(*store), ss);
    EXPECT_EQ(store->options().segment_slots, ss);
    EXPECT_EQ(store->num_edge_slots(), stream.edges().size());
    // The adopted geometry keeps working: more ingest + invariants.
    store->insert_batch(std::vector<Edge>{{1, 2}, {3, 4}});
    std::string why;
    EXPECT_TRUE(store->check_invariants(&why)) << why;
  }
  std::filesystem::remove(path);
}

TEST(IngestProfile, BalancedPoolStaysBalancedUnderIngestHeavyRequest) {
  const std::string path = temp_pool("reopen_b");
  std::filesystem::remove(path);
  std::uint64_t nseg = 0;
  {
    auto pool = PmemPool::create({.path = path, .size = 64 << 20});
    DgapOptions o;
    o.init_vertices = 128;
    o.init_edges = 4096;
    auto store = DgapStore::create(*pool, o);
    nseg = store->num_segments();
    store->shutdown();
  }
  {
    auto pool = PmemPool::open({.path = path});
    DgapOptions heavy;
    heavy.ingest_profile = IngestProfile::ingest_heavy;
    auto store = DgapStore::open(*pool, heavy);
    EXPECT_EQ(static_cast<int>(store->options().ingest_profile),
              static_cast<int>(IngestProfile::balanced));
    EXPECT_EQ(store->num_segments(), nseg);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dgap::core
