// DGAP configuration knobs (paper §3.1.1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/common/platform.hpp"
#include "src/graph/types.hpp"
#include "src/pma/thresholds.hpp"

namespace dgap::core {

// Section-geometry profile for the batched fast path (ROADMAP PR 1
// follow-up). Small-batch speedup is section-collision-bound: a batch's
// sources spread over many small sections pay one lock + one flush range
// per section group. `ingest_heavy` selects FEWER, LARGER sections (and a
// proportionally larger per-section edge log), so the same batch lands in
// fewer groups and the one-lock/one-fence savings survive small batches.
// The chosen profile is persisted in the pool root; reopening with a
// different profile adopts the persisted one (geometry is part of the
// durable format — it must never be silently remapped).
enum class IngestProfile : std::uint8_t {
  balanced = 0,      // paper defaults: analysis-friendly 512-slot sections
  ingest_heavy = 1,  // ~kIngestHeavyTargetSections large sections; the
                     // count is pinned at resize (sections grow instead)
};

struct DgapOptions {
  // User estimates; the store grows past both automatically.
  NodeId init_vertices = 1024;          // INIT_VERTICES_SIZE
  std::uint64_t init_edges = 16 * 1024;  // INIT_EDGES_SIZE

  // Per-section edge log bytes (ELOG_SZ) — paper default 2 KB.
  std::uint32_t elog_bytes = 2048;
  // Per-thread undo log bytes (ULOG_SZ) — paper default 2 KB.
  std::uint32_t ulog_bytes = 2048;
  // Writer threads the store must support concurrently (one undo log each).
  std::uint32_t max_writer_threads = 16;

  // PMA shape.
  std::uint64_t segment_slots = 512;  // slots per leaf section (power of two)
  pma::DensityConfig density;

  // Ingest-profile section geometry: resolve_ingest_profile() below maps
  // the profile onto segment_slots/elog_bytes/density at create time.
  IngestProfile ingest_profile = IngestProfile::balanced;
  // Explicit slots-per-section override (power of two); 0 = profile
  // default. Takes precedence over the profile's section-size choice.
  std::uint64_t section_slots_hint = 0;

  // Edge log merge trigger: fraction of the log that must fill before the
  // section is merged back into the edge array (paper: 90%).
  double elog_merge_fill = 0.90;

  // VCSR-style degree-proportional gap distribution during rebalances
  // (paper [24]); false falls back to classic even PMA spreading (PCSR
  // [66]) — an ablation of the paper's layout choice.
  bool vcsr_weighted_gaps = true;

  // Disable ALL crash protection of structural operations (no undo log, no
  // transactions, no backups). Used only by the Fig 1(b) motivation bench
  // to time a "naive port" whose rebalances/shifts write unprotected —
  // never use on data you care about.
  bool protect_structural_ops = true;

  // --- DRAM hot tier (src/tier/dram_cache.hpp) ------------------------------
  // DRAM budget for the section read cache; 0 disables the tier entirely
  // (no hooks on any path). Purely volatile: the knob is not persisted and
  // may differ between runs over the same pool — pmem stays the only source
  // of truth and recovery never sees the cache.
  std::uint32_t dram_cache_mb = 0;
  // Byte-granular override (takes precedence when non-zero); tests and the
  // benchmark use it to size budgets below one MB.
  std::uint64_t dram_cache_bytes = 0;

  // --- SSD cold tier (src/tier/cold_tier.hpp) -------------------------------
  // Demote cold+write-quiet sections from the pmem pool to a backing file
  // and serve/promote them on access, so graphs whose
  // edge array exceeds the pool's physical budget stay serveable. The
  // residency map is persisted (crash-safe; see persistent_layout.hpp);
  // these knobs themselves are volatile and may differ between runs.
  bool cold_tier = false;
  // Backing file; empty derives pool path + ".cold" (durable pools) or an
  // unlinked temp file (anonymous pools).
  std::string cold_tier_path;
  // Resident-bytes target the demotion pass enforces. 0 = the pool's full
  // size (the tier then only demotes what explicit/debug passes ask for).
  // Benches that overcommit the pool's virtual size set this to the
  // physical --pool-mb budget.
  std::uint64_t cold_tier_budget_bytes = 0;

  // --- ablation switches (paper Table 5) -----------------------------------
  // false => "No EL": inserts landing on occupied slots do a nearby shift.
  bool use_elog = true;
  // false => "No EL&UL": rebalancing uses PMDK-style transactions instead of
  // the per-thread undo log.
  bool use_ulog = true;
  // false => "No EL&UL&DP": vertex array + PMA metadata updates are mirrored
  // to persistent memory with in-place persists (cost emulation of keeping
  // them on PM rather than DRAM).
  bool metadata_in_dram = true;
};

// ingest_heavy sizes sections so the INITIAL array has about this many of
// them, and resizes then pin the count (rebalance.cpp grows the section
// size instead). The win scales with edges-per-section-group: with ~16
// sections, even a 256-edge batch averages ~16 edges per group, so the
// one-lock/one-flush-range-per-group savings survive small batches at any
// graph scale (a fixed size multiplier decays as capacity grows past it —
// measured on fig6: the same hinted section size gave orkut 1.57x but
// citpatents only 1.14x because their capacities differ 4x). Fewer
// sections also means fewer writer locks: fine for the batched/async
// ingest this profile targets, wrong for many concurrent per-edge writers
// — that is what `balanced` is for.
inline constexpr std::uint64_t kIngestHeavyTargetSections = 16;
// Sections stop growing past this many slots even under ingest_heavy
// resizes (past this, section count grows again like the balanced profile).
inline constexpr std::uint64_t kMaxSegmentSlots = 1ull << 22;

// Effective DRAM hot-tier budget in bytes (0 = tier disabled).
inline std::uint64_t resolve_cache_bytes(const DgapOptions& o) {
  if (o.dram_cache_bytes != 0) return o.dram_cache_bytes;
  return static_cast<std::uint64_t>(o.dram_cache_mb) << 20;
}

// Resolve the effective create-time geometry for the chosen profile /
// section-size hint. Called once, at store create — open adopts the
// persisted layout instead (and the PMA density bounds then interpolate
// over the adopted geometry's tree height, so the thresholds follow the
// profile without separate knobs; profile-specific tau/rho clamps were
// measured strictly slower on fig6 and deliberately dropped).
inline DgapOptions resolve_ingest_profile(const DgapOptions& in) {
  DgapOptions o = in;
  std::uint64_t target = o.segment_slots;
  if (o.section_slots_hint != 0) {
    target = o.section_slots_hint;
  } else if (o.ingest_profile == IngestProfile::ingest_heavy) {
    // Mirror init_fresh's capacity estimate (~50% initial density) and
    // split it into the target section count.
    const std::uint64_t needed =
        static_cast<std::uint64_t>(std::max<NodeId>(o.init_vertices, 0)) +
        o.init_edges;
    const std::uint64_t cap = ceil_pow2(
        std::max<std::uint64_t>(needed * 2, o.segment_slots * 2));
    target = std::min(
        std::max(cap / kIngestHeavyTargetSections, o.segment_slots),
        kMaxSegmentSlots);
  }
  if (target != o.segment_slots && o.segment_slots > 0) {
    // Scale the per-section edge log with the section so the merge trigger
    // still fires after a comparable per-slot fill.
    const double ratio = static_cast<double>(target) /
                         static_cast<double>(o.segment_slots);
    const auto scaled =
        static_cast<std::uint64_t>(static_cast<double>(o.elog_bytes) * ratio);
    o.elog_bytes = static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(scaled, 256, 1u << 20));
    o.segment_slots = target;
  }
  return o;
}

}  // namespace dgap::core
