// DRAM hot tier for adjacency sections (ROADMAP "Tiered storage").
//
// A SectionCache is a bounded pool of DRAM frames, each holding one full
// edge-array section (seg_slots slots). The pmem edge array remains the
// single source of truth: the cache is written THROUGH, never back, so crash
// recovery is byte-identical with the cache on or off — frames are pure
// read-path accelerators that die with the process.
//
// Concurrency contract (who may call what):
//
//   * acquire()/release(): snapshot readers, inside a reader-gate lane, no
//     locks held. A hit pins the frame (per-frame reader count) and
//     re-validates the section->frame mapping AFTER pinning, so a concurrent
//     eviction either waits for the pin or was observed by the re-check.
//     Slot visibility needs no frame fences: a reader only dereferences
//     slots covered by an arr_count it acquired, and the writer stored the
//     frame copy before release-publishing that count (the same edge the
//     pmem read path relies on).
//   * populate(): snapshot readers on a miss, holding the section's WRITER
//     lock (try_lock — never block inside a reader lane). The lock excludes
//     appenders for the miss-copy window, closing the "memcpy missed a slot
//     the writer published" race: any append after the lock drops sees the
//     published mapping and updates the frame itself.
//   * write_through()/write_through_range(): plain/batch writers, holding
//     the section's writer lock, BEFORE they release-publish arr_count.
//   * invalidate()/configure(): structural ops (window rebalance, nearby
//     shift, resize layout flip) under the structural gate — reader lanes
//     are drained, so the only concurrency left is the pin of a reader that
//     already exited (none) — and store create/open before readers exist.
//
// Placement policy: victims come from the cold end of an LRU list.
// Per-section read/churn EWMAs (the arrival-rate idiom from the ingest
// autotuner) gate admission — a section whose writes dwarf its reads is not
// worth a frame — and give read-hot sections bounded protection from
// eviction, so a cold sequential scan cannot flush the resident hot set.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/spinlock.hpp"
#include "src/common/stat_cell.hpp"
#include "src/core/encoding.hpp"
#include "src/obs/latency_histogram.hpp"
#include "src/obs/metrics_registry.hpp"

namespace dgap::tier {

// Aggregatable counter snapshot (the --dram-cache bench section sums it
// across datasets).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t populates = 0;      // frames filled from pmem
  std::uint64_t admit_rejects = 0;  // misses the placement policy bypassed
  std::uint64_t stream_bypasses = 0;  // misses served without admission
                                      // because a StreamingReadScope
                                      // (tier/streaming.hpp) was live
  std::uint64_t write_updates = 0;  // write-through slot updates applied
  std::uint64_t invalidations = 0;  // frames dropped by structural ops
  std::uint64_t capacity_bytes = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t resident = 0;  // frames currently holding a section

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    populates += o.populates;
    admit_rejects += o.admit_rejects;
    stream_bypasses += o.stream_bypasses;
    write_updates += o.write_updates;
    invalidations += o.invalidations;
    capacity_bytes += o.capacity_bytes;
    frame_bytes += o.frame_bytes;
    frames += o.frames;
    resident += o.resident;
    return *this;
  }
};

class SectionCache {
 public:
  explicit SectionCache(std::uint64_t budget_bytes);
  SectionCache(const SectionCache&) = delete;
  SectionCache& operator=(const SectionCache&) = delete;

  // (Re)shape the cache for a layout: `num_sections` sections of
  // `section_slots` slots each. Drops every frame — callers invoke this on
  // layout adoption (create/open/resize), where the old sections' identities
  // are void anyway. Not thread-safe; see the concurrency contract above.
  void configure(std::uint64_t num_sections, std::uint64_t section_slots);

  // A pinned view of one cached section. data points at slot 0 of the
  // section; valid until release().
  struct Pin {
    const core::Slot* data = nullptr;
    std::uint32_t frame_p1 = 0;
    explicit operator bool() const { return data != nullptr; }
  };

  // Read-path probe: pins and returns the frame on a hit, null on a miss
  // (also counts the access and feeds the placement EWMAs).
  Pin acquire(std::uint64_t sec);
  void release(const Pin& p);

  // Placement decision for a miss: false when the section's churn EWMA
  // dominates its read EWMA (write-hot section — caching it would thrash).
  [[nodiscard]] bool should_admit(std::uint64_t sec);

  // A miss was served without admission because the reader declared itself
  // streaming (tier/streaming.hpp): count it, nothing else — notably the
  // read EWMA already ticked in acquire(), so a later non-streaming reader
  // still sees the section as read-warm.
  void note_stream_bypass() { stream_bypasses_.add(1); }

  // Cold-tier promotion hook: a just-promoted section is hot by definition
  // (an access triggered the promotion), so the owner offers its fresh pmem
  // image for admission without waiting for a second miss. Same contract as
  // populate() — caller holds the section's writer lock — but the admission
  // veto still applies and the returned pin is dropped internally.
  void admit_promoted(std::uint64_t sec, const core::Slot* src) {
    if (!active()) return;
    if (!should_admit(sec)) return;
    const Pin p = populate(sec, src);
    if (p) release(p);
  }

  // Fill a frame with the section's pmem image (`src` = slot 0). Caller
  // MUST hold the section's writer lock across the call. Returns a pinned
  // view, or a null Pin when no frame could be claimed (all pinned /
  // protected). Charges the bulk read to the pmem latency model — one
  // sequential stream instead of the per-vertex scattered reads it saves.
  Pin populate(std::uint64_t sec, const core::Slot* src);

  // Writer-side mirror of slot stores, under the section's writer lock and
  // BEFORE the arr_count release-publish that makes them readable.
  void write_through(std::uint64_t sec, std::uint64_t off, core::Slot v);
  void write_through_range(std::uint64_t sec, std::uint64_t off,
                           const core::Slot* src, std::uint64_t n);

  // Drop a section's frame (structural data movement made it stale).
  // Caller holds the structural gate.
  void invalidate(std::uint64_t sec);

  [[nodiscard]] bool active() const { return num_frames_ != 0; }
  [[nodiscard]] CacheStats stats() const;

  // Latency distributions (ns): frame fill (populate miss path) and victim
  // selection/unmap (claim inside populate).
  [[nodiscard]] obs::HistogramSnapshot populate_latency() const {
    return populate_hist_.snapshot();
  }
  [[nodiscard]] obs::HistogramSnapshot evict_latency() const {
    return evict_hist_.snapshot();
  }

  // Publish this cache's counters/gauges/histograms under `prefix` (the
  // owning store's instance-scoped name). Called once by the owner after
  // construction; the handles deregister with the cache.
  void register_metrics(const std::string& prefix);

 private:
  static constexpr std::uint64_t kNoSec = ~std::uint64_t{0};
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct alignas(kCacheLineSize) Frame {
    std::atomic<std::uint64_t> sec{kNoSec};
    std::atomic<std::uint32_t> readers{0};
    // LRU intrusive list links + residency, guarded by mu_.
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool resident = false;
  };

  [[nodiscard]] core::Slot* frame_data(std::uint32_t f) const {
    return data_.get() + static_cast<std::uint64_t>(f) * section_slots_;
  }
  // Pick and unmap a victim frame for `incoming_sec`; returns kNil when
  // nothing is evictable OR the best victim still reads at least as hot as
  // the incoming section (thrash-resistant admission). Caller holds mu_.
  std::uint32_t claim_frame_locked(std::uint64_t incoming_sec);
  // LRU scan for an evictable frame (no admission veto); kNil when every
  // candidate is pinned. Caller holds mu_.
  std::uint32_t pick_victim_locked();
  // Clear a frame's mapping + LRU links (seq_cst unmap pairing with the
  // pin-then-revalidate in acquire()). Caller holds mu_.
  void unmap_frame_locked(std::uint32_t f);
  void lru_unlink_locked(std::uint32_t f);
  void lru_push_front_locked(std::uint32_t f);
  [[nodiscard]] bool read_hot(std::uint64_t sec) const;
  void bump_read(std::uint64_t sec);
  void bump_churn(std::uint64_t sec);

  const std::uint64_t budget_bytes_;

  std::uint64_t num_sections_ = 0;
  std::uint64_t section_slots_ = 0;
  std::uint32_t num_frames_ = 0;

  std::unique_ptr<core::Slot[]> data_;
  std::unique_ptr<Frame[]> frames_;
  // Section -> frame index + 1 (0 = not cached). Readers load it lock-free.
  std::unique_ptr<std::atomic<std::uint32_t>[]> frame_p1_;
  // Placement EWMAs (relaxed; racy updates only blur the heuristic).
  std::unique_ptr<std::atomic<std::uint32_t>[]> read_rate_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> churn_rate_;

  // Guards the LRU list, free list and residency. Never held while copying
  // section data.
  mutable SpinLock mu_;
  std::vector<std::uint32_t> free_;
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
  std::uint32_t resident_ = 0;
  // Rejected-challenge counter driving incumbent aging (one decay per
  // num_frames_ vetoes; see claim_frame_locked).
  std::uint32_t veto_ticks_ = 0;

  mutable StatCell<std::uint64_t> hits_;
  mutable StatCell<std::uint64_t> misses_;
  mutable StatCell<std::uint64_t> evictions_;
  mutable StatCell<std::uint64_t> populates_;
  mutable StatCell<std::uint64_t> admit_rejects_;
  mutable StatCell<std::uint64_t> stream_bypasses_;
  mutable StatCell<std::uint64_t> write_updates_;
  mutable StatCell<std::uint64_t> invalidations_;

  obs::LatencyHistogram populate_hist_;
  obs::LatencyHistogram evict_hist_;
  std::vector<obs::MetricsRegistry::Handle> metric_handles_;
};

}  // namespace dgap::tier
