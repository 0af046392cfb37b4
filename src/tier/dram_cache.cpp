#include "src/tier/dram_cache.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "src/obs/scoped_latency.hpp"
#include "src/obs/trace_ring.hpp"
#include "src/pmem/latency_model.hpp"

namespace dgap::tier {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#endif
}

// EWMA with alpha = 1/8 over per-section events; an event bumps its own
// rate and decays the opposite one, so the two values behave like relative
// frequencies with a steady-state ceiling of 8 * kEwmaStep.
constexpr std::uint32_t kEwmaStep = 256;
// Margin below which a section is considered neither hot nor churn-bound —
// cold sections always admit and are never protected from eviction.
constexpr std::uint32_t kEwmaSlack = 1024;

}  // namespace

SectionCache::SectionCache(std::uint64_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

void SectionCache::configure(std::uint64_t num_sections,
                             std::uint64_t section_slots) {
  num_sections_ = num_sections;
  section_slots_ = section_slots;
  const std::uint64_t frame_bytes = section_slots * sizeof(core::Slot);
  std::uint64_t frames = frame_bytes ? budget_bytes_ / frame_bytes : 0;
  frames = std::min(frames, num_sections);
  num_frames_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(frames, 1u << 22));

  free_.clear();
  lru_head_ = lru_tail_ = kNil;
  resident_ = 0;
  if (num_frames_ == 0) {
    data_.reset();
    frames_.reset();
    frame_p1_.reset();
    read_rate_.reset();
    churn_rate_.reset();
    return;
  }
  data_ = std::make_unique<core::Slot[]>(
      static_cast<std::uint64_t>(num_frames_) * section_slots_);
  frames_ = std::make_unique<Frame[]>(num_frames_);
  frame_p1_ = std::make_unique<std::atomic<std::uint32_t>[]>(num_sections_);
  read_rate_ = std::make_unique<std::atomic<std::uint32_t>[]>(num_sections_);
  churn_rate_ = std::make_unique<std::atomic<std::uint32_t>[]>(num_sections_);
  free_.reserve(num_frames_);
  // Reverse push: pop_back hands out frame 0 first (deterministic in tests).
  for (std::uint32_t f = num_frames_; f-- > 0;) free_.push_back(f);
}

void SectionCache::bump_read(std::uint64_t sec) {
  auto& r = read_rate_[sec];
  auto& c = churn_rate_[sec];
  const std::uint32_t rv = r.load(std::memory_order_relaxed);
  r.store(rv - rv / 8 + kEwmaStep, std::memory_order_relaxed);
  const std::uint32_t cv = c.load(std::memory_order_relaxed);
  c.store(cv - cv / 8, std::memory_order_relaxed);
}

void SectionCache::bump_churn(std::uint64_t sec) {
  auto& r = read_rate_[sec];
  auto& c = churn_rate_[sec];
  const std::uint32_t cv = c.load(std::memory_order_relaxed);
  c.store(cv - cv / 8 + kEwmaStep, std::memory_order_relaxed);
  const std::uint32_t rv = r.load(std::memory_order_relaxed);
  r.store(rv - rv / 8, std::memory_order_relaxed);
}

bool SectionCache::read_hot(std::uint64_t sec) const {
  const std::uint32_t r = read_rate_[sec].load(std::memory_order_relaxed);
  const std::uint32_t c = churn_rate_[sec].load(std::memory_order_relaxed);
  return r > 4 * c + kEwmaSlack;
}

bool SectionCache::should_admit(std::uint64_t sec) {
  if (num_frames_ == 0 || sec >= num_sections_) return false;
  const std::uint32_t r = read_rate_[sec].load(std::memory_order_relaxed);
  const std::uint32_t c = churn_rate_[sec].load(std::memory_order_relaxed);
  if (c > 4 * r + kEwmaSlack) {
    ++admit_rejects_;
    return false;
  }
  return true;
}

SectionCache::Pin SectionCache::acquire(std::uint64_t sec) {
  if (num_frames_ == 0 || sec >= num_sections_) return {};
  bump_read(sec);
  const std::uint32_t f1 = frame_p1_[sec].load(std::memory_order_acquire);
  if (f1 == 0) {
    ++misses_;
    return {};
  }
  Frame& fr = frames_[f1 - 1];
  // Pin FIRST, re-validate the mapping SECOND (both seq_cst): an evictor
  // clears the mapping (seq_cst) and then reads the pin count (seq_cst), so
  // either it observes our pin and waits, or we observe its clear and back
  // out — the frame is never reused under a reader.
  fr.readers.fetch_add(1, std::memory_order_seq_cst);
  if (frame_p1_[sec].load(std::memory_order_seq_cst) != f1) {
    fr.readers.fetch_sub(1, std::memory_order_release);
    ++misses_;
    return {};
  }
  if (mu_.try_lock()) {
    // Lazy LRU promotion: skipping under contention only blurs recency.
    if (fr.resident) {
      lru_unlink_locked(f1 - 1);
      lru_push_front_locked(f1 - 1);
    }
    mu_.unlock();
  }
  ++hits_;
  return {frame_data(f1 - 1), f1};
}

void SectionCache::release(const Pin& p) {
  if (p.frame_p1 == 0) return;
  frames_[p.frame_p1 - 1].readers.fetch_sub(1, std::memory_order_release);
}

void SectionCache::lru_unlink_locked(std::uint32_t f) {
  Frame& fr = frames_[f];
  if (fr.prev != kNil)
    frames_[fr.prev].next = fr.next;
  else if (lru_head_ == f)
    lru_head_ = fr.next;
  if (fr.next != kNil)
    frames_[fr.next].prev = fr.prev;
  else if (lru_tail_ == f)
    lru_tail_ = fr.prev;
  fr.prev = fr.next = kNil;
}

void SectionCache::lru_push_front_locked(std::uint32_t f) {
  Frame& fr = frames_[f];
  fr.prev = kNil;
  fr.next = lru_head_;
  if (lru_head_ != kNil) frames_[lru_head_].prev = f;
  lru_head_ = f;
  if (lru_tail_ == kNil) lru_tail_ = f;
}

std::uint32_t SectionCache::claim_frame_locked(std::uint64_t incoming_sec) {
  if (!free_.empty()) {
    const std::uint32_t f = free_.back();
    free_.pop_back();
    return f;
  }
  // Thrash-resistant admission, O(1) before any victim scan: the incumbent
  // keeps its frame unless the incoming section reads at least as hot as a
  // representative incumbent, the coldest-by-recency unpinned frame. Under
  // a uniform cyclic sweep larger than the cache every challenger ties its
  // victim, so the resident set FREEZES after warmup instead of churning
  // through populates that are evicted before they can be reused (LRU's
  // pathological case — and each fruitless populate is a real memcpy plus
  // a charged bulk read). Each rejected challenge ages the representative,
  // so a section that stops being read loses its frame after a bounded
  // number of challenges: the set stays adaptive, just not flappy.
  std::uint32_t probe = kNil;
  for (std::uint32_t f = lru_tail_; f != kNil; f = frames_[f].prev) {
    if (frames_[f].readers.load(std::memory_order_relaxed) != 0) continue;
    probe = f;
    break;
  }
  if (probe == kNil) return kNil;  // everything pinned
  const std::uint64_t probe_sec =
      frames_[probe].sec.load(std::memory_order_relaxed);
  if (probe_sec != kNoSec) {
    const std::uint32_t vr =
        read_rate_[probe_sec].load(std::memory_order_relaxed);
    const std::uint32_t ir =
        read_rate_[incoming_sec].load(std::memory_order_relaxed);
    if (vr > 0 && vr >= ir) {
      // Age on a cache-sized clock — one decay per num_frames_ rejected
      // challenges, not per challenge. Per-challenge aging re-opens the
      // thrash hole it is meant to close: under a cyclic sweep the tail
      // takes thousands of challenges between its own re-reads, so it
      // would always decay to admission before its next hit and the set
      // would churn anyway (just in slow motion). On this clock a section
      // that is still being read re-bumps faster than it decays and keeps
      // its frame; a dead one loses it after ~8 full challenge rounds.
      if (++veto_ticks_ >= num_frames_) {
        veto_ticks_ = 0;
        read_rate_[probe_sec].store(vr - vr / 8, std::memory_order_relaxed);
      }
      ++admit_rejects_;
      return kNil;
    }
  }
  const std::uint32_t victim = pick_victim_locked();
  if (victim == kNil) return kNil;
  unmap_frame_locked(victim);
  return victim;
}

std::uint32_t SectionCache::pick_victim_locked() {
  // From the cold end; protect pinned frames and (first pass) read-hot
  // sections, falling back to "any unpinned" so protection is bounded.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t f = lru_tail_; f != kNil; f = frames_[f].prev) {
      if (frames_[f].readers.load(std::memory_order_relaxed) != 0) continue;
      const std::uint64_t s = frames_[f].sec.load(std::memory_order_relaxed);
      if (pass == 0 && s != kNoSec && read_hot(s)) continue;
      return f;
    }
  }
  return kNil;
}

void SectionCache::unmap_frame_locked(std::uint32_t f) {
  Frame& fr = frames_[f];
  const std::uint64_t old_sec = fr.sec.load(std::memory_order_relaxed);
  if (old_sec != kNoSec) {
    // seq_cst unmap: pairs with the pin-then-revalidate in acquire().
    frame_p1_[old_sec].store(0, std::memory_order_seq_cst);
    ++evictions_;
  }
  lru_unlink_locked(f);
  fr.resident = false;
  --resident_;
  fr.sec.store(kNoSec, std::memory_order_relaxed);
}

SectionCache::Pin SectionCache::populate(std::uint64_t sec,
                                         const core::Slot* src) {
  if (num_frames_ == 0 || sec >= num_sections_) return {};
  // Re-probe under the section lock: a racing reader may have populated
  // between our miss and the lock acquisition (it would have held this
  // same lock), so just pin the existing frame.
  const std::uint32_t existing =
      frame_p1_[sec].load(std::memory_order_acquire);
  if (existing != 0) {
    Frame& fr = frames_[existing - 1];
    fr.readers.fetch_add(1, std::memory_order_seq_cst);
    if (frame_p1_[sec].load(std::memory_order_seq_cst) == existing)
      return {frame_data(existing - 1), existing};
    fr.readers.fetch_sub(1, std::memory_order_release);
  }
  // Latency samples start here, past the re-probe hit path above, so the
  // populate histogram only measures true frame fills (claim + drain +
  // bulk copy) and the evict histogram just the victim selection/unmap.
  const obs::ScopedLatency populate_lat(&populate_hist_);
  std::uint32_t f = kNil;
  {
    const obs::ScopedLatency evict_lat(&evict_hist_);
    std::lock_guard<SpinLock> g(mu_);
    f = claim_frame_locked(sec);
    if (f == kNil) return {};
    ++resident_;  // reserved; published below
  }
  Frame& fr = frames_[f];
  // Stragglers that pinned before the unmap must drain before we overwrite.
  while (fr.readers.load(std::memory_order_seq_cst) != 0) cpu_relax();
  // One sequential bulk read replaces the per-vertex scattered reads this
  // frame will absorb; charge it to the model like any other pmem read.
  pmem::latency_model().on_read(
      src, (section_slots_ * sizeof(core::Slot) + kCacheLineSize - 1) /
               kCacheLineSize);
  std::memcpy(frame_data(f), src, section_slots_ * sizeof(core::Slot));
  fr.sec.store(sec, std::memory_order_relaxed);
  // fetch_add, not store: a backing-out straggler may still transit +1/-1.
  fr.readers.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<SpinLock> g(mu_);
    fr.resident = true;
    lru_push_front_locked(f);
    // Release: the memcpy above is visible to any reader that sees this.
    frame_p1_[sec].store(f + 1, std::memory_order_release);
  }
  ++populates_;
  return {frame_data(f), f + 1};
}

void SectionCache::write_through(std::uint64_t sec, std::uint64_t off,
                                 core::Slot v) {
  if (num_frames_ == 0 || sec >= num_sections_) return;
  bump_churn(sec);
  const std::uint32_t f1 = frame_p1_[sec].load(std::memory_order_acquire);
  if (f1 == 0) return;
  Frame& fr = frames_[f1 - 1];
  fr.readers.fetch_add(1, std::memory_order_seq_cst);
  if (frame_p1_[sec].load(std::memory_order_seq_cst) == f1) {
    // Plain store: readers only index slots covered by an arr_count the
    // caller release-publishes AFTER this returns.
    frame_data(f1 - 1)[off] = v;
    ++write_updates_;
  }
  fr.readers.fetch_sub(1, std::memory_order_release);
}

void SectionCache::write_through_range(std::uint64_t sec, std::uint64_t off,
                                       const core::Slot* src,
                                       std::uint64_t n) {
  if (num_frames_ == 0 || sec >= num_sections_ || n == 0) return;
  bump_churn(sec);
  const std::uint32_t f1 = frame_p1_[sec].load(std::memory_order_acquire);
  if (f1 == 0) return;
  Frame& fr = frames_[f1 - 1];
  fr.readers.fetch_add(1, std::memory_order_seq_cst);
  if (frame_p1_[sec].load(std::memory_order_seq_cst) == f1) {
    std::memcpy(frame_data(f1 - 1) + off, src, n * sizeof(core::Slot));
    write_updates_ += n;
  }
  fr.readers.fetch_sub(1, std::memory_order_release);
}

void SectionCache::invalidate(std::uint64_t sec) {
  if (num_frames_ == 0 || sec >= num_sections_) return;
  bump_churn(sec);
  const std::uint32_t f1 = frame_p1_[sec].load(std::memory_order_acquire);
  if (f1 == 0) return;
  obs::trace_instant(obs::TraceKind::evict_invalidate, sec);
  frame_p1_[sec].store(0, std::memory_order_seq_cst);
  Frame& fr = frames_[f1 - 1];
  // Under the structural gate reader lanes are drained, so this returns
  // immediately; the loop keeps the method safe if ever called elsewhere.
  while (fr.readers.load(std::memory_order_seq_cst) != 0) cpu_relax();
  fr.sec.store(kNoSec, std::memory_order_relaxed);
  {
    std::lock_guard<SpinLock> g(mu_);
    if (fr.resident) {
      fr.resident = false;
      --resident_;
      lru_unlink_locked(f1 - 1);
      free_.push_back(f1 - 1);
    }
  }
  ++invalidations_;
}

void SectionCache::register_metrics(const std::string& prefix) {
  metric_handles_.clear();
  obs::MetricsRegistry& reg = obs::registry();
  const auto gauge = [&](const char* name,
                         const StatCell<std::uint64_t>& cell) {
    metric_handles_.push_back(reg.add_gauge(
        prefix + name, [&cell] { return static_cast<double>(cell.load()); }));
  };
  // Hit/evict/veto visibility over time (cache warmth), not just the
  // end-of-run CacheStats aggregate.
  gauge("hits", hits_);
  gauge("misses", misses_);
  gauge("evictions", evictions_);
  gauge("populates", populates_);
  gauge("admit_rejects", admit_rejects_);
  gauge("stream_bypasses", stream_bypasses_);
  gauge("write_updates", write_updates_);
  gauge("invalidations", invalidations_);
  metric_handles_.push_back(reg.add_gauge(
      prefix + "resident", [this] { return static_cast<double>(stats().resident); }));
  metric_handles_.push_back(reg.add_histogram(
      prefix + "populate_ns", [this] { return populate_hist_.snapshot(); }));
  metric_handles_.push_back(reg.add_histogram(
      prefix + "evict_ns", [this] { return evict_hist_.snapshot(); }));
}

CacheStats SectionCache::stats() const {
  CacheStats s;
  s.hits = hits_.load();
  s.misses = misses_.load();
  s.evictions = evictions_.load();
  s.populates = populates_.load();
  s.admit_rejects = admit_rejects_.load();
  s.stream_bypasses = stream_bypasses_.load();
  s.write_updates = write_updates_.load();
  s.invalidations = invalidations_.load();
  s.capacity_bytes = budget_bytes_;
  s.frame_bytes = section_slots_ * sizeof(core::Slot);
  s.frames = num_frames_;
  {
    std::lock_guard<SpinLock> g(mu_);
    s.resident = resident_;
  }
  return s;
}

}  // namespace dgap::tier
