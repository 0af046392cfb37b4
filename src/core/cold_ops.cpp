// SSD cold-tier protocol: which pmem bytes move when, under which locks and
// reader gates, and when the persisted residency word flips (mechanics —
// file format, pread/pwrite transport, EWMAs — live in src/tier/cold_tier.*).
//
// Residency state machine (one persisted u64 per section, bit 63 = cold,
// bits 0..62 = generation):
//
//   resident(g) --demote--> cold(g+1) --promote--> resident(g+1) --...
//
// Demotion (cold_demote_one, under rebalance_mu_ + the section's writer
// lock):
//   1. eligibility: resident AND elog_raw == 0. The empty-elog requirement
//      makes the pmem release content-preserving: a punched page reads back
//      zeros, and zeros ARE the valid image of an empty elog, so only the
//      slot range needs a file image.
//   2. write the slot image + generation stamp to the cold file, fdatasync.
//      Readers are untouched so far — pmem is still authoritative.
//   3. under a full structural gate (readers drained): invalidate the DRAM
//      frame, flip the residency word to cold(g+1) (release store) and
//      persist it, then release the physical pages of the slots + elog.
//      A page is punched only once every section it holds bytes of is
//      released (sections smaller than a page share pages), so the budget
//      pass demotes the sections of one slot page together.
//   COMMIT POINT is the persisted word flip: a crash before it leaves the
//   word resident and pmem intact (the file image is simply ignored — a
//   torn demotion costs nothing); a crash after it recovers from the file,
//   whose image + matching generation were durable strictly earlier.
//
// Promotion (ensure_resident_locked, under the section's writer lock):
//   0. un-release the section: every punched page it shares is taken back
//      (a neighbour's demotion can no longer punch it under the rewrite).
//   1. read the file image back into the pmem slots, persist.
//   2. flip the word to resident(g) (generation kept) and persist it.
//   A crash between 1 and 2 leaves the word cold — recovery re-reads the
//   file, which still matches generation g. No torn state exists. The word
//   flip cannot leak an un-persisted "resident" to a writer that then
//   persists new slots: the promoting thread holds the section's writer
//   lock across both steps, so no writer can append until the flip is
//   durable.
//
// Lock-free cold reads (cold_image_if_cold / cold_probe_slot) revalidate the
// residency word around the file read: the image of section s is only ever
// rewritten by a demotion, a demotion requires s to be RESIDENT first, and
// every demotion bumps the generation — so observing the identical cold(g)
// word before and after the read proves no writer touched the image in
// between (an in-flight promotion only READS the file; an ABA would need a
// promote + re-demote cycle, which changes g). Generations are monotone and
// never reused within a layout.
//
// The same argument lets a thread keep the image it read: while the word
// still reads cold(g), the section is byte-for-byte what was validated, so
// a later read of it — by any kernel, through any snapshot — is served from
// that thread's copy with no file I/O. The reuse key is (store instance,
// layout epoch, section, word): a resize starts a fresh residency map whose
// generations restart at 0, and instance ids are never reused, so neither
// a resize nor a second store can present a matching key for other bytes.
//
// Read-triggered promotion is scan-resistant (cold_read_may_promote): a
// read may promote into free budget headroom, or when its section reads
// clearly hotter than the next eviction victim. Iterative kernels sweep
// every section each pass; promoting on every cold read would evict an
// equally hot section (fdatasync + full reader-gate drain) that the next
// pass promotes back.
//
// Lock ordering (consistent with rebalance.cpp): rebalance_mu_ -> budget
// token -> section locks -> structural gate. The async promote task takes
// ONLY a section lock — taking the budget token there would deadlock
// against a resize that holds the token while waiting for section locks.
#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/dgap_store.hpp"
#include "src/obs/scoped_latency.hpp"
#include "src/sched/task_scheduler.hpp"

namespace dgap::core {

struct detail::ColdImage {
  std::uint64_t instance = 0;  // 0 = empty (store instance ids start at 1)
  std::uint64_t epoch = 0;
  std::uint64_t sec = 0;
  std::uint64_t word = 0;
  std::vector<Slot> slots;
};

namespace {
// This thread's cold-section images, one per emit nesting level.
struct ColdImageStack {
  std::vector<std::unique_ptr<detail::ColdImage>> levels;
  std::size_t depth = 0;
};
thread_local ColdImageStack t_cold_images;

// A read promotion past the budget headroom must read at least this many
// times as hot as the next eviction victim (plus one, so an unread victim
// still takes a few reads of evidence). Constant on purpose: it only has
// to separate "hot" from "ties under a sweep", like the DRAM tier's
// admission veto.
constexpr std::uint64_t kColdPromoteLead = 4;

// Demotion victim score: reads dominate (a read-hot section must never
// leave pmem), churn weighted heavier because promoting for a WRITE also
// pays the persist-back. Plain sum of saturating EWMAs — ordering is all
// that matters.
std::uint64_t heat_score(std::uint32_t read_rate, std::uint32_t churn_rate) {
  return static_cast<std::uint64_t>(read_rate) +
         4ull * static_cast<std::uint64_t>(churn_rate);
}
}  // namespace

void DgapStore::cold_attach() {
  if (!opts_.cold_tier) return;

  tier::ColdTierConfig cfg;
  cfg.path = opts_.cold_tier_path;
  if (cfg.path.empty() && !pool_.path().empty())
    cfg.path = pool_.path() + ".cold";
  cfg.layout_id = root_->layout_off;
  cfg.num_sections = num_segments_;
  cfg.section_bytes = seg_slots_ * sizeof(Slot);
  cold_ = std::make_unique<tier::ColdTier>(cfg);
  cold_budget_bytes_.store(opts_.cold_tier_budget_bytes != 0
                               ? opts_.cold_tier_budget_bytes
                               : pool_.size(),
                           std::memory_order_relaxed);

  // Replay the persisted residency map: every cold section must have a
  // matching image in the backing file (the flip-after-durable protocol
  // guarantees it for any crash point), and its pmem pages are re-released
  // so resident_bytes() accounting restarts correct. A residency map with
  // cold sections but a missing/mismatched file is real data loss — refuse
  // to open rather than serve zeros.
  {
    std::lock_guard<SpinLock> g(cold_page_mu_);
    cold_released_.assign(num_segments_, 0);
  }
  std::uint64_t cold_count = 0;
  for (std::uint64_t sec = 0; sec < num_segments_; ++sec) {
    const std::uint64_t w = cold_residency_word(sec);
    if (!residency_is_cold(w)) continue;
    if (!cold_->adopted_existing())
      throw std::runtime_error(
          "cold tier: residency map has demoted sections but the backing "
          "file does not match this pool/layout");
    if (cold_->file_gen(sec) != residency_gen(w))
      throw std::runtime_error(
          "cold tier: image generation mismatch for a demoted section");
    cold_release_pages(sec);
    ++cold_count;
  }
  cold_->set_cold_sections(cold_count);
}

std::uint64_t DgapStore::cold_residency_word(std::uint64_t sec) const {
  return std::atomic_ref<std::uint64_t>(residency_[sec])
      .load(std::memory_order_acquire);
}

bool DgapStore::cold_is_cold(std::uint64_t sec) const {
  return cold_ != nullptr && residency_is_cold(cold_residency_word(sec));
}

void detail::ColdImageLease::acquire() {
  ColdImageStack& st = t_cold_images;
  if (st.depth == st.levels.size())
    st.levels.push_back(std::make_unique<ColdImage>());
  img_ = st.levels[st.depth++].get();
}

void detail::ColdImageLease::release() { --t_cold_images.depth; }

const Slot* DgapStore::cold_image_if_cold(
    std::uint64_t sec, detail::ColdImageLease& lease) const {
  std::uint64_t w = cold_residency_word(sec);
  if (DGAP_LIKELY(!residency_is_cold(w))) {
    // Feeds the victim score: a section being read stops looking demotable.
    cold_->note_read(sec);
    return nullptr;
  }
  detail::ColdImage& img = lease.image();
  const std::uint64_t epoch = layout_epoch();
  if (img.instance == instance_id_ && img.epoch == epoch && img.sec == sec &&
      img.word == w) {
    cold_->count_read_reuse();
    return img.slots.data();
  }
  img.instance = 0;  // unkeyed until the new image validates
  img.slots.resize(seg_slots_);
  for (;;) {
    cold_->read_section(sec, img.slots.data());
    const std::uint64_t w2 = cold_residency_word(sec);
    if (w2 == w) break;  // image provably untouched during the read
    cold_->count_read_retry();
    if (!residency_is_cold(w2)) return nullptr;  // promoted under us: pmem
    w = w2;
  }
  img.instance = instance_id_;
  img.epoch = epoch;
  img.sec = sec;
  img.word = w;
  // Only file reads count toward a cold section's heat: a section one
  // thread walks vertex by vertex costs one read, not one per vertex.
  cold_->note_read(sec);
  cold_->count_cold_read(seg_slots_ * sizeof(Slot));
  std::uint64_t reserved = 0;
  if (cold_read_may_promote(sec, reserved))
    cold_schedule_promote(sec, reserved);
  return img.slots.data();
}

bool DgapStore::cold_read_may_promote(std::uint64_t sec,
                                      std::uint64_t& reserved) const {
  const std::uint64_t need = cold_reclaimable_bytes(sec);
  const std::uint64_t budget =
      cold_budget_bytes_.load(std::memory_order_relaxed);
  std::uint64_t held = cold_promote_reserved_.load(std::memory_order_relaxed);
  while (pool_.resident_bytes() + held + need <= budget) {
    if (cold_promote_reserved_.compare_exchange_weak(
            held, held + need, std::memory_order_relaxed)) {
      reserved = need;
      return true;
    }
  }
  const std::uint64_t mark = cold_evict_mark_.load(std::memory_order_relaxed);
  if (mark < cold_->num_sections()) {
    const std::uint64_t victim =
        heat_score(cold_->read_rate(mark), cold_->churn_rate(mark));
    if (cold_->read_rate(sec) > kColdPromoteLead * (victim + 1)) return true;
  }
  cold_->count_promote_veto();
  return false;
}

Slot DgapStore::cold_probe_slot(std::uint64_t pos) const {
  const std::uint64_t sec = sec_of(pos);
  if (cold_ == nullptr) return slots_[pos];
  for (;;) {
    const std::uint64_t w = cold_residency_word(sec);
    if (DGAP_LIKELY(!residency_is_cold(w))) return slots_[pos];
    const Slot s = cold_->read_slot_word(sec, pos - (sec << seg_shift_));
    if (cold_residency_word(sec) == w) return s;
    cold_->count_read_retry();
  }
}

void DgapStore::ensure_resident_locked(std::uint64_t sec) {
  if (cold_ == nullptr) return;
  const std::uint64_t w = cold_residency_word(sec);
  if (DGAP_LIKELY(!residency_is_cold(w))) return;
  const obs::ScopedLatency lat(&cold_->promote_hist());
  if (cold_->file_gen(sec) != residency_gen(w))
    throw std::runtime_error(
        "cold tier: image generation mismatch on promote");

  // The elog tail was empty at demotion and nothing could write it while
  // cold (writers promote first): its punched pages read back zero, which
  // IS its content — nothing to restore, just take the pages back.
  const std::uint64_t reclaimed = cold_reclaim_pages(sec);
  Slot* dst = slots_ + (sec << seg_shift_);
  cold_->read_section(sec, dst);
  pool_.persist(dst, seg_slots_ * sizeof(Slot));  // durable BEFORE the flip
  std::atomic_ref<std::uint64_t>(residency_[sec])
      .store(residency_gen(w), std::memory_order_release);
  pool_.persist(&residency_[sec], sizeof(std::uint64_t));
  cold_->count_promotion(reclaimed);
  // The section is hot by definition (an access got us here) — offer it to
  // the DRAM tier without waiting for a second miss.
  if (cache_ != nullptr) cache_->admit_promoted(sec, dst);
}

void DgapStore::cold_promote(std::uint64_t sec) {
  if (cold_ == nullptr || sec >= num_segments_) return;
  auto& meta = sections_[sec];
  meta.lock.lock();
  ensure_resident_locked(sec);
  meta.lock.unlock();
}

void DgapStore::cold_schedule_promote(std::uint64_t sec,
                                      std::uint64_t reserved) const {
  auto* self = const_cast<DgapStore*>(this);
  // Hands the headroom back and clears the dedup flag: runs exactly once,
  // whether the promotion ran, threw, or never got queued.
  const auto settle = [self, sec, reserved] {
    self->cold_promote_reserved_.fetch_sub(reserved,
                                           std::memory_order_relaxed);
    self->cold_promote_pending_[sec % kColdPendingSlots].store(
        0, std::memory_order_release);
  };
  std::uint8_t expected = 0;
  if (!cold_promote_pending_[sec % kColdPendingSlots].compare_exchange_strong(
          expected, 1, std::memory_order_acq_rel)) {
    // A promotion for this (hashed) section is already queued.
    cold_promote_reserved_.fetch_sub(reserved, std::memory_order_relaxed);
    return;
  }
  self->rebalance_wg_.add(1);
  try {
    sched::TaskScheduler::global().submit(
        [self, sec, settle] {
          try {
            self->cold_promote(sec);
          } catch (...) {
            settle();
            self->rebalance_wg_.done();
            throw;  // scheduler counts task exceptions
          }
          settle();
          self->cold_maybe_schedule_enforce();
          self->rebalance_wg_.done();
        },
        sched::Priority::low);
  } catch (...) {
    settle();
    self->rebalance_wg_.done();
  }
}

bool DgapStore::cold_demote_one(std::uint64_t sec) {
  if (cold_ == nullptr || sec >= num_segments_) return false;
  auto& meta = sections_[sec];
  meta.lock.lock();
  bool demoted = false;
  const std::uint64_t w = cold_residency_word(sec);
  // Re-validate under the lock: still resident, and the elog tail must be
  // empty (see the file-top comment for why that makes the punch safe).
  if (!residency_is_cold(w) && relaxed_u32(meta.elog_raw) == 0) {
    const obs::ScopedLatency lat(&cold_->demote_hist());
    Slot* src = slots_ + (sec << seg_shift_);
    const std::uint64_t gen = residency_gen(w) + 1;
    // Image + generation durable on the SSD first; readers still see pmem.
    cold_->write_section(sec, src, gen);
    std::uint64_t released = 0;
    {
      // Full gate, not a windowed one: a run that STARTS in a neighboring
      // section may span into this one, and such a reader would be admitted
      // past a window on this section alone — then race the page release
      // below. Draining both banks excludes every in-flight frozen read for
      // the (sub-microsecond) flip+punch; the file write above already
      // happened outside the gate.
      const StructGateHold gate(*this);
      if (cache_ != nullptr) cache_->invalidate(sec);
      std::atomic_ref<std::uint64_t>(residency_[sec])
          .store(kResidencyColdBit | gen, std::memory_order_release);
      pool_.persist(&residency_[sec], sizeof(std::uint64_t));
      released = cold_release_pages(sec);
    }
    cold_->count_demotion(released);
    demoted = true;
  }
  meta.lock.unlock();
  return demoted;
}

void DgapStore::cold_enforce_budget() {
  if (cold_ == nullptr) return;
  rebalance_mu_.lock();
  try {
    cold_enforce_budget_locked();
  } catch (...) {
    rebalance_mu_.unlock();
    throw;
  }
  rebalance_mu_.unlock();
}

void DgapStore::cold_enforce_budget_locked() {
  if (cold_ == nullptr) return;
  cold_->decay_rates();
  const std::uint64_t budget_bytes =
      cold_budget_bytes_.load(std::memory_order_relaxed);
  // Victims are page groups: the sections whose slot images share one pmem
  // page (one section once a section fills a page). A lone section of a
  // group frees no slot page, so a group goes together, judged by its
  // hottest resident member (a read-hot section must never leave pmem).
  // Only write-quiet groups qualify; the elog check is a racy pre-filter —
  // cold_demote_one re-validates under the section lock. The pass runs even
  // within budget: it refreshes the eviction mark read promotions are
  // judged against.
  const std::uint64_t group = std::max<std::uint64_t>(
      1, pmem::PmemPool::kPageBytes / (seg_slots_ * sizeof(Slot)));
  struct Victim {
    std::uint64_t score;
    std::uint64_t first;    // first section of the group
    std::uint64_t hottest;  // its hottest resident section
  };
  std::vector<Victim> victims;
  victims.reserve(num_segments_ / group + 1);
  for (std::uint64_t first = 0; first < num_segments_; first += group) {
    const std::uint64_t last = std::min(first + group, num_segments_);
    Victim v{0, first, kNoColdMark};
    bool quiet = true;
    for (std::uint64_t sec = first; quiet && sec < last; ++sec) {
      if (cold_is_cold(sec)) continue;
      quiet = relaxed_u32(sections_[sec].elog_raw) == 0;
      const std::uint64_t h =
          heat_score(cold_->read_rate(sec), cold_->churn_rate(sec));
      if (v.hottest == kNoColdMark || h > v.score) v = {h, first, sec};
    }
    if (quiet && v.hottest != kNoColdMark) victims.push_back(v);
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              return a.score != b.score ? a.score < b.score : a.first < b.first;
            });
  std::uint64_t mark = kNoColdMark;
  for (const Victim& v : victims) {
    if (pool_.resident_bytes() <= budget_bytes) {
      mark = v.hottest;
      break;
    }
    const std::uint64_t last = std::min(v.first + group, num_segments_);
    for (std::uint64_t sec = v.first; sec < last; ++sec)
      if (!cold_is_cold(sec)) cold_demote_one(sec);
  }
  cold_evict_mark_.store(mark, std::memory_order_relaxed);
}

void DgapStore::cold_maybe_schedule_enforce() {
  if (cold_ == nullptr) return;
  if (pool_.resident_bytes() <=
      cold_budget_bytes_.load(std::memory_order_relaxed))
    return;
  bool expected = false;
  if (!cold_enforce_inflight_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel))
    return;
  rebalance_wg_.add(1);
  try {
    sched::TaskScheduler::global().submit(
        [this] {
          try {
            cold_enforce_budget();
          } catch (...) {
            cold_enforce_inflight_.store(false, std::memory_order_release);
            rebalance_wg_.done();
            throw;
          }
          cold_enforce_inflight_.store(false, std::memory_order_release);
          rebalance_wg_.done();
        },
        sched::Priority::low);
  } catch (...) {
    cold_enforce_inflight_.store(false, std::memory_order_release);
    rebalance_wg_.done();
  }
}

std::vector<std::uint64_t> DgapStore::cold_released_pages_locked(
    std::uint64_t sec) const {
  constexpr std::uint64_t kPage = pmem::PmemPool::kPageBytes;
  std::vector<std::uint64_t> pages;
  if (sec >= cold_released_.size()) return pages;  // stale (pre-resize) id
  // Both per-section regions: the slot images and the elog tails. A page
  // that runs past a region's end shares bytes with the next allocation
  // and is never released.
  const auto scan = [&](std::uint64_t base, std::uint64_t stride) {
    const std::uint64_t end = base + stride * cold_released_.size();
    for (std::uint64_t pg = (base + sec * stride) / kPage * kPage;
         pg < base + (sec + 1) * stride; pg += kPage) {
      if (pg < base || pg + kPage > end) continue;
      bool all = true;
      for (std::uint64_t s = (pg - base) / stride;
           all && s <= (pg + kPage - 1 - base) / stride; ++s)
        all = cold_released_[s] != 0;
      if (all) pages.push_back(pg);
    }
  };
  scan(pool_.offset_of(slots_), seg_slots_ * sizeof(Slot));
  scan(pool_.offset_of(elog_base_), elog_entries_ * sizeof(ElogEntry));
  return pages;
}

std::uint64_t DgapStore::cold_release_pages(std::uint64_t sec) {
  std::lock_guard<SpinLock> g(cold_page_mu_);
  if (sec >= cold_released_.size()) return 0;
  cold_released_[sec] = 1;
  const std::vector<std::uint64_t> pages = cold_released_pages_locked(sec);
  for (const std::uint64_t pg : pages)
    pool_.release_physical(pg, pmem::PmemPool::kPageBytes);
  return pages.size() * pmem::PmemPool::kPageBytes;
}

std::uint64_t DgapStore::cold_reclaim_pages(std::uint64_t sec) {
  std::lock_guard<SpinLock> g(cold_page_mu_);
  if (sec >= cold_released_.size()) return 0;
  const std::vector<std::uint64_t> pages = cold_released_pages_locked(sec);
  for (const std::uint64_t pg : pages)
    pool_.reclaim_physical(pg, pmem::PmemPool::kPageBytes);
  cold_released_[sec] = 0;
  return pages.size() * pmem::PmemPool::kPageBytes;
}

std::uint64_t DgapStore::cold_reclaimable_bytes(std::uint64_t sec) const {
  std::lock_guard<SpinLock> g(cold_page_mu_);
  return cold_released_pages_locked(sec).size() * pmem::PmemPool::kPageBytes;
}

const Slot* DgapStore::section_for_scan(std::uint64_t sec,
                                        std::vector<Slot>& buf) const {
  if (!cold_is_cold(sec)) return slots_ + (sec << seg_shift_);
  // Quiesced contexts only (recovery scan, invariant audit under no
  // concurrent structural churn) — no revalidation loop needed.
  buf.resize(seg_slots_);
  cold_->read_section(sec, buf.data());
  return buf.data();
}

void DgapStore::debug_cold_demote_all() {
  if (cold_ == nullptr) return;
  rebalance_mu_.lock();
  try {
    for (std::uint64_t sec = 0; sec < num_segments_; ++sec)
      if (!cold_is_cold(sec)) cold_demote_one(sec);
  } catch (...) {
    // Crash-injection sweeps fire CrashInjected from the persist calls
    // inside cold_demote_one; don't leak the mutex into the unwound store.
    rebalance_mu_.unlock();
    throw;
  }
  rebalance_mu_.unlock();
}

void DgapStore::debug_cold_demote(std::uint64_t sec) {
  if (cold_ == nullptr) return;
  rebalance_mu_.lock();
  try {
    if (sec < num_segments_ && !cold_is_cold(sec)) cold_demote_one(sec);
  } catch (...) {
    rebalance_mu_.unlock();
    throw;
  }
  rebalance_mu_.unlock();
}

void DgapStore::debug_cold_promote_all() {
  if (cold_ == nullptr) return;
  for (std::uint64_t sec = 0; sec < num_segments_; ++sec)
    if (cold_is_cold(sec)) cold_promote(sec);
}

}  // namespace dgap::core
