// Crash-consistent PMA rebalancing (paper §3.1.4) and array resizing.
//
// A rebalance takes a window of sections whose combined density (edge array
// occupancy + live edge-log entries) fits the PMA threshold, replans the
// vertex runs with VCSR-weighted gaps, and moves each run to its new slot —
// splicing the run's edge-log entries after its array edges so the log
// drains as part of the operation (paper §3, component 3).
//
// Per-run move protocol (per-thread undo log, paper §3, component 4):
//
//   1. persist descriptor {state=RunMove, window, vertex, old/new start,
//      lengths, cursor=0};
//   2. copy the new run image in chunks of at most ULOG_SZ bytes; before
//      overwriting each destination chunk, back it up in the undo-log data
//      area and persist {undo_slot, undo_slots, valid=1} — the paper's
//      "idx";
//      after writing+persisting the chunk, persist {cursor+=n, valid=0};
//      chunks go tail-first when the run moves right, head-first when it
//      moves left, so un-copied source slots are never clobbered;
//   3. persist {state=RunZero, zero range}; zero the vacated slots;
//   4. persist {state=RunMark}; mark the vertex's edge-log entries consumed
//      (so a crash cannot splice them twice);
//   5. persist {state=Idle}.
//
// Between runs the array is fully consistent (every run exactly once, at
// its old or new position), so recovery only ever has to repair one
// in-flight run — resume the chunk copy from the persisted cursor (after
// restoring the backed-up chunk), re-zero, re-mark — and then simply
// re-issue a fresh rebalance of the recorded window (paper: "reissue the
// rebalancing operation").
//
// Movement order makes the invariant hold: first all runs moving right, in
// descending position order; then all runs moving left, ascending. A run's
// destination can then only overlap its own old slots or slots already
// vacated — never an unmoved run.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <mutex>

#include "src/core/dgap_store.hpp"
#include "src/obs/scoped_latency.hpp"
#include "src/obs/trace_ring.hpp"
#include "src/pma/layout.hpp"
#include "src/pmem/alloc.hpp"

namespace dgap::core {

bool DgapStore::rebalance_needed(std::uint64_t seg) const {
  if (seg >= num_segments_) return false;
  // Read without the section lock (callers hold rebalance_mu_ only), so it
  // races appenders by design.
  const std::uint32_t raw = relaxed_u32(sections_[seg].elog_raw);
  if (raw >= elog_entries_) return true;
  return static_cast<double>(raw) >=
         opts_.elog_merge_fill * static_cast<double>(elog_entries_);
}

void DgapStore::trigger_rebalance(std::uint64_t seg_hint, bool force,
                                  std::uint64_t extra_slots) {
  std::lock_guard<SpinLock> g(rebalance_mu_);
  bool first_round = true;
  for (;;) {
    if (seg_hint >= num_segments_) seg_hint = num_segments_ - 1;
    const bool forced = force && first_round;
    if (!forced && !rebalance_needed(seg_hint)) return;
    first_round = false;

    const auto win = tree_->find_rebalance_window(seg_hint, extra_slots);
    if (!win.within_tau) {
      resize_and_rebuild(0);
      continue;  // resize drained every log; trigger re-checks and exits
    }

    // Acquire the window, then expand it to whole-run boundaries (a vertex
    // run may span sections). Expansion restarts acquisition so locks are
    // always taken in ascending order.
    std::uint64_t b = win.begin_seg;
    std::uint64_t e = win.end_seg;
    bool resized_instead = false;
    for (;;) {
      // Promote while locking: the window is about to be gathered and
      // rewritten in pmem. rebalance_mu_ (held) excludes demotions, so the
      // window stays resident for the whole operation.
      for (std::uint64_t s = b; s < e; ++s) {
        sections_[s].lock.lock();
        ensure_resident_locked(s);
      }
      std::uint64_t nb = b;
      std::uint64_t ne = e;
      const std::uint64_t wb = b * seg_slots_;
      const std::uint64_t we = std::min(e * seg_slots_, capacity_);
      // Boundary walks step OUTSIDE the locked window, where a section may
      // be cold: cold_probe_slot reads pmem when resident and the cold-file
      // image otherwise, without taking the (down-order) section lock.
      if (wb > 0 && is_edge(slots_[wb])) {
        std::uint64_t p = wb;
        while (p > 0 && !is_pivot(cold_probe_slot(p))) --p;
        nb = sec_of(p);
      }
      if (we < capacity_ && is_edge(cold_probe_slot(we))) {
        std::uint64_t p = we;
        while (p < capacity_ && is_edge(cold_probe_slot(p))) ++p;
        ne = sec_of(p - 1) + 1;
      }
      if (nb == b && ne == e) {
        // The expanded window must still have room for its contents.
        std::uint64_t total = 0;
        for (std::uint64_t s = b; s < e; ++s) total += tree_->count(s);
        if (total <= we - wb) break;
        // Too dense after expansion: escalate one level or give up to a
        // resize.
        if (b == 0 && e == num_segments_) {
          for (std::uint64_t s = b; s < e; ++s) sections_[s].lock.unlock();
          resize_and_rebuild(0);
          resized_instead = true;
          break;
        }
        const std::uint64_t span = ceil_pow2(e - b) * 2;
        nb = round_down(b, span);
        ne = std::min(nb + span, num_segments_);
      }
      for (std::uint64_t s = b; s < e; ++s) sections_[s].lock.unlock();
      b = nb;
      e = ne;
    }
    if (resized_instead) continue;

    rebalance_window_locked(b, e, writer_slot());
    for (std::uint64_t s = b; s < e; ++s) sections_[s].lock.unlock();
  }
}

std::vector<DgapStore::GatheredRun> DgapStore::gather_runs(
    std::uint64_t slot_begin, std::uint64_t slot_end) const {
  std::vector<GatheredRun> runs;
  for (std::uint64_t pos = slot_begin; pos < slot_end; ++pos) {
    const Slot s = slots_[pos];
    if (is_pivot(s)) {
      const NodeId v = pivot_vertex(s);
      runs.push_back({v, pos, 0, chain_count(entries_[v].el_chain)});
    } else if (is_edge(s)) {
      assert(!runs.empty());
      runs.back().arr_count += 1;
    }
  }
  return runs;
}

void DgapStore::collect_elog_slots(NodeId v, std::vector<Slot>& out) const {
  const VertexEntry& e = entries_[v];
  const std::uint32_t count = chain_count(e.el_chain);
  if (count == 0) return;
  const ElogEntry* log = elog(sec_of(e.start));
  std::vector<Slot> newest_first;
  newest_first.reserve(count);
  std::uint32_t idx_p1 = chain_head_p1(e.el_chain);
  while (idx_p1 != 0) {
    const ElogEntry& entry = log[idx_p1 - 1];
    newest_first.push_back(
        encode_edge(elog_dst(entry), elog_tombstone(entry)));
    idx_p1 = entry.prev_p1;
  }
  out.insert(out.end(), newest_first.rbegin(), newest_first.rend());
}

void DgapStore::copy_run_chunks(const std::vector<Slot>& staging,
                                std::uint64_t new_start, bool tail_first,
                                std::uint64_t start_cursor,
                                std::uint32_t tid) {
  UlogDescriptor* d = ulog(tid);
  char* backup = ulog_data(tid);
  const std::uint64_t chunk_slots = root_->ulog_data_bytes / sizeof(Slot);
  const std::uint64_t total = staging.size();
  std::uint64_t cursor = start_cursor;
  while (cursor < total) {
    const std::uint64_t n = std::min(chunk_slots, total - cursor);
    const std::uint64_t sbeg = tail_first ? total - cursor - n : cursor;
    const std::uint64_t dst = new_start + sbeg;

    // Back up the destination before overwriting it (paper Fig 4a).
    std::memcpy(backup, slots_ + dst, n * sizeof(Slot));
    pool_.persist(backup, n * sizeof(Slot));
    d->undo_slot = dst;
    d->undo_slots = n;
    d->undo_valid = 1;
    pool_.persist(d, sizeof(UlogDescriptor));

    std::memcpy(slots_ + dst, staging.data() + sbeg, n * sizeof(Slot));
    pool_.persist(slots_ + dst, n * sizeof(Slot));

    cursor += n;
    d->chunk_cursor = cursor;
    d->undo_valid = 0;
    pool_.persist(d, sizeof(UlogDescriptor));
  }
}

void DgapStore::zero_range_persist(std::uint64_t begin_slot,
                                   std::uint64_t end_slot) {
  if (begin_slot >= end_slot) return;
  std::memset(slots_ + begin_slot, 0, (end_slot - begin_slot) * sizeof(Slot));
  pool_.persist(slots_ + begin_slot, (end_slot - begin_slot) * sizeof(Slot));
}

void DgapStore::mark_elog_consumed(NodeId v, std::uint64_t home_sec) {
  ElogEntry* log = elog(home_sec);
  bool any = false;
  for (std::uint64_t i = 0; i < elog_entries_; ++i) {
    ElogEntry& entry = log[i];
    if (elog_used(entry) && !elog_consumed(entry) && elog_src(entry) == v) {
      entry.src_p1 |= kElogFlagBit;
      pool_.flush(&entry, sizeof(std::uint32_t));
      any = true;
    }
  }
  if (any) pool_.fence();
}

void DgapStore::move_run(const GatheredRun& run, std::uint64_t new_start,
                         std::uint32_t tid, std::uint64_t win_begin,
                         std::uint64_t win_end) {
  const std::uint64_t old_len = 1 + run.arr_count;
  const std::uint64_t new_len = old_len + run.el_count;
  if (new_start == run.old_start && run.el_count == 0) return;  // stationary

  std::vector<Slot> staging(new_len);
  staging[0] = encode_pivot(run.vertex);
  std::memcpy(staging.data() + 1, slots_ + run.old_start + 1,
              run.arr_count * sizeof(Slot));
  if (run.el_count > 0) {
    std::vector<Slot> spliced;
    spliced.reserve(run.el_count);
    collect_elog_slots(run.vertex, spliced);
    assert(spliced.size() == run.el_count);
    std::copy(spliced.begin(), spliced.end(), staging.begin() + old_len);
  }

  const bool tail_first = new_start >= run.old_start;
  const std::uint64_t home_sec = sec_of(run.old_start);

  UlogDescriptor* d = ulog(tid);
  d->state = UlogDescriptor::kRunMove;
  d->win_begin = win_begin;
  d->win_end = win_end;
  d->run_vertex = run.vertex;
  d->old_start = run.old_start;
  d->new_start = new_start;
  d->old_arr_len = old_len;
  d->new_len = new_len;
  d->chunk_cursor = 0;
  d->undo_valid = 0;
  pool_.persist(d, sizeof(UlogDescriptor));

  copy_run_chunks(staging, new_start, tail_first, 0, tid);

  // Zero vacated slots so stale copies can never be misread as live runs.
  std::uint64_t zb = 0;
  std::uint64_t ze = 0;
  if (tail_first) {
    zb = run.old_start;
    ze = std::min(new_start, run.old_start + old_len);
  } else {
    zb = std::max(new_start + new_len, run.old_start);
    ze = run.old_start + old_len;
  }
  if (zb < ze) {
    d->state = UlogDescriptor::kRunZero;
    d->zero_begin = zb;
    d->zero_end = ze;
    pool_.persist(d, sizeof(UlogDescriptor));
    zero_range_persist(zb, ze);
  }

  if (run.el_count > 0) {
    d->state = UlogDescriptor::kRunMark;
    pool_.persist(d, sizeof(UlogDescriptor));
    mark_elog_consumed(run.vertex, home_sec);
  }

  d->state = UlogDescriptor::kIdle;
  pool_.persist(d, sizeof(UlogDescriptor));
}

void DgapStore::clear_window_elogs(std::uint64_t begin_seg,
                                   std::uint64_t end_seg, std::uint32_t tid) {
  UlogDescriptor* d = ulog(tid);
  d->state = UlogDescriptor::kElogClear;
  d->win_begin = begin_seg * seg_slots_;
  d->win_end = std::min(end_seg * seg_slots_, capacity_);
  pool_.persist(d, sizeof(UlogDescriptor));
  for (std::uint64_t s = begin_seg; s < end_seg; ++s) {
    if (sections_[s].elog_raw == 0) continue;
    std::memset(elog(s), 0, sections_[s].elog_raw * sizeof(ElogEntry));
    pool_.persist(elog(s), sections_[s].elog_raw * sizeof(ElogEntry));
  }
  d->state = UlogDescriptor::kIdle;
  pool_.persist(d, sizeof(UlogDescriptor));
}

void DgapStore::rebalance_window_locked(std::uint64_t begin_seg,
                                        std::uint64_t end_seg,
                                        std::uint32_t tid) {
  // One rebalance-duration sample + trace span per window (begin/end
  // segment in the event args) — recorded around the gated region so the
  // timeline shows exactly how long snapshot readers were turned away.
  const obs::ScopedLatency lat(&rebalance_hist_);
  const std::uint64_t trace_t0 = obs::trace_begin();
  const std::uint64_t wb = begin_seg * seg_slots_;
  const std::uint64_t we = std::min(end_seg * seg_slots_, capacity_);
  // Snapshot readers take no section locks: the structural gate drains the
  // in-flight per-vertex reads and turns away new ones that land in THIS
  // window — reads of unrelated sections proceed concurrently (windowed
  // admission, dgap_store.hpp). Safe because the window was expanded to
  // whole-run boundaries above and its section locks are held: an admitted
  // reader's run start is outside [wb, we), so every slot, vertex entry and
  // elog chain it touches is outside the region this op rewrites, and its
  // run cannot grow into the window while the boundary section locks are
  // held. RAII so a throw (tx journal allocation, staging vectors) cannot
  // wedge the gate shut.
  const StructGateHold gate(*this, wb, we);

  const std::vector<GatheredRun> runs = gather_runs(wb, we);

  // Fig 9 metric: edge-log utilization observed when a section is drained.
  for (std::uint64_t s = begin_seg; s < end_seg; ++s) {
    stats_.merges += 1;
    stats_.merge_fill_sum += static_cast<double>(sections_[s].elog_raw) /
                             static_cast<double>(elog_entries_);
  }

  std::vector<pma::VertexRun> vr;
  vr.reserve(runs.size());
  for (const auto& r : runs)
    vr.push_back({r.vertex, r.old_start,
                  std::uint64_t{1} + r.arr_count + r.el_count});
  const auto plan = opts_.vcsr_weighted_gaps
                        ? pma::plan_weighted(vr, wb, we - wb)
                        : pma::plan_even(vr, wb, we - wb);

  if (!opts_.protect_structural_ops) {
    // Fig 1(b)'s naive-port mode: move data with plain writes + persists,
    // no crash protection at all.
    std::vector<Slot> image(we - wb, kGapSlot);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto& r = runs[i];
      Slot* out = image.data() + (plan[i].new_start - wb);
      out[0] = encode_pivot(r.vertex);
      std::memcpy(out + 1, slots_ + r.old_start + 1,
                  r.arr_count * sizeof(Slot));
      if (r.el_count > 0) {
        std::vector<Slot> spliced;
        collect_elog_slots(r.vertex, spliced);
        std::copy(spliced.begin(), spliced.end(), out + 1 + r.arr_count);
      }
    }
    std::memcpy(slots_ + wb, image.data(), (we - wb) * sizeof(Slot));
    pool_.persist(slots_ + wb, (we - wb) * sizeof(Slot));
    for (std::uint64_t s = begin_seg; s < end_seg; ++s) {
      if (sections_[s].elog_raw == 0) continue;
      std::memset(elog(s), 0, sections_[s].elog_raw * sizeof(ElogEntry));
      pool_.persist(elog(s), sections_[s].elog_raw * sizeof(ElogEntry));
    }
  } else if (!opts_.use_ulog && tx_journal_ != nullptr) {
    // Ablation "No EL&UL": protect the whole window with a PMDK-style
    // transaction (journal allocation + per-range ordering overhead).
    pmem::PmemTx tx(pool_, *tx_journal_,
                    (we - wb) * sizeof(Slot) + 64 * 1024);
    tx.add_range(slots_ + wb, (we - wb) * sizeof(Slot));
    std::vector<Slot> image(we - wb, kGapSlot);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto& r = runs[i];
      Slot* out = image.data() + (plan[i].new_start - wb);
      out[0] = encode_pivot(r.vertex);
      std::memcpy(out + 1, slots_ + r.old_start + 1,
                  r.arr_count * sizeof(Slot));
      if (r.el_count > 0) {
        std::vector<Slot> spliced;
        collect_elog_slots(r.vertex, spliced);
        std::copy(spliced.begin(), spliced.end(), out + 1 + r.arr_count);
      }
    }
    std::memcpy(slots_ + wb, image.data(), (we - wb) * sizeof(Slot));
    pool_.persist(slots_ + wb, (we - wb) * sizeof(Slot));
    for (std::uint64_t s = begin_seg; s < end_seg; ++s) {
      if (sections_[s].elog_raw == 0) continue;
      tx.add_range(elog(s), sections_[s].elog_raw * sizeof(ElogEntry));
      std::memset(elog(s), 0, sections_[s].elog_raw * sizeof(ElogEntry));
      pool_.persist(elog(s), sections_[s].elog_raw * sizeof(ElogEntry));
    }
    tx.commit();
  } else {
    // Pass 1: runs moving right, rightmost first.
    for (std::size_t i = plan.size(); i-- > 0;) {
      if (plan[i].new_start >= runs[i].old_start)
        move_run(runs[i], plan[i].new_start, tid, wb, we);
    }
    // Pass 2: runs moving left, leftmost first.
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].new_start < runs[i].old_start)
        move_run(runs[i], plan[i].new_start, tid, wb, we);
    }
    clear_window_elogs(begin_seg, end_seg, tid);
  }

  // The window's slots were rewritten: drop the stale DRAM frames while the
  // gate still excludes in-window readers (they re-populate from the new
  // image).
  if (cache_)
    for (std::uint64_t s = begin_seg; s < end_seg; ++s) cache_->invalidate(s);

  // Volatile metadata: vertex entries, section logs, tree counts. The gate
  // only turns away readers whose run is inside the window, and admitted
  // out-of-window readers probe entries_[v].start atomically while being
  // admitted — so `start` and `el_chain` must be stored through an
  // atomic_ref (a plain store would race the probe, as would
  // insert_internal's unlocked pre-validation read of both), and
  // `arr_count` and `el_chain` keep the release publish the lock-free read
  // path pairs with.
  for (std::size_t i = 0; i < plan.size(); ++i) {
    VertexEntry& e = entries_[plan[i].vertex];
    store_u64_relaxed(e.start, plan[i].new_start);
    publish_u32(e.arr_count, runs[i].arr_count + runs[i].el_count);
    publish_u64(e.el_chain, 0);
    if (!opts_.metadata_in_dram) mirror_vertex(plan[i].vertex);
  }
  for (std::uint64_t s = begin_seg; s < end_seg; ++s) {
    tree_->set_count(s, 0);
    sections_[s].elog_raw = 0;
    sections_[s].elog_live = 0;
  }
  for (const auto& p : plan) {
    std::uint64_t pos = p.new_start;
    std::uint64_t left = p.count;
    while (left > 0) {
      const std::uint64_t seg = sec_of(pos);
      const std::uint64_t in_seg =
          std::min(left, (seg + 1) * seg_slots_ - pos);
      tree_->add(seg, static_cast<std::int64_t>(in_seg));
      if (!opts_.metadata_in_dram) mirror_segment(seg);
      pos += in_seg;
      left -= in_seg;
    }
  }
  ++stats_.rebalances;
  obs::trace_end(obs::TraceKind::rebalance, trace_t0, begin_seg, end_seg);
}

// ---------------------------------------------------------------------------
// Resize (grow the whole array; crash-safe via copy-then-flip)
// ---------------------------------------------------------------------------

void DgapStore::resize_and_rebuild(std::uint64_t extra_slots) {
  // One resize-duration sample + trace span per rebuild (old/new slot
  // capacities in the event args); includes lock waits.
  const obs::ScopedLatency lat(&resize_hist_);
  const std::uint64_t trace_t0 = obs::trace_begin();
  const std::uint64_t trace_old_cap = capacity_;
  // Quiesce WRITERS only: global exclusive plus every (old) section lock.
  // rebalance_mu_ (held by the caller) excludes other structural
  // operations. Analysis readers never block this call beyond one
  // in-flight per-vertex read: the structural gate below drains them
  // around the flip, and the old arrays are RETIRED rather than freed —
  // reclamation happens when the last snapshot captured against them is
  // destroyed (snapshot.hpp). A snapshot HELD across this call never
  // blocks it.
  global_mu_.lock();
  const std::uint64_t old_segments = num_segments_;
  lock_sections_upto(old_segments);

  // Cold tier: the gather below scans the WHOLE old array, and the new image
  // is built from the old pmem slots — promote everything first. A transient
  // resident spike up to the old array size is accepted (the alternative,
  // staging cold sections piecemeal, complicates the one-flip crash story
  // for no benefit: resizes already rewrite every byte); the budget pass
  // scheduled at the end demotes the new layout's cold tail again.
  if (cold_ != nullptr)
    for (std::uint64_t s = 0; s < old_segments; ++s) ensure_resident_locked(s);

  const std::vector<GatheredRun> runs = gather_runs(0, capacity_);

  std::uint64_t needed = extra_slots;
  for (const auto& r : runs) needed += 1 + r.arr_count + r.el_count;
  std::uint64_t new_cap =
      ceil_pow2(std::max<std::uint64_t>(capacity_ * 2, needed * 2));

  // Ingest-profile geometry: the balanced profile grows the section COUNT
  // with capacity (fixed section size); ingest_heavy pins the section count
  // and grows the section SIZE instead — a batch's sources keep landing in
  // the same few section groups no matter how large the array gets. The
  // per-section edge log scales with the section so the merge trigger still
  // fires after a comparable per-slot fill.
  std::uint64_t new_seg_slots = seg_slots_;
  std::uint64_t new_elog_entries = elog_entries_;
  if (opts_.ingest_profile == IngestProfile::ingest_heavy) {
    while (new_cap / new_seg_slots > num_segments_ &&
           new_seg_slots * 2 <= kMaxSegmentSlots) {
      new_seg_slots *= 2;
      new_elog_entries *= 2;
    }
  }
  const std::uint64_t new_segs = new_cap / new_seg_slots;

  auto& alloc = pool_.allocator();
  DgapLayout nl{};
  nl.capacity_slots = new_cap;
  nl.num_segments = new_segs;
  nl.segment_slots = new_seg_slots;
  nl.elog_entries = new_elog_entries;
  nl.edge_array_off = alloc.alloc(new_cap * sizeof(Slot), 4096);
  nl.elog_region_off =
      alloc.alloc(new_segs * new_elog_entries * sizeof(ElogEntry), 4096);
  // All-resident residency map for the new layout, durable BEFORE the root
  // flip: a crash on either side of the flip sees a layout whose residency
  // words agree with where its bytes live (everything promoted above).
  nl.residency_off = alloc.alloc(new_segs * sizeof(std::uint64_t), 64);
  std::memset(pool_.at<char>(nl.residency_off), 0,
              new_segs * sizeof(std::uint64_t));
  pool_.persist(pool_.at<char>(nl.residency_off),
                new_segs * sizeof(std::uint64_t));

  // Build the new image: weighted layout over the whole new array, edge
  // logs drained into the runs, fresh (zero) logs.
  Slot* nslots = pool_.at<Slot>(nl.edge_array_off);
  std::memset(nslots, 0, new_cap * sizeof(Slot));
  std::vector<pma::VertexRun> vr;
  vr.reserve(runs.size());
  for (const auto& r : runs)
    vr.push_back({r.vertex, r.old_start,
                  std::uint64_t{1} + r.arr_count + r.el_count});
  const auto plan = opts_.vcsr_weighted_gaps
                        ? pma::plan_weighted(vr, 0, new_cap)
                        : pma::plan_even(vr, 0, new_cap);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& r = runs[i];
    Slot* out = nslots + plan[i].new_start;
    out[0] = encode_pivot(r.vertex);
    std::memcpy(out + 1, slots_ + r.old_start + 1,
                r.arr_count * sizeof(Slot));
    if (r.el_count > 0) {
      std::vector<Slot> spliced;
      collect_elog_slots(r.vertex, spliced);
      std::copy(spliced.begin(), spliced.end(), out + 1 + r.arr_count);
    }
  }
  pool_.persist(nslots, new_cap * sizeof(Slot));

  ElogEntry* nelog = pool_.at<ElogEntry>(nl.elog_region_off);
  std::memset(nelog, 0, new_segs * new_elog_entries * sizeof(ElogEntry));
  pool_.persist(nelog, new_segs * new_elog_entries * sizeof(ElogEntry));

  const std::uint64_t nl_off = alloc.alloc(sizeof(DgapLayout));
  *pool_.at<DgapLayout>(nl_off) = nl;
  pool_.persist(pool_.at<DgapLayout>(nl_off), sizeof(DgapLayout));

  // The atomic flip: crash lands entirely before or entirely after. The
  // structural gate (RAII: adopt_layout/tree rebuild can allocate and
  // throw) brackets the volatile handoff so lock-free readers never mix
  // old-generation entries with the new arrays (or vice versa).
  const LayoutGen* old_gen = cur_gen_.load(std::memory_order_acquire);
  {
    const StructGateHold gate(*this);
    pool_.store_persist(&root_->layout_off, nl_off);

    adopt_layout(nl);
    tree_ = std::make_unique<pma::SegmentTree>(num_segments_, seg_slots_,
                                               opts_.density);
    for (std::uint64_t s = 0; s < num_segments_; ++s) {
      sections_[s].elog_raw = 0;
      sections_[s].elog_live = 0;
    }
    for (std::size_t i = 0; i < plan.size(); ++i) {
      VertexEntry& e = entries_[plan[i].vertex];
      e.start = plan[i].new_start;
      e.arr_count = runs[i].arr_count + runs[i].el_count;
      store_u64_relaxed(e.el_chain, 0);
      std::uint64_t pos = plan[i].new_start;
      std::uint64_t left = plan[i].count;
      while (left > 0) {
        const std::uint64_t seg = sec_of(pos);
        const std::uint64_t in_seg =
            std::min(left, (seg + 1) * seg_slots_ - pos);
        tree_->add(seg, static_cast<std::int64_t>(in_seg));
        pos += in_seg;
        left -= in_seg;
      }
    }
  }
  // Epoch reclamation instead of an immediate free: the old arrays stay
  // mapped until every snapshot / in-flight read pinned to them is gone.
  // With no readers outstanding this frees them right here, same as the
  // pre-refactor behavior.
  retire_layout(old_gen);
  ++stats_.resizes;
  obs::trace_end(obs::TraceKind::resize, trace_t0, trace_old_cap, capacity_);

  unlock_sections_upto(old_segments);
  global_mu_.unlock();
  // The promote-all above may have blown the resident budget: queue an async
  // demotion pass (it waits for our caller's rebalance_mu_ before running).
  cold_maybe_schedule_enforce();
}

}  // namespace dgap::core
