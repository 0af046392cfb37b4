// Shutdown image + crash recovery (paper §3.1.5).
//
// Normal restart: load the persisted DRAM snapshot (vertex array, section
// log cursors) and recompute the PMA tree — no array scan.
//
// Crash restart: (1) replay every per-thread undo log, repairing the one
// in-flight run move each may hold (restore the backed-up chunk, resume the
// chunk copy from the persisted cursor, re-zero vacated slots, re-mark
// spliced edge-log entries consumed); (2) scan the edge array — pivots
// rebuild the vertex array, occupancy rebuilds the PMA tree; (3) scan the
// per-section edge logs — unconsumed entries rebuild each vertex's chain
// word (count, head); (4) re-issue the interrupted rebalances on their recorded
// windows.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "src/core/dgap_store.hpp"
#include "src/pmem/alloc.hpp"

namespace dgap::core {

namespace {

constexpr std::uint64_t kImageMagic = 0x4447'4150'494d'4147ULL;  // "DGAPIMAG"

struct ImageHeader {
  std::uint64_t magic;
  std::uint64_t num_vertices;
  std::uint64_t num_segments;
  std::uint64_t total_bytes;
};

struct PackedEntry {
  std::uint64_t start;
  std::uint32_t arr_count;
  std::uint32_t el_count;
  std::uint32_t el_head_p1;
  std::uint32_t tombstone;
};

struct PackedSection {
  std::uint32_t elog_raw;
  std::uint32_t elog_live;
};

}  // namespace

void DgapStore::recover(bool crashed) {
  adopt_layout(*pool_.at<DgapLayout>(root_->layout_off));
  tree_ = std::make_unique<pma::SegmentTree>(num_segments_, seg_slots_,
                                             opts_.density);
  // Attach the cold tier BEFORE any path that reads edge-array bytes: the
  // persisted residency map is replayed here (cold sections validate their
  // file image + generation, torn demotions read as still-resident), and
  // the scan below then sources cold sections from the file. With the tier
  // off, a residency map holding cold sections is unreadable data — the
  // scan would see punched zeros — so refuse early with a clear error.
  cold_attach();
  if (cold_ == nullptr && residency_ != nullptr) {
    for (std::uint64_t s = 0; s < num_segments_; ++s)
      if (residency_is_cold(cold_residency_word(s)))
        throw std::runtime_error(
            "pool has sections demoted to the SSD cold tier; reopen with "
            "the cold tier enabled");
  }
  const std::uint64_t nv = root_->num_vertices;
  entries_.reset(std::max<std::size_t>(static_cast<std::size_t>(nv) * 2, 32));
  num_vertices_.store(nv, std::memory_order_release);

  if (!crashed && load_shutdown_image()) {
    // Invalidate so a later crash never resurrects a stale image.
    pool_.store_persist(&root_->shutdown_image_off, std::uint64_t{0});
    return;
  }

  // Crash path (also taken when a clean shutdown left no image).
  // Ablation mode ("No EL&UL"): an interrupted PMDK-style transaction is
  // rolled back first, restoring the pre-rebalance window image.
  if (tx_journal_ != nullptr && tx_journal_->needs_recovery())
    tx_journal_->recover();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  for (std::uint32_t t = 0; t < root_->num_ulogs; ++t) {
    const auto w = replay_ulog(t);
    if (w.second > w.first) windows.push_back(w);
  }
  rebuild_volatile_from_scan();
  // Finish interrupted rebalancing operations (paper: "reissue").
  for (const auto& w : windows) trigger_rebalance(sec_of(w.first), true);
  pool_.store_persist(&root_->shutdown_image_off, std::uint64_t{0});
}

std::vector<Slot> DgapStore::reconstruct_inflight_staging(
    const UlogDescriptor& d) const {
  // Rebuild the new run image from what survives in PM: already-copied
  // slots at the new position, un-copied array slots still intact at the
  // old position, and the (unconsumed) edge-log entries of the vertex.
  std::vector<Slot> el;
  {
    const ElogEntry* log = elog(sec_of(d.old_start));
    for (std::uint64_t i = 0; i < elog_entries_; ++i) {
      const ElogEntry& e = log[i];
      if (!elog_used(e)) break;  // append-only log: first unused = end
      if (elog_consumed(e)) continue;
      if (elog_src(e) == d.run_vertex)
        el.push_back(encode_edge(elog_dst(e), elog_tombstone(e)));
    }
  }
  const std::uint64_t total = d.new_len;
  const bool tail_first = d.new_start >= d.old_start;
  std::vector<Slot> staging(total);
  for (std::uint64_t j = 0; j < total; ++j) {
    const bool copied =
        tail_first ? (j >= total - d.chunk_cursor) : (j < d.chunk_cursor);
    if (copied) {
      staging[j] = slots_[d.new_start + j];
    } else if (j == 0) {
      staging[j] = encode_pivot(d.run_vertex);
    } else if (j < d.old_arr_len) {
      staging[j] = slots_[d.old_start + j];
    } else {
      const std::uint64_t k = j - d.old_arr_len;
      if (k >= el.size())
        throw std::runtime_error(
            "DGAP recovery: edge log shorter than in-flight run expects");
      staging[j] = el[k];
    }
  }
  return staging;
}

std::pair<std::uint64_t, std::uint64_t> DgapStore::replay_ulog(
    std::uint32_t tid) {
  UlogDescriptor* d = ulog(tid);
  const std::pair<std::uint64_t, std::uint64_t> none{0, 0};
  const std::pair<std::uint64_t, std::uint64_t> window{d->win_begin,
                                                       d->win_end};

  auto restore_undo = [&] {
    if (d->undo_valid == 0) return;
    std::memcpy(slots_ + d->undo_slot, ulog_data(tid),
                d->undo_slots * sizeof(Slot));
    pool_.persist(slots_ + d->undo_slot, d->undo_slots * sizeof(Slot));
    d->undo_valid = 0;
    pool_.persist(d, sizeof(UlogDescriptor));
  };
  auto finish = [&] {
    d->state = UlogDescriptor::kIdle;
    d->undo_valid = 0;
    pool_.persist(d, sizeof(UlogDescriptor));
  };

  switch (d->state) {
    case UlogDescriptor::kIdle:
      return none;

    case UlogDescriptor::kShift: {
      // A nearby shift (No-EL ablation) was torn: restore the pre-shift
      // image; the un-acknowledged insert is simply dropped.
      restore_undo();
      finish();
      return none;
    }

    case UlogDescriptor::kRunMove: {
      restore_undo();
      const std::vector<Slot> staging = reconstruct_inflight_staging(*d);
      copy_run_chunks(staging, d->new_start, d->new_start >= d->old_start,
                      d->chunk_cursor, tid);
      // Fall through to the zero + mark phases of the protocol.
      std::uint64_t zb = 0;
      std::uint64_t ze = 0;
      if (d->new_start >= d->old_start) {
        zb = d->old_start;
        ze = std::min(d->new_start, d->old_start + d->old_arr_len);
      } else {
        zb = std::max(d->new_start + d->new_len, d->old_start);
        ze = d->old_start + d->old_arr_len;
      }
      zero_range_persist(zb, ze);
      mark_elog_consumed(d->run_vertex, sec_of(d->old_start));
      finish();
      return window;
    }

    case UlogDescriptor::kRunZero: {
      zero_range_persist(d->zero_begin, d->zero_end);
      mark_elog_consumed(d->run_vertex, sec_of(d->old_start));
      finish();
      return window;
    }

    case UlogDescriptor::kRunMark: {
      mark_elog_consumed(d->run_vertex, sec_of(d->old_start));
      finish();
      return window;
    }

    case UlogDescriptor::kElogClear: {
      // All runs were moved and marked; finish wiping the window's logs
      // (consumed entries only — idempotent).
      const std::uint64_t first = sec_of(d->win_begin);
      const std::uint64_t last = sec_of(d->win_end - 1);
      for (std::uint64_t s = first; s <= last && s < num_segments_; ++s) {
        std::memset(elog(s), 0, elog_entries_ * sizeof(ElogEntry));
        pool_.persist(elog(s), elog_entries_ * sizeof(ElogEntry));
      }
      finish();
      return none;
    }

    default:
      throw std::runtime_error("DGAP recovery: corrupt undo-log state");
  }
}

void DgapStore::rebuild_volatile_from_scan() {
  for (std::uint64_t s = 0; s < num_segments_; ++s) {
    tree_->set_count(s, 0);
    sections_[s].elog_raw = 0;
    sections_[s].elog_live = 0;
  }

  // Pass 1: edge array scan — pivots rebuild the vertex array (paper: the
  // pivot element is "-vertex-id", negative and illegal as a destination).
  NodeId cur = kInvalidNode;
  NodeId max_vertex = -1;
  std::vector<Slot> scan_buf;  // cold sections come from the backing file
  for (std::uint64_t seg = 0; seg < num_segments_; ++seg) {
    const Slot* sec_slots = section_for_scan(seg, scan_buf);
    for (std::uint64_t i = 0; i < seg_slots_; ++i) {
      const std::uint64_t pos = (seg << seg_shift_) + i;
      const Slot s = sec_slots[i];
      if (is_gap(s)) continue;
      tree_->add(seg, +1);
      if (is_pivot(s)) {
        const NodeId v = pivot_vertex(s);
        if (static_cast<std::size_t>(v) >= entries_.size())
          entries_.ensure(ceil_pow2(static_cast<std::uint64_t>(v) + 1) * 2);
        entries_[v] = VertexEntry{.start = pos};
        cur = v;
        max_vertex = std::max(max_vertex, v);
      } else {
        if (cur == kInvalidNode)
          throw std::runtime_error("DGAP recovery: edge before any pivot");
        entries_[cur].arr_count += 1;
        if (edge_tombstone(s)) entries_[cur].has_tombstone = 1;
      }
    }
  }

  // Pass 2: per-section edge logs — rebuild chains and degree deltas.
  for (std::uint64_t sec = 0; sec < num_segments_; ++sec) {
    ElogEntry* log = elog(sec);
    std::uint32_t raw = 0;
    std::uint32_t live = 0;
    for (std::uint64_t i = 0; i < elog_entries_; ++i) {
      ElogEntry& e = log[i];
      if (!elog_used(e)) break;  // append-only: first unused ends the log
      const NodeId v = elog_src(e);
      const bool valid = v >= 0 && v <= max_vertex && e.dst_p1 != 0 &&
                         e.prev_p1 <= i;
      if (!valid) {
        // Torn tail entry from a crash mid-append: the insert was never
        // acknowledged, drop it.
        std::memset(&e, 0, sizeof(e));
        pool_.persist(&e, sizeof(e));
        break;
      }
      raw = static_cast<std::uint32_t>(i) + 1;
      if (elog_consumed(e)) continue;
      entries_[v].el_chain =
          chain_word(chain_count(entries_[v].el_chain) + 1,
                     static_cast<std::uint32_t>(i) + 1);
      if (elog_tombstone(e)) entries_[v].has_tombstone = 1;
      ++live;
      tree_->add(sec, +1);
    }
    sections_[sec].elog_raw = raw;
    sections_[sec].elog_live = live;
  }

  // Vertex count: the root counter may lag a pivot persisted right before
  // the crash (pivot is persisted first by design).
  const std::uint64_t nv = std::max<std::uint64_t>(
      root_->num_vertices, static_cast<std::uint64_t>(max_vertex + 1));
  num_vertices_.store(nv, std::memory_order_release);
  if (nv != root_->num_vertices) {
    root_->num_vertices = nv;
    pool_.persist(&root_->num_vertices, sizeof(root_->num_vertices));
  }
}

// ---------------------------------------------------------------------------
// Shutdown image
// ---------------------------------------------------------------------------

void DgapStore::persist_shutdown_image() {
  const std::uint64_t nv = num_vertices_.load(std::memory_order_acquire);
  const std::uint64_t bytes = sizeof(ImageHeader) + nv * sizeof(PackedEntry) +
                              num_segments_ * sizeof(PackedSection);

  // Reuse the previous image block when it is big enough.
  std::uint64_t off = root_->shutdown_image_off;
  if (off == 0 || root_->shutdown_image_bytes < bytes) {
    off = pool_.allocator().alloc(bytes);
  }

  char* base = pool_.at<char>(off);
  auto* hdr = reinterpret_cast<ImageHeader*>(base);
  hdr->magic = kImageMagic;
  hdr->num_vertices = nv;
  hdr->num_segments = num_segments_;
  hdr->total_bytes = bytes;
  auto* pe = reinterpret_cast<PackedEntry*>(base + sizeof(ImageHeader));
  for (std::uint64_t v = 0; v < nv; ++v) {
    const VertexEntry& e = entries_[v];
    pe[v] = {e.start, e.arr_count, chain_count(e.el_chain),
             chain_head_p1(e.el_chain), e.has_tombstone};
  }
  auto* ps = reinterpret_cast<PackedSection*>(
      base + sizeof(ImageHeader) + nv * sizeof(PackedEntry));
  for (std::uint64_t s = 0; s < num_segments_; ++s)
    ps[s] = {sections_[s].elog_raw, sections_[s].elog_live};
  pool_.persist(base, bytes);

  root_->shutdown_image_off = off;
  root_->shutdown_image_bytes = std::max(root_->shutdown_image_bytes, bytes);
  pool_.persist(&root_->shutdown_image_off,
                sizeof(root_->shutdown_image_off) +
                    sizeof(root_->shutdown_image_bytes));
}

bool DgapStore::load_shutdown_image() {
  const std::uint64_t off = root_->shutdown_image_off;
  if (off == 0) return false;
  const char* base = pool_.at<char>(off);
  const auto* hdr = reinterpret_cast<const ImageHeader*>(base);
  if (hdr->magic != kImageMagic || hdr->num_segments != num_segments_)
    return false;

  const std::uint64_t nv = hdr->num_vertices;
  entries_.reset(std::max<std::size_t>(static_cast<std::size_t>(nv) * 2, 32));
  const auto* pe =
      reinterpret_cast<const PackedEntry*>(base + sizeof(ImageHeader));
  for (std::uint64_t v = 0; v < nv; ++v) {
    entries_[v] = VertexEntry{
        .start = pe[v].start,
        .el_chain = chain_word(pe[v].el_count, pe[v].el_head_p1),
        .arr_count = pe[v].arr_count,
        .has_tombstone = static_cast<std::uint8_t>(pe[v].tombstone)};
  }
  const auto* ps = reinterpret_cast<const PackedSection*>(
      base + sizeof(ImageHeader) + nv * sizeof(PackedEntry));
  for (std::uint64_t s = 0; s < num_segments_; ++s) {
    sections_[s].elog_raw = ps[s].elog_raw;
    sections_[s].elog_live = ps[s].elog_live;
    tree_->set_count(s, ps[s].elog_live);
  }
  // PMA tree: add each run's span (pivot + array edges).
  for (std::uint64_t v = 0; v < nv; ++v) {
    const VertexEntry& e = entries_[v];
    std::uint64_t pos = e.start;
    std::uint64_t left = std::uint64_t{1} + e.arr_count;
    while (left > 0) {
      const std::uint64_t seg = sec_of(pos);
      const std::uint64_t in_seg =
          std::min(left, (seg + 1) * seg_slots_ - pos);
      tree_->add(seg, static_cast<std::int64_t>(in_seg));
      pos += in_seg;
      left -= in_seg;
    }
  }
  num_vertices_.store(nv, std::memory_order_release);
  return true;
}

}  // namespace dgap::core
