// Batched ingestion (the section-aware fast path layered over the paper's
// §3.1.2 insert machinery).
//
// The per-edge path pays four per-edge costs that batching removes:
//
//   * one section-lock acquisition (and one global-gate round trip) per
//     edge — a batch is bucketed by (home section, source) and each section
//     group is absorbed under a single acquisition, with the global writer
//     gate taken once per pass;
//   * one flush call per edge — a source run's appended slots and a
//     section's appended edge-log entries are flushed as coalesced ranges,
//     one CLWB per touched line instead of one per edge (which also keeps
//     consecutive writes on the same 256-byte XPLine, the pattern Optane's
//     write-combining buffer rewards);
//   * one fence per edge — a pass issues a single fence before it returns
//     or retries, which is when the batch's durability is acknowledged;
//   * one rebalance-trigger check per edge — merge triggers are collected
//     during absorption and fired once per touched section after the locks
//     drop, so a window is rebalanced at most once per batch pass.
//
// Correctness: absorption writes exactly what insert_internal would write
// (same slot encodings, same edge-log chains), in per-source chronological
// order. Durability is acknowledged per batch: within a pass the ranges are
// flushed in write order (a run's array slots before any same-source
// edge-log entries), so a crash mid-batch leaves each vertex a
// chronological prefix of its un-acknowledged edges — the recovery scan
// (recovery.cpp) handles that exactly like a crash between per-edge
// inserts.
#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/core/batch_key.hpp"
#include "src/core/dgap_store.hpp"

namespace dgap::core {

namespace {

// Sort-key layout (home section | source low bits | batch index) lives in
// batch_key.hpp so its limits are unit-testable; see the header for why
// the home field caps the representable section count.
using batchkey::key_group;
using batchkey::key_home;
using batchkey::key_idx;
using batchkey::make_key;

// The 16-bit index field bounds one absorption round; larger batches are
// fed through in chunks (chronology is preserved — chunks run in order).
constexpr std::size_t kMaxChunk = 1ull << batchkey::kIdxBits;

}  // namespace

void DgapStore::insert_batch(std::span<const Edge> edges) {
  update_batch_internal(edges, /*tombstone=*/false);
}

void DgapStore::delete_batch(std::span<const Edge> edges) {
  update_batch_internal(edges, /*tombstone=*/true);
}

void DgapStore::update_batch_internal(std::span<const Edge> all,
                                      bool tombstone) {
  if (all.empty()) return;
  NodeId max_id = -1;
  for (const Edge& e : all) {
    if (e.src < 0 || e.dst < 0)
      throw std::invalid_argument("negative vertex id");
    max_id = std::max({max_id, e.src, e.dst});
  }
  ensure_vertices(max_id);

  if (!opts_.use_elog) {
    // "No EL" ablation: occupied-destination inserts need nearby shifts,
    // which are inherently one-at-a-time structural ops.
    for (const Edge& e : all) insert_internal(e.src, e.dst, tombstone);
    cold_maybe_schedule_enforce();
    return;
  }

  std::vector<std::uint32_t> work;
  std::vector<std::uint32_t> deferred;
  std::vector<std::uint64_t> merge_secs;  // coalesced rebalance hints
  std::vector<std::uint64_t> items;
  std::vector<std::uint64_t> tails;  // per-index projected tail slot

  for (std::size_t base = 0; base < all.size(); base += kMaxChunk) {
    const std::span<const Edge> edges =
        all.subspan(base, std::min(kMaxChunk, all.size() - base));

    // Batch indices still to absorb; re-bucketed every pass because
    // rebalances move home sections between passes.
    work.resize(edges.size());
    std::iota(work.begin(), work.end(), 0);
    items.reserve(edges.size());
    tails.resize(edges.size());

    while (!work.empty()) {
      deferred.clear();
      merge_secs.clear();

      global_mu_.lock_shared();
      const std::uint64_t cap = capacity_;
      const int shift = seg_shift_;
      const std::uint64_t nseg = num_segments_;
      if (seg_slots_ == 0 || cap == 0) {  // torn mid-resize: retry the pass
        global_mu_.unlock_shared();
        continue;
      }
      if (nseg >= batchkey::kMaxKeySections) {
        // The sort key's home field can no longer distinguish sections
        // (batch_key.hpp): colliding homes would absorb runs under the
        // wrong section lock. Fall back to the per-edge path — always
        // correct, and this scale of store is far off the hot path.
        global_mu_.unlock_shared();
        for (const std::uint32_t idx : work)
          insert_internal(edges[idx].src, edges[idx].dst, tombstone);
        work.clear();
        continue;
      }

      // Bucket by (optimistic) home section, capturing the run's current
      // tail slot in the same entry read. The unlocked reads are only
      // advisory — every run is re-validated under its section locks.
      // Knowing the whole batch lets this pass (and the absorption loop
      // below) prefetch ahead — the lookahead the per-edge path cannot
      // have, which hides the random-access misses on the vertex table.
      constexpr std::size_t kPrefetch = 8;
      items.clear();
      for (std::size_t w2 = 0; w2 < work.size(); ++w2) {
        if (w2 + kPrefetch < work.size())
          __builtin_prefetch(&entries_[edges[work[w2 + kPrefetch]].src]);
        const std::uint32_t idx = work[w2];
        const VertexEntry& e = entries_[edges[idx].src];
        const std::uint64_t start = relaxed_u64(e.start);
        const std::uint64_t home = start < cap ? start >> shift : nseg - 1;
        items.push_back(make_key(home, edges[idx].src, idx));
        tails[idx] = std::min<std::uint64_t>(
            start + 1 + relaxed_u32(e.arr_count), cap - 1);
      }
      std::sort(items.begin(), items.end());
      // Warm the slot lines each run will append to while the sections are
      // still unlocked; absorption below then mostly hits cache.
      for (const std::uint64_t it : items)
        __builtin_prefetch(slots_ + tails[key_idx(it)], 1);

      bool pass_flushed = false;
      std::size_t g = 0;
      while (g < items.size()) {
        const std::uint64_t home = key_home(items[g]);
        std::size_t h = g;
        std::uint64_t last = home;
        while (h < items.size() && key_home(items[h]) == home) {
          last = std::max<std::uint64_t>(last, tails[key_idx(items[h])] >> shift);
          ++h;
        }
        if (home >= nseg) {  // stale read: recompute next pass
          for (std::size_t i = g; i < h; ++i)
            deferred.push_back(key_idx(items[i]));
          g = h;
          continue;
        }
        // One headroom section lets run tails grow past their current
        // section within this group; longer extensions fall to the edge
        // log, which is always legal.
        last = std::min(last + 1, nseg - 1);

        for (std::uint64_t s = home; s <= last; ++s) sections_[s].lock.lock();
        if (DGAP_UNLIKELY(cold_ != nullptr)) {
          // Writers always write pmem: promote the whole locked group and
          // feed the churn EWMA (write-warm sections resist demotion).
          for (std::uint64_t s = home; s <= last; ++s) {
            ensure_resident_locked(s);
            cold_->note_write(s);
          }
        }

        SectionMeta& sm = sections_[home];
        const std::uint32_t el_base = sm.elog_raw;
        std::uint64_t group_absorbed = 0;

        for (std::size_t i = g; i < h;) {
          const NodeId src = edges[key_idx(items[i])].src;
          std::size_t j = i;
          while (j < h && key_group(items[j]) == key_group(items[i]) &&
                 edges[key_idx(items[j])].src == src)
            ++j;
          VertexEntry& live = entries_[src];
          if (live.start >= cap || (live.start >> shift) != home) {
            // A rebalance moved this run since bucketing: retry next pass.
            for (std::size_t k = i; k < j; ++k)
              deferred.push_back(key_idx(items[k]));
            i = j;
            continue;
          }

          std::size_t k = i;
          const std::uint64_t absorbed_before = group_absorbed;
          // Fig 3(a) in bulk: append into the run's free tail while gaps
          // last, then flush the whole appended range with one call.
          if (live.el_chain == 0) {
            std::uint64_t pos = live.start + 1 + live.arr_count;
            const std::uint64_t run_begin = pos;
            while (k < j && pos < cap && (pos >> shift) <= last &&
                   is_gap(slots_[pos])) {
              slots_[pos] = encode_edge(edges[key_idx(items[k])].dst,
                                        tombstone);
              ++pos;
              ++k;
            }
            if (pos > run_begin) {
              pool_.flush(slots_ + run_begin,
                          (pos - run_begin) * sizeof(Slot));
              // Mirror the appended range into the DRAM tier (per touched
              // section, under the locks held for this group) BEFORE the
              // count publish that makes the slots readable.
              if (cache_) {
                for (std::uint64_t p = run_begin; p < pos;) {
                  const std::uint64_t sec = p >> shift;
                  const std::uint64_t end = std::min(pos, (sec + 1) << shift);
                  cache_->write_through_range(sec, p - (sec << shift),
                                              slots_ + p, end - p);
                  p = end;
                }
              }
              // Release-publish after the slot stores: lock-free snapshot
              // readers acquire the count before indexing the run.
              publish_u32(live.arr_count,
                          live.arr_count +
                              static_cast<std::uint32_t>(pos - run_begin));
              if (tombstone) store_u8_relaxed(live.has_tombstone, 1);
              for (std::uint64_t p = run_begin; p < pos;) {
                const std::uint64_t sec = p >> shift;
                const std::uint64_t end = std::min(pos, (sec + 1) << shift);
                tree_->add(sec, static_cast<std::int64_t>(end - p));
                if (!opts_.metadata_in_dram) mirror_segment(sec);
                p = end;
              }
              if (!opts_.metadata_in_dram) mirror_vertex(src);
              stats_.array_inserts += pos - run_begin;
              group_absorbed += pos - run_begin;
              pass_flushed = true;
            }
          }
          // Fig 3(b) in bulk: the rest of the run goes to the home
          // section's edge log, flushed as one contiguous range below.
          while (k < j) {
            if (sm.elog_raw >= elog_entries_) {
              merge_secs.push_back(home);
              for (; k < j; ++k) deferred.push_back(key_idx(items[k]));
              break;
            }
            const std::uint32_t eidx = sm.elog_raw;
            ElogEntry* entry = elog(home) + eidx;
            *entry = make_elog_entry(src, edges[key_idx(items[k])].dst,
                                     tombstone, chain_head_p1(live.el_chain));
            store_u32_relaxed(sm.elog_raw, eidx + 1);
            sm.elog_live += 1;
            // One release store moves count and head together (chain_word).
            publish_u64(live.el_chain,
                        chain_word(chain_count(live.el_chain) + 1, eidx + 1));
            if (tombstone) store_u8_relaxed(live.has_tombstone, 1);
            tree_->add(home, +1);
            if (!opts_.metadata_in_dram) {
              mirror_vertex(src);
              mirror_segment(home);
            }
            ++stats_.elog_inserts;
            ++group_absorbed;
            ++k;
          }
          // One touch-map mark per source per group (snapshot-diff change
          // tracking), not per edge — the mark is idempotent within a cut.
          if (group_absorbed > absorbed_before) touch_mark(src);
          i = j;
        }

        // The group's edge-log tail is one contiguous append: flush it as
        // a single range (array runs were flushed above, so every source's
        // older array slots hit the media before its newer log entries).
        const std::uint32_t el_new = sm.elog_raw - el_base;
        if (el_new > 0) {
          pool_.flush(elog(home) + el_base, el_new * sizeof(ElogEntry));
          pass_flushed = true;
        }
        if (el_new > 0 || group_absorbed > 0) ++stats_.flush_epochs;
        if (static_cast<double>(sm.elog_raw) >=
            opts_.elog_merge_fill * static_cast<double>(elog_entries_))
          merge_secs.push_back(home);
        if (group_absorbed > 0) {
          stats_.batch_inserts += group_absorbed;
          stats_.locks_saved += group_absorbed - 1;
        }

        for (std::uint64_t s = home; s <= last; ++s)
          sections_[s].lock.unlock();
        g = h;
      }
      // One fence per pass: durability of everything flushed above is
      // acknowledged here (the emulated media makes flushed lines durable
      // in flush order, so intra-pass ordering is already pinned).
      if (pass_flushed) pool_.fence();
      global_mu_.unlock_shared();

      // Coalesced rebalance triggers: at most one per touched section, and
      // trigger_rebalance itself no-ops for sections a previous trigger's
      // window already drained. trigger_rebalance re-validates density
      // under its own locks, so a stale hint no-ops.
      std::sort(merge_secs.begin(), merge_secs.end());
      merge_secs.erase(std::unique(merge_secs.begin(), merge_secs.end()),
                       merge_secs.end());
      for (const std::uint64_t sec : merge_secs) trigger_rebalance(sec);

      work.swap(deferred);
    }
  }
  // Batch absorption is the main pmem-pressure event: kick the cold-tier
  // budget enforcer (no-op when the tier is off or under budget).
  cold_maybe_schedule_enforce();
}

}  // namespace dgap::core
