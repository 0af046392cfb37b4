// DgapStore: the paper's contribution — a dynamic graph store whose single
// mutable-CSR (PMA/VCSR) edge array lives on persistent memory, with
//
//   * a DRAM vertex array (degree / start / edge-log pointer) rebuilt from
//     pivot elements after a crash                       (paper §3, box 1+2)
//   * a per-section edge log absorbing inserts that would need a nearby
//     shift                                              (paper §3, box 3)
//   * a per-thread undo log making rebalancing crash-consistent without
//     PMDK transactions                                  (paper §3, box 4)
//   * epoch-versioned degree-cache snapshots (src/core/snapshot.hpp):
//     analysis tasks read a frozen consistent view lock-free, concurrently
//     with writers, rebalances AND whole-array resizes — a resize retires
//     the old layout generation and reclamation waits for the last snapshot
//     referencing it, never the other way round
//   * per-section reader/writer locks with ordered acquisition serializing
//     WRITERS against structural ops (paper §3.1.6); analysis readers take
//     no section locks — a striped per-read gate excludes only structural
//     data movement (snapshot.hpp)
//
// Ablation switches in DgapOptions turn each design off to reproduce the
// paper's Table 5 variants.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/spinlock.hpp"
#include "src/common/stat_cell.hpp"
#include "src/core/encoding.hpp"
#include "src/core/options.hpp"
#include "src/core/persistent_layout.hpp"
#include "src/core/section_table.hpp"
#include "src/core/snapshot.hpp"
#include "src/graph/types.hpp"
#include "src/obs/latency_histogram.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/pma/segment_tree.hpp"
#include "src/pmem/latency_model.hpp"
#include "src/sched/task_scheduler.hpp"
#include "src/pmem/pool.hpp"
#include "src/pmem/tx.hpp"
#include "src/tier/cold_tier.hpp"
#include "src/tier/dram_cache.hpp"
#include "src/tier/streaming.hpp"

namespace dgap::core {

namespace detail {
struct ColdImage;  // cold_ops.cpp
// One nesting level of this thread's reusable cold-section image
// (cold_ops.cpp). Each emit_run_frozen holds a lease and takes its level
// on the first cold section it meets; an emit callback that reads a store
// again takes the next level, so it can never overwrite the image its
// caller is still emitting from.
class ColdImageLease {
 public:
  ColdImageLease() = default;
  ~ColdImageLease() {
    if (img_ != nullptr) release();
  }
  ColdImageLease(const ColdImageLease&) = delete;
  ColdImageLease& operator=(const ColdImageLease&) = delete;
  ColdImage& image() {
    if (img_ == nullptr) acquire();
    return *img_;
  }

 private:
  void acquire();
  void release();
  ColdImage* img_ = nullptr;
};
}  // namespace detail

// Operation counters exposed for benches and the ablation analysis.
// Relaxed atomic cells (StatCell): concurrent writer threads bump them on
// the hot path while benches/tests read them unsynchronized, so plain
// integers would be a data race. Relaxed ops keep the increment cost at a
// single uncontended RMW — no fences added to the measured paths.
struct DgapStats {
  StatCell<std::uint64_t> array_inserts;  // edges placed directly in array
  StatCell<std::uint64_t> elog_inserts;   // edges absorbed by a section log
  StatCell<std::uint64_t> shift_inserts;  // ablation: nearby shifts done
  StatCell<std::uint64_t> shift_slots_moved;
  StatCell<std::uint64_t> rebalances;
  StatCell<std::uint64_t> resizes;
  StatCell<std::uint64_t> merges;     // sections drained during rebalances
  StatCell<double> merge_fill_sum;    // sum of elog fill fractions at drain

  // Batched-ingestion accounting (insert_batch/delete_batch path).
  StatCell<std::uint64_t> batch_inserts;  // edges absorbed via batch path
  StatCell<std::uint64_t> locks_saved;  // section-lock acquisitions avoided
                                        // vs the same edges one at a time
  StatCell<std::uint64_t> flush_epochs;  // flush+fence epochs the batch
                                         // path issued (vs one per edge)

  // Snapshot subsystem accounting (snapshot.hpp).
  StatCell<std::uint64_t> snapshot_captures;
  StatCell<std::uint64_t> snapshot_read_retries;  // reader-gate back-outs
                                                  // (a structural op
                                                  // announced mid-entry)
};

class DgapStore {
 public:
  // Initialize a brand-new store inside `pool` (pool must be fresh).
  static std::unique_ptr<DgapStore> create(pmem::PmemPool& pool,
                                           const DgapOptions& opts);
  // Attach to an existing store: fast path after a clean shutdown, full
  // scan + undo-log replay after a crash (paper §3.1.5).
  static std::unique_ptr<DgapStore> open(pmem::PmemPool& pool,
                                         const DgapOptions& opts);

  ~DgapStore();
  DgapStore(const DgapStore&) = delete;
  DgapStore& operator=(const DgapStore&) = delete;

  // --- updates (paper §3.1.2) ---------------------------------------------
  void insert_edge(NodeId src, NodeId dst);
  // Deletion = re-insert with a tombstone flag.
  void delete_edge(NodeId src, NodeId dst);
  // Ensure vertex ids [0, v] exist (pivot appended for each new vertex).
  // Every update throws std::out_of_range for an id above kMaxVertexId.
  void insert_vertex(NodeId v);

  // Batched ingestion (batch_insert.cpp): absorb a whole batch with one
  // section-lock acquisition and one flush-fence epoch per touched section
  // group instead of per edge, and with rebalance triggers coalesced to at
  // most one per touched window. Equivalent to calling insert_edge /
  // delete_edge once per element in order; durability is acknowledged for
  // the batch as a whole (a crash mid-batch may keep any chronological
  // per-vertex prefix of the un-acknowledged batch, never a torn edge).
  // Thread-safe against concurrent insert/delete/batch/readers.
  void insert_batch(std::span<const Edge> edges);
  void delete_batch(std::span<const Edge> edges);

  // --- analysis (paper §3.1.3, snapshot.hpp) --------------------------------
  // Freeze writers and structural ops just long enough to copy the degree
  // column (O(V)), then hand out a versioned snapshot that pins nothing the
  // store ever waits for. The freeze takes rebalance_mu_ before global_mu_,
  // matching resize_and_rebuild, so it also excludes window rebalances —
  // the captured degree column is a true instant.
  [[nodiscard]] Snapshot consistent_view() const;

  // --- lifecycle (paper §3.1.5) ---------------------------------------------
  // Graceful shutdown: persist the DRAM vertex array + PMA metadata so the
  // next open() is fast, then set NORMAL_SHUTDOWN.
  void shutdown();

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(num_vertices_.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::uint64_t num_edge_slots() const;  // incl. tombstones
  [[nodiscard]] std::uint64_t capacity_slots() const { return capacity_; }
  [[nodiscard]] std::uint64_t num_segments() const { return num_segments_; }
  [[nodiscard]] const DgapStats& stats() const { return stats_; }
  [[nodiscard]] const DgapOptions& options() const { return opts_; }
  [[nodiscard]] std::uint64_t elog_capacity_bytes() const;
  // Average edge-log fill fraction observed at merge time (Fig 9 metric).
  [[nodiscard]] double elog_fill_at_merge() const;
  // Current layout generation (advances once per resize) and the number of
  // retired layouts still awaiting reclamation (pinned by live snapshots).
  [[nodiscard]] std::uint64_t layout_epoch() const;
  [[nodiscard]] std::size_t retired_layouts() const;

  // Change tracking for snapshot diffs (snapshot_delta.cpp): vertices are
  // tracked in blocks of kTouchBlockVertices; touched_since(v, s) reports
  // whether ANY vertex in v's block saw an insert/delete at or after capture
  // seq `s`. Conservative by construction — block granularity plus id
  // aliasing above kTouchBlocks * kTouchBlockVertices can only over-report
  // a change, never miss one (argument in snapshot_delta.cpp).
  static constexpr NodeId kTouchBlockVertices = 256;
  [[nodiscard]] bool touched_since(NodeId v, std::uint64_t since_seq) const {
    const std::uint64_t mark =
        touch_marks_[(static_cast<std::uint64_t>(v) >> kTouchShift) &
                     (kTouchBlocks - 1)]
            .load(std::memory_order_relaxed);
    return mark >= since_seq;
  }

  // Test hooks: hold the structural gate open with an announced window so a
  // regression test can prove out-of-window snapshot reads are NOT turned
  // away mid-rebalance while in-window reads are (tests/incremental_test).
  void debug_struct_gate_begin(std::uint64_t begin_slot,
                               std::uint64_t end_slot) const {
    struct_window_begin(begin_slot, end_slot);
  }
  void debug_struct_gate_end() const { struct_window_end(); }

  // DRAM hot-tier counters (src/tier); zeroed struct when the tier is off.
  [[nodiscard]] tier::CacheStats cache_stats() const {
    return cache_ ? cache_->stats() : tier::CacheStats{};
  }

  // --- SSD cold tier (src/tier/cold_tier.hpp, protocol in cold_ops.cpp) ----
  [[nodiscard]] bool cold_tier_active() const { return cold_ != nullptr; }
  [[nodiscard]] tier::ColdStats cold_stats() const {
    return cold_ ? cold_->stats() : tier::ColdStats{};
  }
  // Pool bytes currently believed resident (allocator bump minus demoted
  // sections) — what the demotion pass compares against the budget.
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return pool_.resident_bytes();
  }
  // Run one budget-enforcement pass inline: decay the EWMAs and demote the
  // coldest write-quiet sections until resident_bytes() <= budget. Normally
  // triggered automatically after batch absorption / resize; public so
  // benches and tests can force a deterministic pass.
  void cold_enforce_budget();
  // Re-aim the tier's pmem budget at runtime (the bench harness sizes it
  // from the actual post-load footprint). No-op when the tier is off or
  // bytes == 0; the next enforcement pass applies it.
  void set_cold_budget_bytes(std::uint64_t bytes) {
    if (cold_ != nullptr && bytes != 0)
      cold_budget_bytes_.store(bytes, std::memory_order_relaxed);
  }
  // Test hooks: demote every eligible section / promote everything back,
  // or one section (ids past the live layout are ignored).
  void debug_cold_demote_all();
  void debug_cold_promote_all();
  void debug_cold_demote(std::uint64_t sec);
  void debug_cold_promote(std::uint64_t sec) { cold_promote(sec); }

  // Latency distributions (ns): snapshot-freeze duration (one sample per
  // consistent_view), window-rebalance duration, and resize duration.
  // Snapshots diff (operator-) for per-round views.
  [[nodiscard]] obs::HistogramSnapshot freeze_latency() const {
    return freeze_hist_.snapshot();
  }
  [[nodiscard]] obs::HistogramSnapshot rebalance_latency() const {
    return rebalance_hist_.snapshot();
  }
  [[nodiscard]] obs::HistogramSnapshot resize_latency() const {
    return resize_hist_.snapshot();
  }

  // Deep structural audit for tests: run shape, tree counts, chain sanity.
  [[nodiscard]] bool check_invariants(std::string* why = nullptr) const;

 private:
  struct VertexEntry {
    std::uint64_t start = 0;      // pivot slot
    std::uint64_t el_chain = 0;   // edge-log chain word (chain_word below)
    std::uint32_t arr_count = 0;  // edges in the array run
    std::uint8_t has_tombstone = 0;
  };

  // A vertex's section edge-log chain as ONE word: its live entry count in
  // the low half, its newest entry's index + 1 in the high half (0 = none).
  // Both halves change together, so a reader that acquires the word holds a
  // matching pair: the head's chain ordinal is exactly count - 1, and the
  // entry `k` hops behind it has ordinal count - 1 - k.
  static constexpr std::uint64_t chain_word(std::uint32_t count,
                                            std::uint32_t head_p1) {
    return (std::uint64_t{head_p1} << 32) | count;
  }
  static constexpr std::uint32_t chain_count(std::uint64_t w) {
    return static_cast<std::uint32_t>(w);
  }
  static constexpr std::uint32_t chain_head_p1(std::uint64_t w) {
    return static_cast<std::uint32_t>(w >> 32);
  }

  // Writer->snapshot-reader publication of the two VertexEntry fields the
  // lock-free read path keys off. A writer stores the slot / elog entry
  // FIRST, then publishes arr_count / el_chain with release; the reader
  // acquires before dereferencing, so the data it indexes is visible — on
  // x86 both compile to plain moves, elsewhere they are the fence the old
  // section-lock handshake used to provide. Fields mutated only inside the
  // structural gate (splice rewrites) need no release: the gate's own
  // acquire/release chain orders them for readers (writers' unlocked probe
  // still goes through the relaxed helpers below).
  static void publish_u32(std::uint32_t& field, std::uint32_t v) {
    std::atomic_ref<std::uint32_t>(field).store(v, std::memory_order_release);
  }
  static std::uint32_t acquire_u32(const std::uint32_t& field) {
    return std::atomic_ref<std::uint32_t>(const_cast<std::uint32_t&>(field))
        .load(std::memory_order_acquire);
  }
  static void publish_u64(std::uint64_t& field, std::uint64_t v) {
    std::atomic_ref<std::uint64_t>(field).store(v, std::memory_order_release);
  }
  static std::uint64_t acquire_u64(const std::uint64_t& field) {
    return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(field))
        .load(std::memory_order_acquire);
  }

  // Relaxed counterparts for the optimistic unlocked reads (insert_internal
  // and batch bucketing of entry fields, append_vertex_locked's tail probe,
  // the elog fill hints in rebalance_needed and the cold tier) and the
  // lock-held stores they race with. The race is by design — every
  // optimistically read value is re-validated under the section locks —
  // and routing both sides through atomic_ref keeps it defined behavior
  // (plain moves on every target we build for).
  static std::uint64_t relaxed_u64(const std::uint64_t& field) {
    return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(field))
        .load(std::memory_order_relaxed);
  }
  static std::uint32_t relaxed_u32(const std::uint32_t& field) {
    return std::atomic_ref<std::uint32_t>(const_cast<std::uint32_t&>(field))
        .load(std::memory_order_relaxed);
  }
  static void store_u64_relaxed(std::uint64_t& field, std::uint64_t v) {
    std::atomic_ref<std::uint64_t>(field).store(v, std::memory_order_relaxed);
  }
  static void store_u32_relaxed(std::uint32_t& field, std::uint32_t v) {
    std::atomic_ref<std::uint32_t>(field).store(v, std::memory_order_relaxed);
  }
  static void store_u8_relaxed(std::uint8_t& field, std::uint8_t v) {
    std::atomic_ref<std::uint8_t>(field).store(v, std::memory_order_relaxed);
  }

  struct SectionMeta {
    RWSpinLock lock;
    std::uint32_t elog_raw = 0;   // entries appended (incl. consumed)
    std::uint32_t elog_live = 0;  // unconsumed entries
  };

  struct GatheredRun {
    NodeId vertex;
    std::uint64_t old_start;
    std::uint32_t arr_count;  // array edges (excl. pivot)
    std::uint32_t el_count;   // live elog edges to splice
  };

  DgapStore(pmem::PmemPool& pool, const DgapOptions& opts);

  // --- layout helpers -------------------------------------------------------
  [[nodiscard]] Slot* slots() const { return slots_; }
  [[nodiscard]] ElogEntry* elog(std::uint64_t section) const {
    return elog_base_ + section * elog_entries_;
  }
  [[nodiscard]] std::uint64_t sec_of(std::uint64_t slot) const {
    return slot >> seg_shift_;  // seg_slots_ is a power of two
  }
  [[nodiscard]] UlogDescriptor* ulog(std::uint32_t tid) const;
  [[nodiscard]] char* ulog_data(std::uint32_t tid) const;
  [[nodiscard]] DgapRoot* root() const { return root_; }
  [[nodiscard]] std::uint32_t writer_slot() const;

  // Adopt `l` as the live layout: refresh the volatile mirrors AND publish
  // a new LayoutGen (epoch + 1) for the snapshot read path.
  void adopt_layout(const DgapLayout& l);
  void init_fresh(const DgapOptions& opts);
  void build_initial_array(NodeId vertices);

  // --- insert path ----------------------------------------------------------
  void insert_internal(NodeId src, NodeId dst, bool tombstone);
  void update_batch_internal(std::span<const Edge> edges, bool tombstone);
  void ensure_vertices(NodeId max_id);
  void append_vertex_locked(NodeId v);

  void nearby_shift_insert(NodeId src, Slot value, std::uint64_t pos,
                           std::uint64_t sec);

  // --- snapshot read path (snapshot.hpp) ------------------------------------
  // The ONLY way to reach raw frozen-prefix reads: emit the first `limit`
  // chronological edge slots of v (tombstone bits intact, early-exit via
  // emit_stop). Takes no section locks — plain writers only append past
  // the frozen prefix, so the read emits directly from the arrays while a
  // striped reader gate (below) excludes just the structural ops that move
  // data. Reachable only through a Snapshot (which holds the frozen
  // limit), so the "caller must pin the view" invariant is structural, not
  // a comment.
  template <typename F>
  void read_frozen(NodeId v, std::uint32_t limit, F&& emit) const;
  // Generalization used by the snapshot diff: emit frozen chronological
  // slots [from, limit) of v. read_frozen is the from == 0 case; the
  // per-vertex slot sequence is append-only across structural ops (splices
  // preserve chronological order), so a [d_old, d_new) suffix read is exact.
  // Returns the edge-log chain entries it read: the chain walk stops at the
  // first ordinal it emits, so a suffix read pays for the suffix plus the
  // entries appended after the cut, never for the older prefix.
  template <typename F>
  std::uint32_t read_frozen_range(NodeId v, std::uint32_t from,
                                  std::uint32_t limit, F&& emit) const;
  // Emit `count` frozen slots starting at array position `first`, section
  // piece by section piece: DRAM tier on a hit, latency-charged pmem read
  // (with opportunistic tier population) on a miss. Returns false when the
  // emitter stopped early.
  template <typename F>
  bool emit_run_frozen(std::uint64_t first, std::uint32_t count,
                       F&& emit) const;

  // Striped reader/writer gate between snapshot reads and STRUCTURAL ops
  // (window rebalance, resize flip, ablation nearby-shift) — the brlock
  // pattern: readers hold a per-thread-striped count for ONE vertex read;
  // a structural op announces itself (struct_writers_), drains the lanes,
  // mutates, releases. Writer-preferring: announced structural ops turn
  // new readers away, so a read storm cannot starve a rebalance. This is
  // what lets a snapshot LIFETIME pin nothing: the gate is held per read,
  // never per snapshot.
  //
  // Windowed admission (bank-flip): a window rebalance announces its slot
  // range [struct_win_begin_, struct_win_end_) instead of excluding every
  // read. Each lane keeps TWO counters (banks); the windowed op flips the
  // active bank and drains only the OLD bank — readers that entered before
  // the announcement. A reader that arrives while the window is announced
  // checks its vertex's run start against the window: outside -> it
  // proceeds, parked in the NEW bank (never drained by this op); inside ->
  // it backs out and spins, exactly the old behavior. Full-exclusion ops
  // (resize flip, ablation nearby-shift) additionally raise struct_full_
  // and drain BOTH banks, so they keep total exclusion.
  std::size_t reader_lane_enter(NodeId v) const;  // returns lane*2 + bank
  void reader_lane_exit(std::size_t packed) const;
  void struct_mutation_begin() const;  // full: announce + drain everything
  void struct_mutation_end() const;
  // Windowed variant (rebalance only — callers serialize on rebalance_mu_):
  // turns away only readers whose run starts inside [begin_slot, end_slot).
  void struct_window_begin(std::uint64_t begin_slot,
                           std::uint64_t end_slot) const;
  void struct_window_end() const;
  // RAII hold: a throw inside a gated region (pool exhaustion in the tx
  // ablation, allocation failure mid-resize) must release the gate, or
  // every snapshot read would spin forever on struct_writers_.
  class StructGateHold {
   public:
    explicit StructGateHold(const DgapStore& s) : s_(s) {
      s_.struct_mutation_begin();
    }
    StructGateHold(const DgapStore& s, std::uint64_t win_begin,
                   std::uint64_t win_end)
        : s_(s), windowed_(true) {
      s_.struct_window_begin(win_begin, win_end);
    }
    ~StructGateHold() {
      if (windowed_)
        s_.struct_window_end();
      else
        s_.struct_mutation_end();
    }
    StructGateHold(const StructGateHold&) = delete;
    StructGateHold& operator=(const StructGateHold&) = delete;

   private:
    const DgapStore& s_;
    bool windowed_ = false;
  };

  // Generation management: retire the pre-resize layout onto the
  // reclamation list; free every retired layout nobody references anymore.
  void retire_layout(const LayoutGen* gen);
  void reclaim_retired();

  // --- rebalance / resize (rebalance.cpp) ------------------------------------
  // `force` executes one window rebalance even when the usual trigger
  // conditions no longer hold (used by crash recovery to finish interrupted
  // operations, paper §3.1.4). `extra_slots` inflates the density test so
  // the chosen window is guaranteed at least that much free space —
  // tail-append escalation relies on it.
  void trigger_rebalance(std::uint64_t seg_hint, bool force = false,
                         std::uint64_t extra_slots = 0);
  [[nodiscard]] bool rebalance_needed(std::uint64_t seg) const;
  // Preconditions: exclusive locks held on [begin_seg, end_seg).
  void rebalance_window_locked(std::uint64_t begin_seg, std::uint64_t end_seg,
                               std::uint32_t tid);
  std::vector<GatheredRun> gather_runs(std::uint64_t slot_begin,
                                       std::uint64_t slot_end) const;
  // Collect v's live elog edges oldest-first as encoded slots.
  void collect_elog_slots(NodeId v, std::vector<Slot>& out) const;
  void move_run(const GatheredRun& run, std::uint64_t new_start,
                std::uint32_t tid, std::uint64_t win_begin,
                std::uint64_t win_end);
  void mark_elog_consumed(NodeId v, std::uint64_t home_sec);
  void clear_window_elogs(std::uint64_t begin_seg, std::uint64_t end_seg,
                          std::uint32_t tid);
  void zero_range_persist(std::uint64_t begin_slot, std::uint64_t end_slot);
  // Preconditions: rebalance_mu_ held, no section locks held. Never waits
  // for snapshot readers: the old layout is retired, not reused.
  void resize_and_rebuild(std::uint64_t extra_slots);
  void lock_sections_upto(std::uint64_t count) const;
  void unlock_sections_upto(std::uint64_t count) const;

  // Chunked, undo-protected copy of one run image into the array. Factored
  // so crash recovery can resume it. `staging` holds the run's new content.
  void copy_run_chunks(const std::vector<Slot>& staging,
                       std::uint64_t new_start, bool tail_first,
                       std::uint64_t start_cursor, std::uint32_t tid);

  // --- SSD cold tier protocol (cold_ops.cpp) --------------------------------
  // Which pmem bytes move when, under which locks/gates, and when the
  // persisted residency word flips. Mechanics (file, pread, EWMAs) live
  // in tier::ColdTier; see cold_ops.cpp for the full crash-safety argument.
  void cold_attach();                  // create/open the tier after adopt
  [[nodiscard]] std::uint64_t cold_residency_word(std::uint64_t sec) const;
  [[nodiscard]] bool cold_is_cold(std::uint64_t sec) const;
  // Reader path: when `sec` is cold, return its slot image from this
  // thread's image cache, reading the backing file only when the cached
  // image is not provably current (generation-revalidated against
  // promote/demote churn); nullptr = resident, read pmem. Takes no locks.
  const Slot* cold_image_if_cold(std::uint64_t sec,
                                 detail::ColdImageLease& lease) const;
  // Scan-resistant placement for a read of cold `sec`: true when it may be
  // promoted (reserving budget headroom into `reserved`).
  bool cold_read_may_promote(std::uint64_t sec,
                             std::uint64_t& reserved) const;
  // Single-slot probe for rebalance boundary walks: pmem when resident,
  // the cold image otherwise (same revalidation loop). Takes no locks.
  [[nodiscard]] Slot cold_probe_slot(std::uint64_t pos) const;
  // Synchronous promotion; caller holds the section's writer lock. Every
  // writer calls this before touching a section's slots or elog.
  void ensure_resident_locked(std::uint64_t sec);
  // Promotion that takes the section lock itself (async task body).
  void cold_promote(std::uint64_t sec);
  // Enqueue an async promotion on the scheduler's low lane (reader hits on
  // cold sections). Deduped per section; tracked in rebalance_wg_. The task
  // hands back `reserved` headroom bytes once the promotion settled.
  void cold_schedule_promote(std::uint64_t sec, std::uint64_t reserved) const;
  // Demote one section. Caller holds rebalance_mu_ (windowed-gate
  // contract); returns false when the section became ineligible.
  bool cold_demote_one(std::uint64_t sec);
  void cold_enforce_budget_locked();   // rebalance_mu_ held
  void cold_maybe_schedule_enforce();  // post-batch/post-promote trigger
  // Page release (cold_page_mu_ taken inside). A pmem page can hold slot or
  // elog bytes of several sections, so it is punched only once every
  // section it holds bytes of is released, and taken back when the first of
  // them is promoted. Each returns the page bytes it punched or took back.
  std::uint64_t cold_release_pages(std::uint64_t sec);   // after the flip
  std::uint64_t cold_reclaim_pages(std::uint64_t sec);   // before rewrite
  // Bytes cold_reclaim_pages(sec) would take back now (promotion headroom).
  [[nodiscard]] std::uint64_t cold_reclaimable_bytes(std::uint64_t sec) const;
  // Offsets of the whole pages holding bytes of `sec` and only of released
  // sections. cold_page_mu_ held.
  [[nodiscard]] std::vector<std::uint64_t> cold_released_pages_locked(
      std::uint64_t sec) const;
  // Scan source for one section: pmem when resident, the cold-file image
  // staged into `buf` otherwise (check_invariants, recovery scan).
  const Slot* section_for_scan(std::uint64_t sec, std::vector<Slot>& buf) const;

  // --- ablation: metadata-on-PM cost emulation --------------------------------
  void mirror_vertex(NodeId v);
  void mirror_segment(std::uint64_t seg);

  // --- recovery (recovery.cpp) ------------------------------------------------
  void recover(bool crashed);
  // Returns the interrupted window [begin_slot, end_slot) to re-issue, or
  // {0, 0} when nothing was in flight.
  std::pair<std::uint64_t, std::uint64_t> replay_ulog(std::uint32_t tid);
  void rebuild_volatile_from_scan();
  bool load_shutdown_image();
  void persist_shutdown_image();
  // Rebuild the new-content staging of the in-flight run recorded in the
  // descriptor, reading surviving pieces from old/new positions + elog.
  std::vector<Slot> reconstruct_inflight_staging(const UlogDescriptor& d) const;

  friend class Snapshot;

  pmem::PmemPool& pool_;
  DgapOptions opts_;
  DgapRoot* root_ = nullptr;

  // Volatile mirrors of the active layout (stable while holding any
  // section lock OR a reader-gate lane: they change only inside the
  // structural gate during resize). Both writers and snapshot readers use
  // them; LayoutGen descriptors only track epoch identity + reclamation.
  Slot* slots_ = nullptr;
  ElogEntry* elog_base_ = nullptr;
  std::uint64_t capacity_ = 0;
  std::uint64_t num_segments_ = 0;
  std::uint64_t seg_slots_ = 0;
  int seg_shift_ = 0;  // log2(seg_slots_)
  std::uint64_t elog_entries_ = 0;

  // Vertex table: chunked and pointer-stable (section_table.hpp), so growth
  // never invalidates concurrent readers — the pre-refactor reader gate
  // (snapshots pinning the table, growth quiescing readers) is gone.
  SectionTable<VertexEntry> entries_;
  std::unique_ptr<pma::SegmentTree> tree_;
  // Growable without invalidating concurrent readers (see section_table.hpp).
  mutable SectionTable<SectionMeta> sections_;
  std::atomic<std::uint64_t> num_vertices_{0};

  // Writers shared / freeze+resize exclusive.
  mutable RWSpinLock global_mu_;
  SpinLock vertex_mu_;               // serializes vertex append
  mutable SpinLock rebalance_mu_;    // serializes structural ops
                                     // (see rebalance.cpp; consistent_view
                                     // takes it ahead of global_mu_)

  // --- snapshot subsystem state (snapshot.hpp) ------------------------------
  std::shared_ptr<StoreCtl> ctl_;
  // Every generation ever published; the DRAM descriptors stay alive for
  // the store's lifetime (tiny: one per resize) so raw pointers held by
  // snapshots and in-flight reads never dangle while the store exists.
  std::vector<std::unique_ptr<LayoutGen>> all_gens_;  // guarded by gen_mu_
  mutable SpinLock gen_mu_;
  std::atomic<const LayoutGen*> cur_gen_{nullptr};
  std::vector<const LayoutGen*> retired_;  // guarded by retired_mu_
  mutable SpinLock retired_mu_;
  // Reader gate state (see reader_lane_enter above). Two counters per lane:
  // the banks of the bank-flip windowed admission protocol. The bank is
  // selected by the parity of a MONOTONE era counter (not a toggle bit):
  // readers re-validate the full era after incrementing, so a stalled
  // reader can never alias into a later op's undrained bank — a toggle bit
  // repeats values and admits exactly that ABA (proof sketch at
  // reader_lane_enter in dgap_store.cpp).
  static constexpr std::size_t kReadLanes = 8;
  struct alignas(kCacheLineSize) ReadLane {
    std::array<std::atomic<std::int64_t>, 2> n{};
  };
  mutable std::array<ReadLane, kReadLanes> read_lanes_{};
  mutable std::atomic<std::uint64_t> lane_era_{0};
  mutable std::atomic<int> struct_writers_{0};
  // Full-exclusion structural ops in progress (resize flip, ablation
  // nearby-shift). Raised BEFORE struct_writers_ so a reader that observes
  // writers != 0 from a full op must also observe full != 0 (both seq_cst).
  mutable std::atomic<int> struct_full_{0};
  // Announced rebalance window [begin, end) in slot coordinates; consulted
  // by readers only while a windowed op holds struct_writers_ (windowed ops
  // serialize on rebalance_mu_, so single-writer).
  mutable std::atomic<std::uint64_t> struct_win_begin_{0};
  mutable std::atomic<std::uint64_t> struct_win_end_{0};

  // --- snapshot-diff change tracking (snapshot_delta.cpp) -------------------
  // Monotone capture counter stamping Snapshot::capture_seq(). A static
  // member (not a function-local in consistent_view) so the batch-insert TU
  // can timestamp touch marks against it; global across instances — only
  // monotonicity matters, per-store uniqueness does not.
  static inline std::atomic<std::uint64_t> capture_seq_{0};
  static constexpr int kTouchShift = 8;  // log2(kTouchBlockVertices)
  static constexpr std::size_t kTouchBlocks = 4096;
  // Per-block last-mutation marks (value: capture_seq_ at mutation time).
  // Relaxed is enough: writers hold global_mu_ shared while captures hold
  // it exclusive, so a writer ordered after capture A reads a counter value
  // >= A's seq, and its mark is published to the *next* capture's diff by
  // the freeze's own exclusive acquisition (full argument where consumed,
  // snapshot_delta.cpp).
  std::array<std::atomic<std::uint64_t>, kTouchBlocks> touch_marks_{};
  void touch_mark(NodeId v) {
    touch_marks_[(static_cast<std::uint64_t>(v) >> kTouchShift) &
                 (kTouchBlocks - 1)]
        .store(capture_seq_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  }

  // PM mirror for the metadata-on-PM ablation (cost emulation only).
  std::uint64_t mirror_off_ = 0;
  std::uint64_t mirror_capacity_ = 0;

  std::unique_ptr<pmem::TxJournal> tx_journal_;  // ablation: PMDK-style tx

  // DRAM hot tier (null when dram_cache is 0). Mutable: the read path
  // populates frames from const methods; the cache is internally
  // synchronized per the contract in dram_cache.hpp.
  mutable std::unique_ptr<tier::SectionCache> cache_;
  // SSD cold tier (null when opts_.cold_tier is off). Mutable for the same
  // reason: const snapshot reads serve cold sections from the file and bump
  // its counters/EWMAs.
  mutable std::unique_ptr<tier::ColdTier> cold_;
  // Volatile pointer to the persisted residency words of the live layout
  // (pool_.at(layout.residency_off)); refreshed in adopt_layout under the
  // same stability rules as slots_.
  std::uint64_t* residency_ = nullptr;
  // Per live-layout section: 1 from its demotion's page release until its
  // promotion starts. Sized in cold_attach/adopt_layout.
  mutable SpinLock cold_page_mu_;
  std::vector<std::uint8_t> cold_released_;
  std::atomic<std::uint64_t> cold_budget_bytes_{0};
  // Budget headroom claimed by queued read promotions, so concurrent
  // readers cannot all promote into the same free bytes.
  mutable std::atomic<std::uint64_t> cold_promote_reserved_{0};
  // The coldest resident section the last budget pass left in place — the
  // next eviction victim — or kNoColdMark. A read promotion beyond the
  // headroom must out-read it by kColdPromoteLead (cold_ops.cpp).
  static constexpr std::uint64_t kNoColdMark = ~0ull;
  std::atomic<std::uint64_t> cold_evict_mark_{kNoColdMark};
  // Async promote dedup (at most one in-flight promotion per section) + one
  // in-flight budget pass. Fixed-size hashed flags, touch_marks_-style: a
  // resize must never reallocate storage an already-queued task still
  // indexes, and a hash collision only suppresses a duplicate schedule (the
  // next cold read re-triggers it) — never correctness.
  static constexpr std::size_t kColdPendingSlots = 4096;
  mutable std::array<std::atomic<std::uint8_t>, kColdPendingSlots>
      cold_promote_pending_{};
  mutable std::atomic<bool> cold_enforce_inflight_{false};

  // Cold-tier promotion/demotion tasks in flight on the scheduler.
  // shutdown()/~DgapStore wait the group BEFORE taking global_mu_ — a task
  // blocked on the store lock while shutdown holds it would deadlock the
  // wait.
  sched::WaitGroup rebalance_wg_;

  std::atomic<std::uint32_t> next_writer_{0};
  std::uint64_t instance_id_;
  // Mutable: const read/snapshot paths bump their own counters (StatCell
  // increments are relaxed atomics, so this is safe from any thread).
  mutable DgapStats stats_;

  // Observability (src/obs): latency histograms recorded on the structural
  // paths plus registry handles exposing the stats cells above. Declared
  // last so the registry readers deregister before anything they read.
  mutable obs::LatencyHistogram freeze_hist_;
  obs::LatencyHistogram rebalance_hist_;
  obs::LatencyHistogram resize_hist_;
  std::vector<obs::MetricsRegistry::Handle> metric_handles_;
  void register_metrics();
};

// ---------------------------------------------------------------------------
// Template implementations (snapshot read path)
// ---------------------------------------------------------------------------

// Correctness without section locks: while the reader gate is held no
// structural op can move data, and plain writers only ever (a) write a
// fresh slot then release-publish arr_count, (b) store an elog entry then
// release-publish the chain word (publish_u32/publish_u64 above), so an
// acquired count/chain never indexes unpublished data — it can only
// UNDER-read the live state, and the frozen `limit` caps everything at
// the snapshot's cut.
template <typename F>
void DgapStore::read_frozen(NodeId v, std::uint32_t limit, F&& emit) const {
  read_frozen_range(v, 0, limit, std::forward<F>(emit));
}

template <typename F>
std::uint32_t DgapStore::read_frozen_range(NodeId v, std::uint32_t from,
                                           std::uint32_t limit,
                                           F&& emit) const {
  if (limit <= from) return 0;
  std::uint32_t chain_reads = 0;
  const std::size_t lane = reader_lane_enter(v);
  const VertexEntry& ent = entries_[v];
  // Acquire the published count BEFORE touching slots: pairs with the
  // writer's release in publish_u32, so every slot under arr_count is
  // fully stored by the time we index it (free on x86). `start` is plain:
  // it changes only under the structural gate, and a windowed rebalance
  // rewrites starts only for in-window vertices — which this reader, if
  // admitted past an announced window, is not (reader_lane_enter probed
  // the same field atomically to decide).
  const std::uint32_t arr_count = acquire_u32(ent.arr_count);
  const std::uint64_t start = ent.start;
  const std::uint32_t arr_take = std::min<std::uint32_t>(limit, arr_count);
  bool stopped = false;
  if (DGAP_LIKELY(start + 1 + arr_take <= capacity_)) {
    if (from < arr_take)
      stopped = !emit_run_frozen(start + 1 + from, arr_take - from, emit);
    // Chain ordinals [skip, take) belong to the read: `skip` elog entries
    // precede `from`, and the cut holds limit - arr_take of them.
    const std::uint32_t skip = from > arr_take ? from - arr_take : 0;
    const std::uint64_t chain =
        !stopped && limit - arr_take > skip ? acquire_u64(ent.el_chain) : 0;
    if (DGAP_UNLIKELY(chain != 0)) {
      // Walk the back-pointer chain (newest first) into a FIFO buffer,
      // then emit it in chronological order (paper §3.1.3's FIFO buffer of
      // size rest_t(v)). The acquired word pairs the head with its count,
      // so every hop knows its ordinal: entries past `take` were appended
      // after the cut and are only stepped over, and the walk stops at
      // ordinal `skip` — count - skip hops, not the whole chain. The
      // chain's entries are immutable once published, so the ordinals are
      // exact for the frozen cut however far the head has grown since.
      // Back-pointers strictly decrease (an entry chains to an earlier
      // index), so even a corrupt chain ends.
      const std::uint32_t count = chain_count(chain);
      const std::uint32_t take = std::min(limit - arr_take, count);
      const ElogEntry* log = elog(sec_of(start));
      // Newest-first scratch, taken out of the thread's spare for the
      // walk and the emits: an emit callback may read this store again.
      thread_local std::vector<Slot> spare;
      std::vector<Slot> fifo = std::move(spare);
      fifo.clear();
      std::uint32_t idx_p1 = chain_head_p1(chain);
      for (std::uint32_t ord = count;
           ord > skip && idx_p1 != 0 && idx_p1 <= elog_entries_;) {
        --ord;
        // Elog entries are never tiered into DRAM (they churn by design),
        // so each chain hop is a charged pmem read.
        pmem::latency_model().on_read(log + (idx_p1 - 1), 1);
        const ElogEntry entry = log[idx_p1 - 1];
        ++chain_reads;
        if (ord < take)
          fifo.push_back(encode_edge(elog_dst(entry), elog_tombstone(entry)));
        if (entry.prev_p1 >= idx_p1) break;  // corrupt chain: stop short
        idx_p1 = entry.prev_p1;
      }
      for (auto it = fifo.rbegin(); it != fifo.rend(); ++it)
        if (emit_stop(emit, *it)) break;
      spare = std::move(fifo);
    }
  }
  reader_lane_exit(lane);
  return chain_reads;
}

// Section-piece emission with the DRAM hot tier interposed. Correctness of
// serving a frame instead of pmem: a frame is only (a) populated under the
// section's writer lock — so the copy can't miss an append it races with —
// and (b) kept in sync by writers mirroring every slot store under that
// same lock BEFORE release-publishing arr_count. The acquire of arr_count
// in read_frozen therefore covers the frame copy exactly as it covers the
// pmem slots; structural moves invalidate frames under the structural gate
// before any reader can re-enter. Misses fall back to the latency-charged
// pmem read, so cache-off and cache-on runs are comparable.
template <typename F>
bool DgapStore::emit_run_frozen(std::uint64_t first, std::uint32_t count,
                                F&& emit) const {
  std::uint64_t pos = first;
  std::uint32_t left = count;
  detail::ColdImageLease cold_image;  // this run's level of the image cache
  while (left > 0) {
    const std::uint64_t sec = sec_of(pos);
    const std::uint64_t sec_base = sec << seg_shift_;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, sec_base + seg_slots_ - pos));
    const Slot* src = nullptr;
    tier::SectionCache::Pin pin;
    if (DGAP_UNLIKELY(cold_ != nullptr)) {
      // Serve a cold section from this thread's image of it (a promotion
      // may be scheduled inside; this read never waits on it). The
      // residency probe happens AFTER read_frozen_range acquired arr_count
      // — the ordering the cold-read correctness argument in cold_ops.cpp
      // depends on.
      if (const Slot* img = cold_image_if_cold(sec, cold_image))
        src = img + (pos - sec_base);
    }
    if (src == nullptr && DGAP_UNLIKELY(cache_ != nullptr)) {
      pin = cache_->acquire(sec);
      if (!pin) {
        if (DGAP_UNLIKELY(tier::streaming_reads_active())) {
          // Single-pass kernel (BFS/BC) declared itself streaming: serve
          // the bulk read below without admitting a frame. Populating for
          // a read that revisits each section ~2-3 times costs about what
          // it saves (the PR-6 breakeven), so the bypass keeps single-pass
          // kernels at cache-off speed while hits still hit above.
          cache_->note_stream_bypass();
        } else if (cache_->should_admit(sec)) {
          // Populate needs the section's writer lock to exclude appenders
          // for the copy window — but never block for it inside a reader
          // lane (a structural op may hold the lock while draining the
          // lanes we sit in). try_lock keeps the miss path deadlock-free.
          if (sections_[sec].lock.try_lock()) {
            pin = cache_->populate(sec, slots_ + sec_base);
            sections_[sec].lock.unlock_no_pending();
          }
        }
      }
      if (pin) src = pin.data + (pos - sec_base);
    }
    if (src == nullptr) {
      pmem::latency_model().on_read(
          slots_ + pos,
          (n * sizeof(Slot) + kCacheLineSize - 1) / kCacheLineSize);
      src = slots_ + pos;
    }
    bool stop = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (emit_stop(emit, src[i])) {
        stop = true;
        break;
      }
    }
    if (pin) cache_->release(pin);
    if (stop) return false;
    pos += n;
    left -= n;
  }
  return true;
}

template <typename F>
void Snapshot::for_each_out(NodeId v, F&& fn) const {
  check_open();
  const auto limit = degree_[v];
  if (limit == 0) return;
  if (DGAP_UNLIKELY(tomb_[v] != 0)) {
    // Exact tombstone cancellation (rare path: this vertex saw deletions).
    for (const NodeId d : neighbors(v))
      if (emit_stop(fn, d)) return;
    return;
  }
  // No tombstones on this vertex at the cut: every emitted slot is a live
  // edge, decode destinations straight through.
  store_->read_frozen(
      v, limit, [&](Slot s) { return emit_stop(fn, edge_dst(s)); });
}

template <typename F>
std::uint32_t Snapshot::for_each_slot_from(NodeId v, std::uint32_t from,
                                           F&& fn) const {
  check_open();
  const std::uint32_t limit = degree_[v];
  if (limit <= from) return 0;
  return store_->read_frozen_range(v, from, limit, [&](Slot s) {
    return emit_stop(fn, edge_dst(s), edge_tombstone(s));
  });
}

}  // namespace dgap::core
