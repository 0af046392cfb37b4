#include "src/core/dgap_store.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "src/obs/scoped_latency.hpp"
#include "src/obs/trace_ring.hpp"
#include "src/pma/layout.hpp"
#include "src/pmem/alloc.hpp"

namespace dgap::core {

namespace {
std::atomic<std::uint64_t> g_instance_counter{1};
}  // namespace

DgapStore::DgapStore(pmem::PmemPool& pool, const DgapOptions& opts)
    : pool_(pool),
      opts_(opts),
      ctl_(std::make_shared<StoreCtl>()),
      instance_id_(g_instance_counter.fetch_add(1)) {
  ctl_->store = this;
}

DgapStore::~DgapStore() {
  // Wait out offloaded rebalance tasks first (idempotent after shutdown());
  // they hold `this` and must not outlive it.
  rebalance_wg_.wait();
  // Close the snapshot control block first: any snapshot op from here on
  // fails fast (std::logic_error) instead of touching freed memory, and
  // Snapshot::release() becomes a no-op on the store side.
  {
    std::lock_guard<SpinLock> g(ctl_->mu);
    ctl_->store = nullptr;
    ctl_->closed.store(true, std::memory_order_release);
  }
  // Snapshots can no longer reach the arrays, so retired layouts are freed
  // unconditionally (their pins are stale by definition now).
  std::lock_guard<SpinLock> r(retired_mu_);
  for (const LayoutGen* g : retired_) {
    pool_.allocator().free(g->edge_array_off, g->edge_array_bytes);
    pool_.allocator().free(g->elog_region_off, g->elog_region_bytes);
  }
  retired_.clear();
}

UlogDescriptor* DgapStore::ulog(std::uint32_t tid) const {
  return pool_.at<UlogDescriptor>(root_->ulog_region_off +
                                  tid * ulog_stride(root_->ulog_data_bytes));
}

char* DgapStore::ulog_data(std::uint32_t tid) const {
  return reinterpret_cast<char*>(ulog(tid)) + sizeof(UlogDescriptor);
}

std::uint32_t DgapStore::writer_slot() const {
  // Per-(store instance, thread) undo-log slot. Keyed by instance id so a
  // new store reusing a freed address never aliases stale assignments.
  thread_local std::unordered_map<std::uint64_t, std::uint32_t> t_slots;
  const auto it = t_slots.find(instance_id_);
  if (it != t_slots.end()) return it->second;
  const std::uint32_t slot =
      const_cast<DgapStore*>(this)->next_writer_.fetch_add(1);
  if (slot >= root_->num_ulogs)
    throw std::runtime_error(
        "DGAP: more concurrent writer threads than "
        "DgapOptions::max_writer_threads");
  t_slots.emplace(instance_id_, slot);
  return slot;
}

void DgapStore::adopt_layout(const DgapLayout& l) {
  slots_ = pool_.at<Slot>(l.edge_array_off);
  elog_base_ = pool_.at<ElogEntry>(l.elog_region_off);
  capacity_ = l.capacity_slots;
  num_segments_ = l.num_segments;
  seg_slots_ = l.segment_slots;
  seg_shift_ = log2_floor(l.segment_slots);
  elog_entries_ = l.elog_entries;
  sections_.ensure(num_segments_);
  residency_ =
      l.residency_off != 0 ? pool_.at<std::uint64_t>(l.residency_off) : nullptr;
  if (cold_ != nullptr) {
    // Resize flip: the new layout starts all-resident (resize promotes every
    // cold section before rebuilding), so the backing file is simply
    // re-stamped for the new geometry. Callers flip root_->layout_off before
    // adopting, so the stamp identifies the layout now live.
    cold_->reconfigure(root_->layout_off, num_segments_,
                       seg_slots_ * sizeof(Slot));
    cold_evict_mark_.store(kNoColdMark, std::memory_order_relaxed);
  }

  // (Re)shape the DRAM hot tier for this layout's section geometry. Every
  // adopt happens either inside the structural gate (resize flip) or before
  // readers exist (create/open/recover), so dropping all frames here is the
  // natural epoch invalidation — stale section ids can never be re-read.
  if (const std::uint64_t cache_bytes = resolve_cache_bytes(opts_);
      cache_bytes != 0) {
    if (!cache_) {
      cache_ = std::make_unique<tier::SectionCache>(cache_bytes,
                                                    opts_.eviction);
      cache_->set_background_evict(opts_.offload_tier_evict);
    }
    cache_->configure(num_segments_, seg_slots_);
  }

  // Publish the matching generation descriptor (epoch identity + deferred
  // reclamation bookkeeping — see LayoutGen in snapshot.hpp; reads use the
  // mirrors above). Callers flip inside the structural gate (resize) or
  // before any reader exists (create/open).
  auto gen = std::make_unique<LayoutGen>();
  gen->edge_array_off = l.edge_array_off;
  gen->edge_array_bytes = l.capacity_slots * sizeof(Slot);
  gen->elog_region_off = l.elog_region_off;
  gen->elog_region_bytes =
      l.num_segments * l.elog_entries * sizeof(ElogEntry);
  std::lock_guard<SpinLock> g(gen_mu_);
  gen->epoch = all_gens_.empty() ? 0 : all_gens_.back()->epoch + 1;
  all_gens_.push_back(std::move(gen));
  cur_gen_.store(all_gens_.back().get(), std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Creation / initialization
// ---------------------------------------------------------------------------

std::unique_ptr<DgapStore> DgapStore::create(pmem::PmemPool& pool,
                                             const DgapOptions& opts_in) {
  if (opts_in.section_slots_hint != 0 && !is_pow2(opts_in.section_slots_hint))
    throw std::invalid_argument("section_slots_hint must be a power of two");
  if (opts_in.section_slots_hint > kMaxSegmentSlots)
    throw std::invalid_argument(
        "section_slots_hint too large (max " +
        std::to_string(kMaxSegmentSlots) +
        " slots per section)");  // unclamped huge sections would overflow
                                 // the capacity byte-size math in init_fresh
  const DgapOptions opts = resolve_ingest_profile(opts_in);
  if (!is_pow2(opts.segment_slots))
    throw std::invalid_argument("segment_slots must be a power of two");
  std::unique_ptr<DgapStore> store(new DgapStore(pool, opts));
  store->init_fresh(opts);
  store->cold_attach();
  store->register_metrics();
  return store;
}

void DgapStore::init_fresh(const DgapOptions& opts) {
  auto& alloc = pool_.allocator();

  const std::uint64_t root_off = alloc.alloc(sizeof(DgapRoot));
  root_ = pool_.at<DgapRoot>(root_off);
  std::memset(root_, 0, sizeof(DgapRoot));
  root_->magic = kDgapMagic;
  root_->num_ulogs = opts.max_writer_threads;
  root_->ulog_data_bytes = opts.ulog_bytes;
  root_->elog_bytes = opts.elog_bytes;
  // Ingest profile is part of the durable format: resize geometry depends
  // on it, so open() must recover it instead of trusting the caller.
  root_->flags = static_cast<std::uint32_t>(opts.ingest_profile);

  // Per-thread undo logs (paper §3, component 4).
  const std::uint64_t stride = ulog_stride(opts.ulog_bytes);
  root_->ulog_region_off = alloc.alloc(stride * opts.max_writer_threads);
  std::memset(pool_.at<char>(root_->ulog_region_off), 0,
              stride * opts.max_writer_threads);
  pool_.persist(pool_.at<char>(root_->ulog_region_off),
                stride * opts.max_writer_threads);

  // PMDK-style transaction journal for the "No EL&UL" ablation.
  if (!opts.use_ulog) {
    root_->tx_anchor_off = pmem::TxJournal::create(pool_);
    tx_journal_ =
        std::make_unique<pmem::TxJournal>(pool_, root_->tx_anchor_off);
  }

  // Initial edge array sizing: room for the user's estimates at roughly 50%
  // density so early inserts rarely rebalance.
  const std::uint64_t needed =
      static_cast<std::uint64_t>(opts.init_vertices) + opts.init_edges;
  std::uint64_t cap = ceil_pow2(std::max<std::uint64_t>(
      needed * 2, opts.segment_slots * 2));
  const std::uint64_t nsegs = cap / opts.segment_slots;

  DgapLayout layout{};
  layout.capacity_slots = cap;
  layout.num_segments = nsegs;
  layout.segment_slots = opts.segment_slots;
  layout.elog_entries = opts.elog_bytes / sizeof(ElogEntry);
  layout.edge_array_off = alloc.alloc(cap * sizeof(Slot), 4096);
  layout.elog_region_off =
      alloc.alloc(nsegs * layout.elog_entries * sizeof(ElogEntry), 4096);
  // Cold-tier residency words, always allocated (zeroed = all resident) so
  // the tier can be toggled per run without a format change.
  layout.residency_off = alloc.alloc(nsegs * sizeof(std::uint64_t), 64);
  std::memset(pool_.at<char>(layout.residency_off), 0,
              nsegs * sizeof(std::uint64_t));
  pool_.persist(pool_.at<char>(layout.residency_off),
                nsegs * sizeof(std::uint64_t));

  std::memset(pool_.at<char>(layout.edge_array_off), 0, cap * sizeof(Slot));
  pool_.persist(pool_.at<char>(layout.edge_array_off), cap * sizeof(Slot));
  std::memset(pool_.at<char>(layout.elog_region_off), 0,
              nsegs * layout.elog_entries * sizeof(ElogEntry));
  pool_.persist(pool_.at<char>(layout.elog_region_off),
                nsegs * layout.elog_entries * sizeof(ElogEntry));

  const std::uint64_t layout_off = alloc.alloc(sizeof(DgapLayout));
  *pool_.at<DgapLayout>(layout_off) = layout;
  pool_.persist(pool_.at<DgapLayout>(layout_off), sizeof(DgapLayout));
  root_->layout_off = layout_off;
  pool_.persist(root_, sizeof(DgapRoot));
  pool_.set_root(root_off);

  adopt_layout(layout);
  tree_ = std::make_unique<pma::SegmentTree>(num_segments_, seg_slots_,
                                             opts_.density);

  entries_.ensure(static_cast<std::size_t>(
      std::max<NodeId>(opts.init_vertices, 16) * 2));
  build_initial_array(opts.init_vertices);

  pool_.mark_running();
}

void DgapStore::build_initial_array(NodeId vertices) {
  // Pre-place a pivot for every initial vertex, spread evenly so each gets a
  // proportional share of the initial gaps (paper §3.1.1 pre-allocation).
  if (vertices <= 0) {
    num_vertices_.store(0, std::memory_order_release);
    return;
  }
  const std::uint64_t n = static_cast<std::uint64_t>(vertices);
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t pos = v * capacity_ / n;
    slots_[pos] = encode_pivot(static_cast<NodeId>(v));
    entries_[v] = VertexEntry{pos, 0, 0, 0, 0};
    tree_->add(sec_of(pos), +1);
  }
  pool_.persist(slots_, capacity_ * sizeof(Slot));
  num_vertices_.store(n, std::memory_order_release);
  root_->num_vertices = n;
  pool_.persist(&root_->num_vertices, sizeof(root_->num_vertices));
}

std::unique_ptr<DgapStore> DgapStore::open(pmem::PmemPool& pool,
                                           const DgapOptions& opts) {
  std::unique_ptr<DgapStore> store(new DgapStore(pool, opts));
  store->root_ = pool.at<DgapRoot>(pool.root());
  if (store->root_->magic != kDgapMagic)
    throw std::runtime_error("pool does not contain a DGAP store");
  store->opts_.elog_bytes = store->root_->elog_bytes;
  store->opts_.ulog_bytes = store->root_->ulog_data_bytes;
  store->opts_.max_writer_threads = store->root_->num_ulogs;
  // Adopt the persisted ingest profile: a mismatched request must not
  // remap the on-media geometry (resize behavior depends on the profile).
  store->opts_.ingest_profile =
      static_cast<IngestProfile>(store->root_->flags & 0xffu);
  store->opts_.section_slots_hint = 0;
  if (store->root_->tx_anchor_off != 0)
    store->tx_journal_ = std::make_unique<pmem::TxJournal>(
        pool, store->root_->tx_anchor_off);
  store->recover(!pool.was_clean_shutdown());
  // The live section geometry is whatever the layout records (resizes may
  // have grown it); mirror it into the volatile options for introspection.
  store->opts_.segment_slots = store->seg_slots_;
  pool.mark_running();
  store->register_metrics();
  return store;
}

void DgapStore::register_metrics() {
  // Registry readers over the existing stats cells + the latency
  // histograms. Named per instance so concurrent stores (shards, A/B
  // benches) stay distinguishable in the exporters.
  const std::string p = "dgap" + std::to_string(instance_id_) + "_";
  obs::MetricsRegistry& reg = obs::registry();
  const auto counter = [&](const char* name,
                           const StatCell<std::uint64_t>& cell) {
    metric_handles_.push_back(reg.add_counter(
        p + name, [&cell] { return static_cast<double>(cell.load()); }));
  };
  counter("array_inserts", stats_.array_inserts);
  counter("elog_inserts", stats_.elog_inserts);
  counter("rebalances", stats_.rebalances);
  counter("resizes", stats_.resizes);
  counter("merges", stats_.merges);
  counter("batch_inserts", stats_.batch_inserts);
  counter("flush_epochs", stats_.flush_epochs);
  counter("snapshot_captures", stats_.snapshot_captures);
  counter("snapshot_read_retries", stats_.snapshot_read_retries);
  metric_handles_.push_back(reg.add_gauge(p + "num_edge_slots", [this] {
    return static_cast<double>(num_edge_slots());
  }));
  metric_handles_.push_back(reg.add_histogram(
      p + "freeze_ns", [this] { return freeze_hist_.snapshot(); }));
  metric_handles_.push_back(reg.add_histogram(
      p + "rebalance_ns", [this] { return rebalance_hist_.snapshot(); }));
  metric_handles_.push_back(reg.add_histogram(
      p + "resize_ns", [this] { return resize_hist_.snapshot(); }));
  if (cache_) cache_->register_metrics(p + "cache_");
  if (cold_) {
    const std::string cp = p + "cold_";
    const auto cold_counter = [&](const char* name, auto getter) {
      metric_handles_.push_back(reg.add_counter(
          cp + name, [this, getter] {
            return static_cast<double>(getter(cold_->stats()));
          }));
    };
    cold_counter("demotions",
                 [](const tier::ColdStats& s) { return s.demotions; });
    cold_counter("promotions",
                 [](const tier::ColdStats& s) { return s.promotions; });
    cold_counter("reads",
                 [](const tier::ColdStats& s) { return s.cold_reads; });
    cold_counter("read_bytes",
                 [](const tier::ColdStats& s) { return s.cold_read_bytes; });
    cold_counter("demoted_bytes",
                 [](const tier::ColdStats& s) { return s.demoted_bytes; });
    cold_counter("promoted_bytes",
                 [](const tier::ColdStats& s) { return s.promoted_bytes; });
    cold_counter("read_retries",
                 [](const tier::ColdStats& s) { return s.read_retries; });
    cold_counter("read_reuses",
                 [](const tier::ColdStats& s) { return s.read_reuses; });
    cold_counter("promote_vetoes",
                 [](const tier::ColdStats& s) { return s.promote_vetoes; });
    metric_handles_.push_back(reg.add_gauge(cp + "sections", [this] {
      return static_cast<double>(cold_->cold_sections());
    }));
    metric_handles_.push_back(reg.add_gauge(cp + "resident_bytes", [this] {
      return static_cast<double>(pool_.resident_bytes());
    }));
    metric_handles_.push_back(reg.add_histogram(cp + "demote_ns", [this] {
      return cold_->demote_hist().snapshot();
    }));
    metric_handles_.push_back(reg.add_histogram(cp + "promote_ns", [this] {
      return cold_->promote_hist().snapshot();
    }));
  }
}

// ---------------------------------------------------------------------------
// Vertex growth
// ---------------------------------------------------------------------------

void DgapStore::insert_vertex(NodeId v) { ensure_vertices(v); }

void DgapStore::ensure_vertices(NodeId max_id) {
  if (max_id < num_nodes()) return;
  std::lock_guard<SpinLock> g(vertex_mu_);
  while (num_nodes() <= max_id) {
    const NodeId v = num_nodes();
    if (static_cast<std::size_t>(v) >= entries_.size()) {
      // Chunked growth (section_table.hpp): existing entries never move, so
      // concurrent readers — including long-lived snapshots mid-PageRank —
      // are never quiesced. This is where the pre-refactor reader gate made
      // flood ingest stall behind a held snapshot.
      entries_.ensure(std::max<std::size_t>(entries_.size() * 2,
                                            static_cast<std::size_t>(v) + 1));
    }
    append_vertex_locked(v);
  }
}

void DgapStore::append_vertex_locked(NodeId v) {
  int failures = 0;
  for (;;) {
    std::uint64_t pos = 0;
    if (v == 0) {
      pos = 0;
    } else {
      const VertexEntry& prev = entries_[v - 1];
      pos = prev.start + 1 + prev.arr_count;
    }
    if (pos >= capacity_) {
      // The tail is out of room. Redistribute gaps toward the array end
      // with an escalating free-space demand: each retry doubles the slack
      // the chosen window must provide, widening it level by level until
      // the sparse bulk of the array is included. Only a genuinely full
      // array reaches the resize inside trigger_rebalance — without the
      // escalation, every appended vertex would double the array.
      const std::uint64_t demand = seg_slots_
                                   << std::min(failures, 8);
      ++failures;
      trigger_rebalance(num_segments_ - 1, /*force=*/true, demand);
      continue;
    }
    const std::uint64_t sec = sec_of(pos);
    sections_[sec].lock.lock();
    ensure_resident_locked(sec);  // cold tier: writers always write pmem
    if (cold_ != nullptr) cold_->note_write(sec);
    // Re-validate: a rebalance may have moved the tail.
    const std::uint64_t pos2 =
        v == 0 ? 0
               : entries_[v - 1].start + 1 + entries_[v - 1].arr_count;
    if (pos2 != pos || pos2 >= capacity_ || !is_gap(slots_[pos2])) {
      sections_[sec].lock.unlock();
      if (pos2 < capacity_ && !is_gap(slots_[pos2])) {
        // The tail slot is occupied (dense end of array): make room, with
        // the same escalating window demand as the out-of-room case.
        const std::uint64_t demand = seg_slots_ << std::min(failures, 8);
        ++failures;
        trigger_rebalance(sec_of(pos2), /*force=*/true, demand);
      }
      continue;
    }
    pool_.store_persist(&slots_[pos], encode_pivot(v));
    if (cache_)
      cache_->write_through(sec, pos & (seg_slots_ - 1), encode_pivot(v));
    entries_[v] = VertexEntry{pos, 0, 0, 0, 0};
    tree_->add(sec, +1);
    if (!opts_.metadata_in_dram) mirror_vertex(v);
    num_vertices_.store(static_cast<std::uint64_t>(v) + 1,
                        std::memory_order_release);
    root_->num_vertices = static_cast<std::uint64_t>(v) + 1;
    pool_.persist(&root_->num_vertices, sizeof(root_->num_vertices));
    sections_[sec].lock.unlock();
    return;
  }
}

// ---------------------------------------------------------------------------
// Edge updates (paper §3.1.2)
// ---------------------------------------------------------------------------

void DgapStore::insert_edge(NodeId src, NodeId dst) {
  insert_internal(src, dst, /*tombstone=*/false);
}

void DgapStore::delete_edge(NodeId src, NodeId dst) {
  insert_internal(src, dst, /*tombstone=*/true);
}

void DgapStore::insert_internal(NodeId src, NodeId dst, bool tombstone) {
  if (src < 0 || dst < 0) throw std::invalid_argument("negative vertex id");
  ensure_vertices(opts_.ensure_dst_vertices ? std::max(src, dst) : src);

  int shift_failures = 0;
  for (;;) {
    global_mu_.lock_shared();
    // Optimistic read; every value is re-validated under the section locks.
    // Field-wise atomic loads, not a struct copy: the copy deliberately
    // races same-vertex writers publishing under their section locks.
    VertexEntry e;
    e.start = relaxed_u64(entries_[src].start);
    e.arr_count = relaxed_u32(entries_[src].arr_count);
    e.el_count = relaxed_u32(entries_[src].el_count);
    const std::uint64_t ss = seg_slots_;
    const std::uint64_t cap = capacity_;
    if (e.start >= cap || ss == 0) {  // torn mid-resize: retry
      global_mu_.unlock_shared();
      continue;
    }

    const std::uint64_t pos = e.start + 1 + e.arr_count;
    const std::uint64_t home = e.start / ss;
    const std::uint64_t pos_sec =
        pos < cap ? pos / ss : num_segments_ - 1;
    const std::uint64_t first = std::min(home, pos_sec);
    const std::uint64_t last = std::max(home, pos_sec);
    if (last >= sections_.size()) {
      global_mu_.unlock_shared();
      continue;
    }

    for (std::uint64_t s = first; s <= last; ++s) sections_[s].lock.lock();
    if (DGAP_UNLIKELY(cold_ != nullptr)) {
      // Writers always write pmem: promote every locked section up front
      // (the elog home is in [first, last], so the log append below is
      // covered too) and feed the churn EWMA that keeps write-warm sections
      // out of the demotion victim list.
      for (std::uint64_t s = first; s <= last; ++s) {
        ensure_resident_locked(s);
        cold_->note_write(s);
      }
    }
    const VertexEntry& live = entries_[src];
    if (live.start != e.start || seg_slots_ != ss ||
        live.arr_count != e.arr_count || live.el_count != e.el_count) {
      for (std::uint64_t s = first; s <= last; ++s)
        sections_[s].lock.unlock();
      global_mu_.unlock_shared();
      continue;
    }

    bool need_rebalance = false;
    std::uint64_t rebalance_seg = 0;
    bool retry = false;

    if (live.el_count == 0 && pos < cap && is_gap(slots_[pos])) {
      // Case (a), Fig 3(a): the slot at the end of the run is free — write
      // the edge in place with a single atomic 8-byte persist, then
      // release-publish the count for the lock-free snapshot readers.
      pool_.store_persist(&slots_[pos], encode_edge(dst, tombstone));
      // Write-through BEFORE the count publish: a reader whose acquired
      // count covers this slot must find it in the DRAM frame too.
      if (cache_)
        cache_->write_through(pos / ss, pos & (ss - 1),
                              encode_edge(dst, tombstone));
      publish_u32(entries_[src].arr_count, e.arr_count + 1);
      touch_mark(src);
      if (tombstone) store_u8_relaxed(entries_[src].has_tombstone, 1);
      tree_->add(pos / ss, +1);
      if (!opts_.metadata_in_dram) {
        mirror_vertex(src);
        mirror_segment(pos / ss);
      }
      ++stats_.array_inserts;
    } else if (opts_.use_elog) {
      // Case (b), Fig 3(b): destination occupied — append to the home
      // section's edge log instead of shifting neighbors.
      SectionMeta& sm = sections_[home];
      if (sm.elog_raw >= elog_entries_) {
        retry = true;  // log full: merge first, then retry the insert
        need_rebalance = true;
        rebalance_seg = home;
      } else {
        const std::uint32_t idx = sm.elog_raw;
        ElogEntry* entry = elog(home) + idx;
        *entry = make_elog_entry(src, dst, tombstone, live.el_head_p1);
        pool_.persist(entry, sizeof(ElogEntry));
        sm.elog_raw += 1;
        sm.elog_live += 1;
        store_u32_relaxed(entries_[src].el_count, live.el_count + 1);
        publish_u32(entries_[src].el_head_p1, idx + 1);
        touch_mark(src);
        if (tombstone) store_u8_relaxed(entries_[src].has_tombstone, 1);
        tree_->add(home, +1);
        if (!opts_.metadata_in_dram) {
          mirror_vertex(src);
          mirror_segment(home);
        }
        ++stats_.elog_inserts;
        if (static_cast<double>(sm.elog_raw) >=
            opts_.elog_merge_fill * static_cast<double>(elog_entries_)) {
          need_rebalance = true;
          rebalance_seg = home;
        }
      }
    } else {
      // Ablation "No EL": perform the nearby shift the paper's motivation
      // section measures (write amplification, Fig 1a).
      bool shifted = false;
      if (live.el_count == 0 && pos < cap) {
        const std::uint64_t seg_end = (pos / ss + 1) * ss;
        std::uint64_t gap = pos;
        while (gap < seg_end && !is_gap(slots_[gap])) ++gap;
        if (gap < seg_end) {
          nearby_shift_insert(src, encode_edge(dst, tombstone), pos, gap);
          publish_u32(entries_[src].arr_count, e.arr_count + 1);
          touch_mark(src);
          if (tombstone) store_u8_relaxed(entries_[src].has_tombstone, 1);
          tree_->add(pos / ss, +1);
          if (!opts_.metadata_in_dram) {
            mirror_vertex(src);
            mirror_segment(pos / ss);
          }
          shifted = true;
        }
      }
      if (!shifted) {
        retry = true;
        need_rebalance = true;
        ++shift_failures;
        rebalance_seg = pos < cap ? pos / ss : num_segments_ - 1;
      }
    }

    for (std::uint64_t s = first; s <= last; ++s) sections_[s].lock.unlock();
    global_mu_.unlock_shared();
    if (need_rebalance) {
      if (shift_failures >= 4) {
        // No-EL ablation escape hatch: repeated shift failures mean the
        // region is packed beyond what window rebalancing redistributes —
        // grow the array.
        std::lock_guard<SpinLock> g(rebalance_mu_);
        resize_and_rebuild(0);
        shift_failures = 0;
      } else {
        trigger_rebalance(rebalance_seg, /*force=*/shift_failures >= 2);
      }
    }
    if (!retry) break;
  }
}

void DgapStore::nearby_shift_insert(NodeId src, Slot value, std::uint64_t pos,
                                    std::uint64_t gap) {
  (void)src;
  // Shift [pos, gap) one slot right, then place `value` at pos. The whole
  // overwritten range is backed up in the undo log first so a crash cannot
  // tear the shift (recovery restores the pre-shift image). Snapshot
  // readers are held off by the structural gate (RAII: the tx-ablation
  // journal allocation below can throw).
  const StructGateHold gate(*this);
  const std::uint64_t range_slots = gap - pos + 1;
  const std::uint32_t tid = writer_slot();
  UlogDescriptor* d = ulog(tid);
  const std::uint64_t ulog_slots = root_->ulog_data_bytes / sizeof(Slot);
  const bool via_ulog = opts_.protect_structural_ops && opts_.use_ulog &&
                        range_slots <= ulog_slots;
  const bool via_tx = opts_.protect_structural_ops && !via_ulog &&
                      tx_journal_ != nullptr;
  if (via_ulog) {
    std::memcpy(ulog_data(tid), slots_ + pos, range_slots * sizeof(Slot));
    pool_.persist(ulog_data(tid), range_slots * sizeof(Slot));
    d->undo_slot = pos;
    d->undo_slots = range_slots;
    d->undo_valid = 1;
    d->state = UlogDescriptor::kShift;
    pool_.persist(d, sizeof(UlogDescriptor));
  }
  if (via_tx) {
    // "No EL&UL" ablation: the shift is protected by a PMDK-style
    // transaction instead of the per-thread undo log.
    pmem::PmemTx tx(pool_, *tx_journal_,
                    range_slots * sizeof(Slot) + 4096);
    tx.add_range(slots_ + pos, range_slots * sizeof(Slot));
    std::memmove(slots_ + pos + 1, slots_ + pos,
                 (gap - pos) * sizeof(Slot));
    slots_[pos] = value;
    pool_.persist(slots_ + pos, range_slots * sizeof(Slot));
    tx.commit();
  } else {
    std::memmove(slots_ + pos + 1, slots_ + pos,
                 (gap - pos) * sizeof(Slot));
    slots_[pos] = value;
    pool_.persist(slots_ + pos, range_slots * sizeof(Slot));
  }
  if (via_ulog) {
    d->state = UlogDescriptor::kIdle;
    d->undo_valid = 0;
    pool_.persist(d, sizeof(UlogDescriptor));
  }
  // Pivots that moved right belong to later vertices: fix their starts.
  for (std::uint64_t p = pos + 1; p <= gap; ++p) {
    if (is_pivot(slots_[p]))
      entries_[pivot_vertex(slots_[p])].start = p;
  }
  // The shift rewrote [pos, gap] in place: drop the stale frame(s) while
  // the gate still excludes readers.
  if (cache_)
    for (std::uint64_t s = sec_of(pos); s <= sec_of(gap); ++s)
      cache_->invalidate(s);
  ++stats_.shift_inserts;
  stats_.shift_slots_moved += gap - pos;
}

// ---------------------------------------------------------------------------
// Snapshots (paper §3.1.3; snapshot.hpp)
// ---------------------------------------------------------------------------

void DgapStore::freeze_begin() const {
  // rebalance_mu_ first (same order as resize_and_rebuild's caller), so a
  // freeze excludes window rebalances too: the degree column below is a
  // true instant, not racing a concurrent splice's arr/el handoff.
  rebalance_mu_.lock();
  global_mu_.lock();
}

void DgapStore::freeze_end() const {
  global_mu_.unlock();
  rebalance_mu_.unlock();
}

Snapshot DgapStore::capture_frozen() const {
  Snapshot snap;
  snap.store_ = this;
  snap.ctl_ = ctl_;
  const LayoutGen* g = cur_gen_.load(std::memory_order_acquire);
  g->pins.fetch_add(1, std::memory_order_acq_rel);
  snap.gen_ = g;
  snap.epoch_ = g->epoch;
  // capture_seq_ is the class-static counter the touch map stamps against
  // (touch_mark in dgap_store.hpp): the freeze holds global_mu_ exclusive,
  // so every writer ordered after this capture reads a counter value >=
  // this snapshot's seq and its marks survive a `mark >= seq` diff test.
  snap.seq_ = capture_seq_.fetch_add(1, std::memory_order_relaxed) + 1;

  const NodeId n = num_nodes();
  snap.degree_.resize(static_cast<std::size_t>(n));
  snap.tomb_.resize(static_cast<std::size_t>(n));
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    const VertexEntry& e = entries_[v];
    snap.degree_[v] = e.arr_count + e.el_count;
    snap.tomb_[v] = e.has_tombstone;
    total += snap.degree_[v];
  }
  snap.total_ = total;
  ++stats_.snapshot_captures;
  return snap;
}

Snapshot DgapStore::consistent_view() const {
  // Briefly exclude writers and structural ops while copying the degree
  // column — the paper's "temporarily holds the graph updates" (§3.1.3).
  // Nothing is held afterwards: the snapshot's lifetime blocks no store
  // operation, including vertex-table growth and resizes.
  // One freeze-duration sample per view: lock wait + degree-column copy.
  const obs::ScopedLatency lat(&freeze_hist_);
  freeze_begin();
  Snapshot snap = capture_frozen();
  freeze_end();
  return snap;
}

std::size_t DgapStore::reader_lane_enter(NodeId v) const {
  // Stripe in-flight reader counts by thread so concurrent kernels don't
  // serialize on one cache line.
  static std::atomic<std::size_t> next_lane{0};
  thread_local const std::size_t lane =
      next_lane.fetch_add(1, std::memory_order_relaxed) % kReadLanes;
  auto& banks = read_lanes_[lane].n;
  int spins = 0;
  for (;;) {
    // seq_cst throughout the handshake (here, struct_mutation_begin and
    // struct_window_begin): the C++ model allows the store-buffering
    // outcome under acq_rel — reader and structural op each missing the
    // other's increment — and seq_cst is free on x86 (LOCK RMW).
    const std::uint64_t era = lane_era_.load(std::memory_order_seq_cst);
    const std::size_t bank = static_cast<std::size_t>(era & 1);
    banks[bank].fetch_add(1, std::memory_order_seq_cst);
    // Era re-validation closes an ABA: a reader stalled between the era
    // load and the increment may land in a bank that a windowed op has
    // since flipped AND drained. The monotone era makes the staleness
    // detectable — if the counter moved, every conclusion below about who
    // will drain this increment is void, so back out and retry. With the
    // era confirmed, any later windowed op either flips era -> era+1 after
    // this increment is visible (its old-bank drain covers us), or was
    // already announced (struct_writers_ check below turns us away or
    // window-admits us).
    if (DGAP_UNLIKELY(lane_era_.load(std::memory_order_seq_cst) != era)) {
      banks[bank].fetch_sub(1, std::memory_order_release);
      continue;
    }
    if (DGAP_LIKELY(struct_writers_.load(std::memory_order_seq_cst) == 0))
      return lane * 2 + bank;
    // A structural op is announced. A WINDOWED op (rebalance) publishes
    // its slot range and drains only the pre-flip bank: if this read's run
    // starts outside the window it cannot touch moving slots (windows are
    // expanded to whole-run boundaries and section locks pin the runs), so
    // it proceeds, parked in the bank it incremented. Full-exclusion ops
    // (resize flip, ablation nearby-shift) raise struct_full_ FIRST, so a
    // reader that owes its writers!=0 to a full op cannot miss it here.
    if (struct_full_.load(std::memory_order_seq_cst) == 0) {
      const std::uint64_t wb =
          struct_win_begin_.load(std::memory_order_acquire);
      const std::uint64_t we =
          struct_win_end_.load(std::memory_order_acquire);
      // The probe must be atomic: v may be IN the window, whose entries the
      // rebalance is rewriting right now (atomic_ref stores on its side).
      const std::uint64_t start =
          std::atomic_ref<std::uint64_t>(
              const_cast<std::uint64_t&>(entries_[v].start))
              .load(std::memory_order_relaxed);
      if (start < wb || start >= we) return lane * 2 + bank;
    }
    // In the window (or a full op): back out so the drain can complete,
    // then wait — this is the writer preference that keeps a PageRank
    // storm from starving rebalances.
    banks[bank].fetch_sub(1, std::memory_order_release);
    ++stats_.snapshot_read_retries;
    while (struct_writers_.load(std::memory_order_acquire) != 0) {
      if (++spins > 256) {
        std::this_thread::yield();
        spins = 0;
      }
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }
}

void DgapStore::reader_lane_exit(std::size_t packed) const {
  read_lanes_[packed / 2].n[packed & 1].fetch_sub(1,
                                                  std::memory_order_release);
}

void DgapStore::struct_mutation_begin() const {
  // Full exclusion: announce, then wait for every in-flight per-vertex
  // read — both banks, including readers a concurrent windowed rebalance
  // admitted past its window check. struct_full_ is raised BEFORE
  // struct_writers_ (both seq_cst): a reader that sees writers != 0 from
  // this op is therefore guaranteed to also see full != 0 and stay out,
  // rather than misclassify the resize as a windowed op and self-admit.
  // Reads are microseconds (one vertex's frozen prefix), so the drain is
  // bounded — unlike the pre-refactor design, where the gate was held for
  // a snapshot's LIFETIME and one long analysis wedged every resize.
  struct_full_.fetch_add(1, std::memory_order_seq_cst);
  struct_writers_.fetch_add(1, std::memory_order_seq_cst);
  for (const ReadLane& l : read_lanes_) {
    for (const auto& bank : l.n) {
      while (bank.load(std::memory_order_seq_cst) != 0) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      }
    }
  }
}

void DgapStore::struct_mutation_end() const {
  struct_writers_.fetch_sub(1, std::memory_order_acq_rel);
  struct_full_.fetch_sub(1, std::memory_order_acq_rel);
}

void DgapStore::struct_window_begin(std::uint64_t begin_slot,
                                    std::uint64_t end_slot) const {
  // Windowed admission (callers hold rebalance_mu_, so at most one window
  // is announced at a time): publish the window, announce, flip the era,
  // then drain ONLY the old bank — the readers that entered before the
  // announcement and therefore never saw the window. Readers arriving
  // after the flip park in the new bank: they either back out (in-window)
  // or proceed concurrently with the data movement (out-of-window), which
  // is the whole point — an unrelated section stays readable mid-rebalance.
  struct_win_begin_.store(begin_slot, std::memory_order_release);
  struct_win_end_.store(end_slot, std::memory_order_release);
  struct_writers_.fetch_add(1, std::memory_order_seq_cst);
  const std::uint64_t old_era =
      lane_era_.fetch_add(1, std::memory_order_seq_cst);
  const std::size_t old_bank = static_cast<std::size_t>(old_era & 1);
  for (const ReadLane& l : read_lanes_) {
    while (l.n[old_bank].load(std::memory_order_seq_cst) != 0) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }
}

void DgapStore::struct_window_end() const {
  // The window values stay behind (stale): readers consult them only while
  // struct_writers_ is raised by a windowed op, and the next windowed op
  // overwrites them before raising it.
  struct_writers_.fetch_sub(1, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// Layout generations (snapshot.hpp): retire + reclaim
// ---------------------------------------------------------------------------

void DgapStore::retire_layout(const LayoutGen* gen) {
  obs::trace_instant(obs::TraceKind::layout_retire, gen->epoch);
  {
    std::lock_guard<SpinLock> g(retired_mu_);
    retired_.push_back(gen);
  }
  reclaim_retired();
}

void DgapStore::reclaim_retired() {
  std::lock_guard<SpinLock> g(retired_mu_);
  // In-flight reads never reference a retired generation (the structural
  // gate drained them before the layout flip), so snapshot pins alone
  // decide: a retired layout with no live snapshot is free to go.
  auto it = retired_.begin();
  while (it != retired_.end()) {
    const LayoutGen* gen = *it;
    if (gen->quiescent()) {
      pool_.allocator().free(gen->edge_array_off, gen->edge_array_bytes);
      pool_.allocator().free(gen->elog_region_off, gen->elog_region_bytes);
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t DgapStore::layout_epoch() const {
  const LayoutGen* g = cur_gen_.load(std::memory_order_acquire);
  return g == nullptr ? 0 : g->epoch;
}

std::size_t DgapStore::retired_layouts() const {
  std::lock_guard<SpinLock> g(retired_mu_);
  return retired_.size();
}

// ---------------------------------------------------------------------------
// Ablation: metadata-on-PM cost emulation
// ---------------------------------------------------------------------------

void DgapStore::mirror_vertex(NodeId v) {
  constexpr std::uint64_t kEntryBytes = 24;
  const std::uint64_t needed =
      (static_cast<std::uint64_t>(v) + 1) * kEntryBytes;
  if (mirror_off_ == 0 || needed > mirror_capacity_) {
    const std::uint64_t cap = std::max<std::uint64_t>(
        ceil_pow2(needed), entries_.size() * kEntryBytes);
    mirror_off_ = pool_.allocator().alloc(cap);
    mirror_capacity_ = cap;
  }
  char* p = pool_.at<char>(mirror_off_ + v * kEntryBytes);
  const VertexEntry& e = entries_[v];
  std::memcpy(p, &e.start, 8);
  std::memcpy(p + 8, &e.arr_count, 4);
  std::memcpy(p + 12, &e.el_count, 4);
  std::memcpy(p + 16, &e.el_head_p1, 4);
  pool_.persist(p, kEntryBytes);  // repeated in-place persist: the slow path
}

void DgapStore::mirror_segment(std::uint64_t seg) {
  if (mirror_off_ == 0) return;
  // Re-persist the first line of the mirror as the PMA-tree count update;
  // the cost (an in-place flush) is what matters for the ablation.
  char* p = pool_.at<char>(mirror_off_ + (seg % 8) * 64);
  pool_.persist(p, 8);
}

// ---------------------------------------------------------------------------
// Shutdown (paper §3.1.5)
// ---------------------------------------------------------------------------

void DgapStore::set_shard_identity(const ShardIdentity& id) {
  root_->shard_index = id.index;
  root_->shard_count = id.count;
  root_->shard_shift = id.shift;
  pool_.persist(&root_->shard_index, 3 * sizeof(std::uint32_t));
}

DgapStore::ShardIdentity DgapStore::shard_identity() const {
  return {root_->shard_index, root_->shard_count, root_->shard_shift};
}

void DgapStore::shutdown() {
  // Quiesce offloaded rebalances BEFORE taking the store locks: a task
  // blocked on global_mu_ while we hold it could never retire.
  rebalance_wg_.wait();
  global_mu_.lock();
  const std::uint64_t n = num_segments_;
  lock_sections_upto(n);
  persist_shutdown_image();
  pool_.mark_clean_shutdown();
  unlock_sections_upto(n);
  global_mu_.unlock();
}

void DgapStore::lock_sections_upto(std::uint64_t count) const {
  for (std::uint64_t s = 0; s < count; ++s) sections_[s].lock.lock();
}

void DgapStore::unlock_sections_upto(std::uint64_t count) const {
  for (std::uint64_t s = 0; s < count; ++s) sections_[s].lock.unlock();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::uint64_t DgapStore::num_edge_slots() const {
  std::uint64_t total = 0;
  const NodeId n = num_nodes();
  for (NodeId v = 0; v < n; ++v)
    total += entries_[v].arr_count + entries_[v].el_count;
  return total;
}

std::uint64_t DgapStore::elog_capacity_bytes() const {
  return num_segments_ * elog_entries_ * sizeof(ElogEntry);
}

double DgapStore::elog_fill_at_merge() const {
  return stats_.merges == 0 ? 0.0
                            : stats_.merge_fill_sum /
                                  static_cast<double>(stats_.merges);
}

bool DgapStore::check_invariants(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  const NodeId n = num_nodes();

  // Pass 1: scan the edge array; verify run shape and entry agreement.
  std::vector<std::uint64_t> seg_used(num_segments_, 0);
  NodeId cur = kInvalidNode;
  std::uint64_t cur_edges = 0;
  bool in_gap_tail = false;
  std::uint64_t runs_seen = 0;
  auto close_run = [&]() -> bool {
    if (cur == kInvalidNode) return true;
    const VertexEntry& e = entries_[cur];
    if (e.arr_count != cur_edges) {
      std::ostringstream os;
      os << "vertex " << cur << " arr_count " << e.arr_count
         << " != scanned " << cur_edges;
      if (why != nullptr) *why = os.str();
      return false;
    }
    ++runs_seen;
    return true;
  };
  std::vector<Slot> scan_buf;  // cold-section staging (section_for_scan)
  for (std::uint64_t seg = 0; seg < num_segments_; ++seg) {
    const Slot* sec_slots = section_for_scan(seg, scan_buf);
    for (std::uint64_t i = 0; i < seg_slots_; ++i) {
      const std::uint64_t pos = (seg << seg_shift_) + i;
      const Slot s = sec_slots[i];
      if (is_gap(s)) {
        if (cur != kInvalidNode) in_gap_tail = true;
        continue;
      }
      seg_used[seg] += 1;
      if (is_pivot(s)) {
        if (!close_run()) return false;
        cur = pivot_vertex(s);
        if (cur < 0 || cur >= n) return fail("pivot for unknown vertex");
        if (entries_[cur].start != pos)
          return fail("entry start does not match pivot position");
        cur_edges = 0;
        in_gap_tail = false;
      } else {
        if (cur == kInvalidNode) return fail("edge before any pivot");
        if (in_gap_tail) return fail("edge after gap inside a run");
        ++cur_edges;
      }
    }
  }
  if (!close_run()) return false;
  if (runs_seen != static_cast<std::uint64_t>(n))
    return fail("pivot count != num_vertices");

  // Pass 2: per-section accounting (array slots + live elog entries).
  for (std::uint64_t seg = 0; seg < num_segments_; ++seg) {
    const std::uint64_t expect = seg_used[seg] + sections_[seg].elog_live;
    if (tree_->count(seg) != expect) {
      std::ostringstream os;
      os << "segment " << seg << " tree count " << tree_->count(seg)
         << " != " << expect;
      if (why != nullptr) *why = os.str();
      return false;
    }
  }

  // Pass 3: edge-log chains.
  for (NodeId v = 0; v < n; ++v) {
    const VertexEntry& e = entries_[v];
    if (e.el_count == 0) {
      if (e.el_head_p1 != 0) return fail("head pointer without entries");
      continue;
    }
    const std::uint64_t home = sec_of(e.start);
    const ElogEntry* log = elog(home);
    std::uint32_t idx_p1 = e.el_head_p1;
    std::uint32_t hops = 0;
    while (idx_p1 != 0) {
      if (idx_p1 > elog_entries_) return fail("chain index out of range");
      const ElogEntry& entry = log[idx_p1 - 1];
      if (!elog_used(entry) || elog_consumed(entry))
        return fail("chain references unused/consumed entry");
      if (elog_src(entry) != v) return fail("chain crosses vertices");
      ++hops;
      if (hops > e.el_count) return fail("chain longer than el_count");
      idx_p1 = entry.prev_p1;
    }
    if (hops != e.el_count) return fail("chain shorter than el_count");
  }
  return true;
}

}  // namespace dgap::core
