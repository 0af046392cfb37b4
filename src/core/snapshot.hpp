// Epoch-versioned snapshot subsystem (split out of dgap_store.hpp).
//
// A Snapshot is the paper's degree-cache consistent view (§3.1.3): the
// degree column is captured once under a brief writer freeze, and reads
// then return exactly the first degree_t(v) chronological edges of v.
// This file adds the machinery that lets a snapshot live for minutes while
// the store keeps mutating underneath it:
//
//   * LayoutGen — one immutable descriptor per published edge-array layout
//     (a new generation per resize). Readers pin the generation they read
//     (striped in-flight counters + per-snapshot pin counts), so
//     `resize_and_rebuild` never waits for analysis: it RETIRES the old
//     generation onto a reclamation list and the old arrays' persistent
//     ranges are freed when the last snapshot / in-flight read referencing
//     them is gone (epoch reclamation). Analysis no longer blocks resizes,
//     and flood ingest never stalls behind a long PageRank.
//   * StoreCtl — a shared control block stamping every snapshot with its
//     store's lifetime: using a snapshot after its store was destroyed
//     throws std::logic_error instead of dereferencing freed memory.
//   * SnapshotCsr / SnapshotCsrCache — an opt-in compact CSR
//     materialization of one snapshot: built once, then PR+CC+BFS+BC over
//     the same cut stream sequential DRAM instead of re-walking the PM
//     edge array per kernel. Cache entries are keyed by (snapshot sequence,
//     layout epoch), so a new cut or a new layout generation invalidates.
//
// Snapshot reads never contend with WRITERS: plain inserts only append
// past the frozen prefix (a vertex's first k edges never change outside
// structural ops), so per-vertex reads emit directly from the arrays with
// no section locks. Readers synchronize only with STRUCTURAL ops
// (rebalance / resize / ablation shift) through a striped reader gate held
// per read — microseconds, never for a snapshot's lifetime — so a held
// snapshot blocks nothing, and a structural op waits at most one in-flight
// vertex read.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/platform.hpp"
#include "src/common/spinlock.hpp"
#include "src/core/encoding.hpp"
#include "src/graph/types.hpp"
#include "src/sched/parallel.hpp"
#include "src/sched/parallel_sort.hpp"

namespace dgap::core {

class DgapStore;
class Snapshot;
class SnapshotCsrCache;
struct SnapshotDelta;

// Diff between two snapshots of the same store (snapshot_delta.hpp).
// Declared here so Snapshot can befriend it: the diff walks the private
// frozen degree columns of both cuts.
SnapshotDelta snapshot_delta(const Snapshot& older, const Snapshot& newer);

// One published edge-array layout generation: the epoch identity snapshots
// and the CSR cache key on, plus the persistent ranges to free when the
// generation is retired (superseded by a resize) AND unpinned. Reads do
// NOT go through this struct — after the structural gate drains them
// across a layout flip, every read uses the store's current arrays, whose
// values for any frozen prefix are identical (rebalance/resize preserve
// per-vertex chronological order). The pin therefore only defers the
// persistent free, honoring "a retired layout is reclaimed when the last
// snapshot captured against it is destroyed"; each snapshot pins exactly
// ONE generation, so retention is bounded by the number of live snapshots.
struct LayoutGen {
  std::uint64_t epoch = 0;  // 0,1,2,... one per adopted layout

  // Persistent identity, for the deferred free at reclamation time.
  std::uint64_t edge_array_off = 0;
  std::uint64_t edge_array_bytes = 0;
  std::uint64_t elog_region_off = 0;
  std::uint64_t elog_region_bytes = 0;

  // One pin per live Snapshot captured against this generation.
  mutable std::atomic<std::int64_t> pins{0};

  [[nodiscard]] bool quiescent() const {
    return pins.load(std::memory_order_acquire) == 0;
  }
};

// Store-lifetime control block shared by a store and every snapshot it
// hands out. `store` is guarded by `mu` (cleared in the store destructor);
// `closed` is the cheap fail-fast flag snapshot reads check before
// touching store memory.
struct StoreCtl {
  SpinLock mu;
  DgapStore* store = nullptr;
  std::atomic<bool> closed{false};
};

// Degree-cache snapshot (paper §3.1.3). Unlike the pre-refactor design, a
// live Snapshot pins NOTHING the store ever waits for: vertex-table growth,
// window rebalances and whole-array resizes all proceed under a held
// snapshot. The snapshot pins its creation-time layout generation (so the
// retired arrays it may still be reading stay mapped) and drops the pin on
// destruction, triggering reclamation of any quiescent retired layouts.
// Move-only. Using a snapshot after its store was destroyed throws.
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(Snapshot&& other) noexcept { move_from(other); }
  Snapshot& operator=(Snapshot&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot() { release(); }

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(degree_.size());
  }
  // Degree as slot count (includes tombstoned edges; exact when the
  // workload is insert-only, like the paper's evaluation).
  [[nodiscard]] std::int64_t out_degree(NodeId v) const { return degree_[v]; }
  [[nodiscard]] std::uint64_t num_edges_directed() const { return total_; }

  // Stream v's neighbors (tombstones skipped; with deletions present the
  // snapshot transparently falls back to the exact cancelling path).
  // Thread-safe: analysis kernels fan one snapshot out across OMP threads.
  template <typename F>
  void for_each_out(NodeId v, F&& fn) const;

  // Exact neighbor list with tombstone cancellation.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId v) const;

  // Stream v's RAW frozen slots [from, out_degree(v)) in chronological
  // order as fn(dst, tombstone) — no tombstone cancellation. The suffix
  // form is what the snapshot diff consumes: per-vertex slot sequences are
  // append-only across structural ops, so the slots past an older cut's
  // degree are exactly the events between the cuts.
  template <typename F>
  void for_each_slot_from(NodeId v, std::uint32_t from, F&& fn) const;

  // True when both snapshots were captured from the same (still-open)
  // store — the precondition snapshot_delta validates.
  [[nodiscard]] bool same_store_as(const Snapshot& other) const {
    return store_ != nullptr && store_ == other.store_;
  }

  // --- versioning ----------------------------------------------------------
  // Layout generation this snapshot was captured against (advances once per
  // resize) and a process-unique capture sequence number. Together they key
  // SnapshotCsrCache entries.
  [[nodiscard]] std::uint64_t layout_epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t capture_seq() const { return seq_; }
  [[nodiscard]] bool valid() const { return ctl_ != nullptr; }

 private:
  friend class DgapStore;
  friend SnapshotDelta snapshot_delta(const Snapshot& older,
                                      const Snapshot& newer);

  void release();
  void move_from(Snapshot& other) {
    store_ = other.store_;
    ctl_ = std::move(other.ctl_);
    gen_ = other.gen_;
    epoch_ = other.epoch_;
    seq_ = other.seq_;
    degree_ = std::move(other.degree_);
    tomb_ = std::move(other.tomb_);
    total_ = other.total_;
    other.store_ = nullptr;
    other.gen_ = nullptr;
    other.ctl_.reset();
  }
  // Throws std::logic_error when the backing store is gone (or this is a
  // default-constructed snapshot with no store at all).
  void check_open() const;

  const DgapStore* store_ = nullptr;
  std::shared_ptr<StoreCtl> ctl_;
  const LayoutGen* gen_ = nullptr;  // creation-time pin (see release())
  std::uint64_t epoch_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint8_t> tomb_;  // per-vertex "has tombstones" cache
  std::uint64_t total_ = 0;
};

// Compact immutable CSR materialization of one Snapshot. Models GraphView
// with the SAME observable semantics as the snapshot it was built from:
// out_degree returns the frozen slot count (tombstones included) and
// for_each_out emits the exact surviving neighbors in chronological order,
// so any kernel produces bit-identical results on either view — the CSR is
// purely a speed layer for running several kernels over one cut.
class SnapshotCsr {
 public:
  [[nodiscard]] NodeId num_nodes() const { return n_; }
  [[nodiscard]] std::int64_t out_degree(NodeId v) const {
    return slot_degree_[v];
  }
  [[nodiscard]] std::uint64_t num_edges_directed() const {
    return total_slots_;
  }
  template <typename F>
  void for_each_out(NodeId v, F&& fn) const {
    const std::uint64_t end = offsets_[static_cast<std::size_t>(v) + 1];
    for (std::uint64_t i = offsets_[v]; i < end; ++i)
      if (emit_stop(fn, nbrs_[i])) return;
  }

  // Materialize any GraphView-shaped source (normally a Snapshot) into a
  // compact CSR. Two strategies, identical output (asserted in
  // snapshot_csr tests):
  //
  //  * Two-sweep (small cuts / single thread): count emitted neighbors,
  //    prefix-sum, fill — walks for_each_out(v) TWICE per vertex.
  //  * Single-pass gather (large cuts): each participant drains vertex
  //    blocks once, appending (v, seq, dst) records to a thread-local
  //    buffer; the concatenated records are sched::parallel_sort-ed by
  //    (v, seq) — the CSR's exact layout order — and the dst column is the
  //    neighbor array. One for_each_out walk per vertex instead of two,
  //    which matters once the walk misses DRAM: with the SSD cold tier on,
  //    each walk of a cold section is a file read, and the two-sweep
  //    build paid it twice.
  template <typename View>
  static SnapshotCsr build(const View& view) {
    const NodeId n = view.num_nodes();
    if (n < kGatherBuildMinVertices || par::max_threads() == 1)
      return build_two_sweep(view);
    return build_gather(view);
  }

  // Below this vertex count the record buffers + sort cost more than the
  // second for_each_out sweep.
  static constexpr NodeId kGatherBuildMinVertices = 1 << 14;

  template <typename View>
  static SnapshotCsr build_two_sweep(const View& view) {
    SnapshotCsr csr;
    const NodeId n = view.num_nodes();
    csr.n_ = n;
    csr.slot_degree_.resize(static_cast<std::size_t>(n));
    csr.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    csr.total_slots_ = par::reduce_blocks(
        n, 1024, std::uint64_t{0},
        [&](std::int64_t b, std::int64_t e) {
          std::uint64_t part = 0;
          for (NodeId v = b; v < e; ++v) {
            const std::int64_t d = view.out_degree(v);
            csr.slot_degree_[v] = static_cast<std::uint32_t>(d);
            part += static_cast<std::uint64_t>(d);
            std::uint64_t emitted = 0;
            view.for_each_out(v, [&](NodeId) { ++emitted; });
            csr.offsets_[static_cast<std::size_t>(v) + 1] = emitted;
          }
          return part;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    for (NodeId v = 0; v < n; ++v)
      csr.offsets_[static_cast<std::size_t>(v) + 1] +=
          csr.offsets_[static_cast<std::size_t>(v)];
    csr.nbrs_.resize(csr.offsets_[static_cast<std::size_t>(n)]);
    par::for_blocks(n, 1024, [&](std::int64_t b, std::int64_t e) {
      for (NodeId v = b; v < e; ++v) {
        std::uint64_t at = csr.offsets_[v];
        view.for_each_out(v, [&](NodeId d) { csr.nbrs_[at++] = d; });
      }
    });
    return csr;
  }

  template <typename View>
  static SnapshotCsr build_gather(const View& view) {
    // (v, seq) is the CSR layout order; seq fits u32 because per-vertex
    // degrees are u32 in the vertex table.
    struct Rec {
      NodeId v;
      std::uint32_t seq;
      NodeId dst;
    };
    SnapshotCsr csr;
    const NodeId n = view.num_nodes();
    csr.n_ = n;
    csr.slot_degree_.resize(static_cast<std::size_t>(n));
    csr.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    const int k =
        std::max(1, std::min<int>(par::max_threads(),
                                  static_cast<int>((n + 1023) / 1024)));
    std::vector<std::vector<Rec>> bufs(static_cast<std::size_t>(k));
    std::vector<std::uint64_t> slot_parts(static_cast<std::size_t>(k), 0);
    par::BlockSource src(n, 1024);
    par::team(k, [&](int tid, int) {
      auto& buf = bufs[static_cast<std::size_t>(tid)];
      std::uint64_t slots = 0;
      std::int64_t b = 0;
      std::int64_t e = 0;
      while (src.next(b, e)) {
        for (NodeId v = b; v < e; ++v) {
          const std::int64_t d = view.out_degree(v);
          csr.slot_degree_[v] = static_cast<std::uint32_t>(d);
          slots += static_cast<std::uint64_t>(d);
          std::uint32_t seq = 0;
          view.for_each_out(v, [&](NodeId dst) {
            buf.push_back(Rec{v, seq++, dst});
          });
          csr.offsets_[static_cast<std::size_t>(v) + 1] = seq;
        }
        par::assist_point();
      }
      slot_parts[static_cast<std::size_t>(tid)] = slots;
    });
    for (std::uint64_t p : slot_parts) csr.total_slots_ += p;
    for (NodeId v = 0; v < n; ++v)
      csr.offsets_[static_cast<std::size_t>(v) + 1] +=
          csr.offsets_[static_cast<std::size_t>(v)];
    const std::uint64_t emitted = csr.offsets_[static_cast<std::size_t>(n)];
    std::vector<Rec> recs;
    recs.reserve(emitted);
    for (auto& buf : bufs) {
      recs.insert(recs.end(), buf.begin(), buf.end());
      buf.clear();
      buf.shrink_to_fit();
    }
    sched::parallel_sort(recs.begin(), recs.end(),
                         [](const Rec& a, const Rec& b) {
                           return a.v != b.v ? a.v < b.v : a.seq < b.seq;
                         });
    // Sorted record i IS global position i: the sort key is the layout
    // order and every (v, seq) is unique.
    csr.nbrs_.resize(emitted);
    par::for_blocks(static_cast<std::int64_t>(emitted), 1 << 16,
                    [&](std::int64_t b, std::int64_t e) {
                      for (std::int64_t i = b; i < e; ++i)
                        csr.nbrs_[static_cast<std::size_t>(i)] =
                            recs[static_cast<std::size_t>(i)].dst;
                    });
    return csr;
  }

 private:
  friend class SnapshotCsrCache;
  NodeId n_ = 0;
  std::uint64_t total_slots_ = 0;
  std::vector<std::uint32_t> slot_degree_;  // frozen degree column
  std::vector<std::uint64_t> offsets_;      // n_ + 1, exact-neighbor offsets
  std::vector<NodeId> nbrs_;
};

// K-deep CSR cache keyed by (capture sequence, layout epoch): repeated
// kernels over the SAME snapshot hit; a new cut (or a snapshot from another
// layout generation) rebuilds into a free slot, evicting the
// least-recently-used entry once K cuts are resident. K defaults to 2 — the
// incremental-analytics loop holds the previous cut's CSR for diff-seeded
// kernels while the current cut's CSR is live, and a one-deep cache would
// thrash between them every round. get() itself is not thread-safe — build
// once, then hand the returned view to parallel kernels. Works for any
// snapshot-shaped view that exposes capture_seq()/layout_epoch(), such as a
// Snapshot.
class SnapshotCsrCache {
 public:
  explicit SnapshotCsrCache(std::size_t capacity = 2)
      : capacity_(capacity == 0 ? 1 : capacity) {
    // Reserve up front: get() hands out references into entries_, so the
    // append on a cold miss must never reallocate the vector.
    entries_.reserve(capacity_);
  }

  // Returns the materialized view for `snap`, building it on a key miss.
  // The reference stays valid until `snap`'s entry is evicted — i.e. for at
  // least the next capacity()-1 distinct-cut get() calls.
  template <typename View>
  const SnapshotCsr& get(const View& snap) {
    const std::uint64_t seq = snap.capture_seq();
    const std::uint64_t epoch = snap.layout_epoch();
    for (Entry& e : entries_) {
      if (e.seq == seq && e.epoch == epoch) {
        ++hits_;
        e.tick = ++tick_;
        return e.csr;
      }
    }
    ++misses_;
    Entry* slot;
    if (entries_.size() < capacity_) {
      slot = &entries_.emplace_back();
    } else {
      slot = &*std::min_element(
          entries_.begin(), entries_.end(),
          [](const Entry& a, const Entry& b) { return a.tick < b.tick; });
    }
    slot->seq = seq;
    slot->epoch = epoch;
    slot->tick = ++tick_;
    slot->csr = SnapshotCsr::build(snap);
    return slot->csr;
  }

  void invalidate() { entries_.clear(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t resident() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t seq = 0;
    std::uint64_t epoch = 0;
    std::uint64_t tick = 0;  // LRU stamp (bumped on hit and fill)
    SnapshotCsr csr;
  };
  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dgap::core
