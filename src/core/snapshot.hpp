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

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/platform.hpp"
#include "src/common/spinlock.hpp"
#include "src/core/encoding.hpp"
#include "src/graph/types.hpp"

namespace dgap::core {

class DgapStore;
class Snapshot;
struct SnapshotDelta;

// Diff between two snapshots of the same store (snapshot_delta.hpp).
// Declared here so Snapshot can befriend it: the diff walks the private
// frozen degree columns of both cuts.
SnapshotDelta snapshot_delta(const Snapshot& older, const Snapshot& newer);

// One published edge-array layout generation: the epoch identity snapshots
// are stamped with, plus the persistent ranges to free when the
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
  // degree are exactly the events between the cuts. Returns the edge-log
  // chain entries read (DgapStore::read_frozen_range).
  template <typename F>
  std::uint32_t for_each_slot_from(NodeId v, std::uint32_t from,
                                   F&& fn) const;

  // True when both snapshots were captured from the same (still-open)
  // store — the precondition snapshot_delta validates.
  [[nodiscard]] bool same_store_as(const Snapshot& other) const {
    return store_ != nullptr && store_ == other.store_;
  }

  // --- versioning ----------------------------------------------------------
  // Layout generation this snapshot was captured against (advances once per
  // resize) and a process-unique capture sequence number. snapshot_delta
  // orders two cuts by capture_seq and falls back to a full walk when their
  // layout epochs differ.
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

}  // namespace dgap::core
