// Asynchronous ingestion subsystem: decouples edge producers from section
// absorption (the ROADMAP's "async writer threads" follow-up to the batched
// ingestion API, modeled after XPGraph-style buffered per-socket PM logs).
//
//   producers ──submit()──▶ per-section-group staging queues ──▶ absorbers
//                                 (bounded, backpressure)   (M slots, each a
//                                                     resubmitting scheduler
//                                                                      task)
//                                            insert_batch/delete_batch fast
//                                            path, one lock + one fence per
//                                            section group (batch_insert.cpp)
//
// Absorbers are not dedicated threads: each absorber slot is a
// high-priority task on the process TaskScheduler (src/sched) that drains
// its queues until empty and exits; a push into an idle slot's queue
// resubmits it (at-most-one task in flight per slot, so `absorbers` is a
// concurrency CAP, not a thread count). A queue left sub-threshold by the
// gather heuristic arms a cancellable scheduler timer for its flush
// deadline instead of parking a thread on a condition variable.
//
// Routing: consecutive blocks of source ids share a queue, so the edges an
// absorber drains in one pass cluster by home section — preserving the batch
// path's one-lock/one-fence-per-group savings instead of re-shuffling every
// edge through a single global queue.
//
// Durability contract (epoch-based):
//   * submit()/submit_deletes() copies the span into staging and returns an
//     epoch ticket. Returning does NOT mean durable.
//   * wait_durable(e) blocks until every edge of every submit with ticket
//     <= e has been absorbed through the sink — which flushes and fences
//     before returning (DgapStore::insert_batch semantics) — so the data is
//     on the durable media.
//   * drain() == wait_durable(last_submitted()).
//   * The destructor drains: everything submitted before destruction begins
//     is absorbed and durable before the absorber threads exit — unless a
//     sink call failed, in which case the drain is best-effort (destructors
//     cannot throw); call drain() or check stats().failed before
//     destruction to observe sink failures.
//
// Backpressure: each queue is bounded (queue_capacity_edges); submitters
// block on a full queue (counted in IngestStats::stalls) until an absorber
// makes room, so an unbounded producer cannot outrun absorption memory.
//
// Thread safety: submit/wait_durable/drain/stats may be called from any
// number of threads. Per-source ordering is preserved for submissions made
// from one thread (same source => same queue => FIFO absorption); ordering
// across producer threads is unspecified, exactly like concurrent
// insert_batch callers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/stat_cell.hpp"
#include "src/graph/types.hpp"
#include "src/obs/latency_histogram.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/sched/task_scheduler.hpp"

namespace dgap::core {
class DgapStore;
}

namespace dgap::ingest {

// Monotone submission ticket; 0 means "nothing submitted yet".
using Epoch = std::uint64_t;

// Plain-value snapshot of the ingestor's counters (safe to copy around).
struct IngestStats {
  // Edges accepted by submit(), counted at ticket registration — a stats
  // poll while the producer is still blocked on backpressure already sees
  // the whole accepted submission (streaming pollers gate on this).
  std::uint64_t submitted_edges = 0;
  std::uint64_t absorbed_edges = 0;  // edges pushed through the sink
  std::uint64_t submit_calls = 0;
  std::uint64_t absorb_batches = 0;   // sink invocations (drain passes)
  std::uint64_t stalls = 0;           // submit blocked on a full queue
  std::uint64_t queue_high_watermark = 0;  // max edges queued in one queue
  // Autotune telemetry (Options::autotune): the effective gather threshold
  // a pop would use right now (max across queues; for a fixed threshold
  // this echoes the clamped absorb_min_edges) and the summed per-queue
  // EWMA arrival rate in edges/second.
  std::uint64_t absorb_min_effective = 0;
  double arrival_rate_eps = 0.0;
  Epoch last_submitted = 0;
  Epoch durable = 0;  // every epoch <= this is absorbed + fenced
  // A sink call threw: edges past `durable` may be silently dropped. The
  // durable epoch freezes at the last fully-absorbed prefix;
  // wait_durable/drain rethrow the recorded error. Pollers (who never call
  // wait_durable) must check this instead of comparing absorbed counts.
  bool failed = false;
};

class AsyncIngestor {
 public:
  // Absorption sink: must make the span durable (flush + fence) before
  // returning; `tombstone` selects delete semantics. DgapStore's
  // insert_batch/delete_batch satisfy this contract.
  using BatchFn = std::function<void(std::span<const Edge>, bool tombstone)>;

  struct Options {
    // Absorber slots (M): the CAP on concurrent absorber tasks. Actual
    // parallelism is min(M, scheduler workers).
    std::size_t absorbers = 1;
    // Staging queues (N); 0 => one per absorber. Queue i is drained only by
    // absorber slot i % M, so each queue has exactly one consumer.
    std::size_t queues = 0;
    std::size_t queue_capacity_edges = 1 << 16;  // backpressure bound
    std::size_t absorb_chunk_edges = 8192;  // max edges per sink call
    // Consecutive source ids routed to the same queue; blocks of nearby
    // sources share home sections, which is what the batch path rewards.
    std::size_t route_block = 64;
    // Serialize sink calls across absorbers (for single-ingest stores whose
    // batch path is not thread-safe: LLAMA/GraphOne/XPGraph models).
    bool serialize_sink = false;
    // Minimum staged edges an absorber gathers in a queue before draining
    // it (0 = drain immediately, the classic behavior). Larger values build
    // larger sink batches — the batch path's one-lock/one-fence savings —
    // under trickle ingest.
    std::size_t absorb_min_edges = 0;
    // Idle-absorber flush deadline: a non-empty queue still below the
    // gather threshold with no new arrivals for this long is drained
    // anyway, so tail epochs close under trickle ingest instead of waiting
    // forever for a full chunk. Must be > 0 when absorb_min_edges > 0 or
    // autotune is on.
    std::uint64_t flush_deadline_us = 1000;
    // Arrival-rate absorb autotuning (ROADMAP PR 2 follow-up): replace the
    // static absorb_min_edges with a per-queue threshold derived from an
    // EWMA of the observed arrival rate — the edges expected to arrive
    // within one flush deadline, clamped to [0, absorb_chunk_edges]. Under
    // flood the absorber gathers full chunks (maximum batch-path savings);
    // under trickle the threshold decays to 0 and every item drains
    // immediately (no deadline-paced latency). absorb_min_edges is ignored
    // while autotune is on.
    bool autotune = false;
  };

  // (Two overloads rather than a default argument: in-class default args
  // cannot use a nested aggregate's member initializers before the
  // enclosing class is complete.)
  AsyncIngestor(BatchFn sink, Options opts);
  explicit AsyncIngestor(BatchFn sink);
  ~AsyncIngestor();  // drains, then waits out every absorber task
  AsyncIngestor(const AsyncIngestor&) = delete;
  AsyncIngestor& operator=(const AsyncIngestor&) = delete;

  // Stage edges for insertion/deletion; returns the submission's epoch
  // ticket. Throws std::invalid_argument on negative vertex ids and
  // std::out_of_range on ids above core::kMaxVertexId (rejected
  // producer-side so a poisoned batch never reaches an absorber).
  Epoch submit(std::span<const Edge> edges) {
    return submit_internal(edges, /*tombstone=*/false);
  }
  Epoch submit_deletes(std::span<const Edge> edges) {
    return submit_internal(edges, /*tombstone=*/true);
  }

  // Block until every submission with ticket <= e is absorbed and durable.
  // Rethrows (as std::runtime_error) if an absorber's sink failed.
  void wait_durable(Epoch e);
  // Barrier over everything submitted so far; returns the epoch waited for.
  Epoch drain();

  [[nodiscard]] Epoch last_submitted() const;
  [[nodiscard]] Epoch durable_epoch() const;
  [[nodiscard]] IngestStats stats() const;
  [[nodiscard]] std::size_t num_queues() const { return queues_.size(); }
  [[nodiscard]] std::size_t num_absorbers() const { return slots_.size(); }

  // Latency distributions (ns): one sample per sink call (absorb) and one
  // per wait_durable call. Snapshots diff (operator-) for per-round views.
  [[nodiscard]] obs::HistogramSnapshot absorb_latency() const {
    return absorb_hist_.snapshot();
  }
  [[nodiscard]] obs::HistogramSnapshot wait_durable_latency() const {
    return wait_hist_.snapshot();
  }

 private:
  struct Item {
    Epoch epoch = 0;
    bool tombstone = false;
    std::vector<Edge> edges;
    // Edges already handed out by pop_chunk splits (an item larger than
    // absorb_chunk_edges is drained in chunk-sized pieces; the cursor
    // avoids re-copying the remainder forward on every split).
    std::size_t consumed = 0;
  };

  struct Queue {
    std::mutex mu;
    std::condition_variable not_full;
    std::deque<Item> items;
    std::size_t edges = 0;  // staged edge count (backpressure unit)
    // Gather state: set when a pop was refused below the gather threshold.
    // The flush deadline is measured per queue from that refusal, so a
    // sub-threshold queue drains on time even while its absorber stays
    // busy with sibling queues.
    bool gathering = false;
    std::chrono::steady_clock::time_point gather_since{};
    // Arrival-rate tracking (Options::autotune): EWMA of edges/second
    // observed at push time plus the last arrival timestamp (a queue idle
    // past the flush deadline is treated as rate 0 — the flood is over).
    double ewma_eps = 0.0;
    bool saw_arrival = false;
    std::chrono::steady_clock::time_point last_arrival{};
  };

  // One absorber slot = at most one scheduler task in flight. `scheduled`
  // is the resubmission latch (exchange/clear/recheck — see run_absorber);
  // `timer_armed`/`timer_id` guard the slot's pending flush-deadline timer.
  struct Slot {
    std::atomic<bool> scheduled{false};
    std::atomic<bool> timer_armed{false};
    std::mutex timer_mu;
    sched::TaskScheduler::TimerId timer_id = 0;
  };

  Epoch submit_internal(std::span<const Edge> edges, bool tombstone);
  void push_item(std::size_t queue_idx, Item item);
  // Drain slot's queues until an entire sweep finds nothing, then release
  // the slot (rescheduling or arming the flush timer if work remains).
  void run_absorber(std::size_t slot);
  // Submit slot's absorber task unless one is already in flight.
  void ensure_scheduled(std::size_t slot);
  void arm_flush_timer(std::size_t slot);
  // Drain at most absorb_chunk_edges from queue q (the boundary item is
  // split — never taken whole — so a sink call can never exceed the
  // chunk); returns drained items. With `gather` set, a non-empty queue
  // holding fewer than gather_threshold_locked() staged edges is left
  // alone until its flush deadline; `below_min` reports that it happened.
  std::vector<Item> pop_chunk(Queue& q, bool gather = false,
                              bool* below_min = nullptr);
  // Effective gather threshold for q right now (requires q.mu held):
  // the static absorb_min_edges, or the autotuned arrival-rate estimate.
  [[nodiscard]] std::size_t gather_threshold_locked(const Queue& q) const;
  void absorb_items(std::vector<Item>& items);
  void retire_items(const std::vector<Item>& items);
  [[nodiscard]] std::size_t route(NodeId src) const {
    return (static_cast<std::uint64_t>(src) / opts_.route_block) %
           queues_.size();
  }

  BatchFn sink_;
  Options opts_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::unique_ptr<Slot>> slots_;
  // Outstanding absorber tasks + pending timers; the destructor waits on it
  // after the last resubmission source (in-flight pushers) has quiesced.
  sched::WaitGroup wg_;
  // submit() calls currently staging items. The destructor spins this to 0
  // after unblocking backpressure waiters, so a straggler's
  // ensure_scheduled can never race the final wg_ wait.
  std::atomic<std::size_t> pushers_inflight_{0};
  std::mutex sink_mu_;  // held around sink calls when serialize_sink

  // Epoch ledger: open_[e] counts staged-but-not-yet-durable items of
  // submission e; the durable epoch is the largest e with no open entry at
  // or below it. Registration happens before the items become visible to
  // absorbers, so the durable epoch can never skip an in-flight submission.
  mutable std::mutex epoch_mu_;
  std::condition_variable durable_cv_;
  Epoch last_submitted_ = 0;
  Epoch durable_ = 0;
  std::map<Epoch, std::size_t> open_;
  std::string error_;  // first sink failure, rethrown to waiters

  std::atomic<bool> stopping_{false};

  StatCell<std::uint64_t> submitted_edges_;
  StatCell<std::uint64_t> absorbed_edges_;
  StatCell<std::uint64_t> submit_calls_;
  StatCell<std::uint64_t> absorb_batches_;
  StatCell<std::uint64_t> stalls_;
  StatCell<std::uint64_t> queue_high_watermark_;

  obs::LatencyHistogram absorb_hist_;
  obs::LatencyHistogram wait_hist_;
  std::vector<obs::MetricsRegistry::Handle> metric_handles_;
};

// The canonical DGAP absorption sink: tombstones to delete_batch, the rest
// to insert_batch (both thread-safe, flush+fence before returning). Shared
// by make_dgap_ingestor and the bench harness so the dispatch exists once.
// The store must outlive any ingestor holding the sink.
AsyncIngestor::BatchFn dgap_batch_sink(core::DgapStore& store);

// Convenience wiring for the paper's store: absorbers feed
// dgap_batch_sink(store) directly (thread-safe, so the sink is not
// serialized). The store must outlive the returned ingestor, and its
// DgapOptions::max_writer_threads must cover the absorber count.
std::unique_ptr<AsyncIngestor> make_dgap_ingestor(
    core::DgapStore& store, AsyncIngestor::Options opts = {});

}  // namespace dgap::ingest
