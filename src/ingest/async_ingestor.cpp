#include "src/ingest/async_ingestor.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/core/dgap_store.hpp"
#include "src/obs/scoped_latency.hpp"
#include "src/obs/trace_ring.hpp"

namespace dgap::ingest {

AsyncIngestor::AsyncIngestor(BatchFn sink)
    : AsyncIngestor(std::move(sink), Options{}) {}

AsyncIngestor::AsyncIngestor(BatchFn sink, Options opts)
    : sink_(std::move(sink)), opts_(opts) {
  if (!sink_) throw std::invalid_argument("AsyncIngestor: null sink");
  if (opts_.absorbers == 0)
    throw std::invalid_argument("AsyncIngestor: need at least one absorber");
  if (opts_.queue_capacity_edges == 0 || opts_.absorb_chunk_edges == 0)
    throw std::invalid_argument("AsyncIngestor: zero capacity/chunk");
  if ((opts_.absorb_min_edges > 0 || opts_.autotune) &&
      opts_.flush_deadline_us == 0)
    throw std::invalid_argument(
        "AsyncIngestor: absorb_min_edges/autotune need flush_deadline_us > 0");
  opts_.route_block = std::max<std::size_t>(opts_.route_block, 1);
  // A gather threshold above the queue bound could never be met, and one
  // above the absorb chunk would leave every post-drain remainder below
  // threshold (each chunk then waits out a flush deadline). Clamp to both
  // so steady-state absorption is never deadline-paced by accident.
  opts_.absorb_min_edges =
      std::min({opts_.absorb_min_edges, opts_.queue_capacity_edges,
                opts_.absorb_chunk_edges});
  const std::size_t nq =
      opts_.queues == 0 ? opts_.absorbers : opts_.queues;
  queues_.reserve(nq);
  for (std::size_t i = 0; i < nq; ++i)
    queues_.push_back(std::make_unique<Queue>());
  slots_.reserve(opts_.absorbers);
  for (std::size_t i = 0; i < opts_.absorbers; ++i)
    slots_.push_back(std::make_unique<Slot>());
  // Touch the process scheduler now so its worker pool spins up before the
  // first push (and so a configure() racing construction fails fast there,
  // not mid-ingest).
  sched::TaskScheduler::global();

  // Publish this instance's counters/gauges/histograms as registry readers
  // over the cells above (metric_handles_ is the last member, so the
  // readers deregister before anything they read is torn down).
  static std::atomic<std::uint64_t> next_instance{0};
  const std::string p =
      "ingest" + std::to_string(next_instance.fetch_add(1)) + "_";
  obs::MetricsRegistry& reg = obs::registry();
  metric_handles_.push_back(reg.add_counter(
      p + "submitted_edges",
      [this] { return static_cast<double>(submitted_edges_.load()); }));
  metric_handles_.push_back(reg.add_counter(
      p + "absorbed_edges",
      [this] { return static_cast<double>(absorbed_edges_.load()); }));
  metric_handles_.push_back(reg.add_counter(
      p + "absorb_batches",
      [this] { return static_cast<double>(absorb_batches_.load()); }));
  metric_handles_.push_back(reg.add_counter(
      p + "stalls", [this] { return static_cast<double>(stalls_.load()); }));
  metric_handles_.push_back(reg.add_gauge(
      p + "queue_high_watermark",
      [this] { return static_cast<double>(queue_high_watermark_.load()); }));
  // Autotune telemetry (sampled via stats() so queue locks are only taken
  // at export time): JSON-lines of these show convergence over a run.
  metric_handles_.push_back(reg.add_gauge(
      p + "arrival_rate_eps", [this] { return stats().arrival_rate_eps; }));
  metric_handles_.push_back(reg.add_gauge(
      p + "absorb_min_effective", [this] {
        return static_cast<double>(stats().absorb_min_effective);
      }));
  metric_handles_.push_back(reg.add_histogram(
      p + "absorb_ns", [this] { return absorb_hist_.snapshot(); }));
  metric_handles_.push_back(reg.add_histogram(
      p + "wait_durable_ns", [this] { return wait_hist_.snapshot(); }));
}

AsyncIngestor::~AsyncIngestor() {
  // Destructor-drain guarantee: absorber tasks keep draining after the stop
  // flag until their queues are empty, so everything staged before
  // destruction is absorbed and fenced before the last task retires.
  stopping_.store(true, std::memory_order_release);
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> g(q->mu);
    q->not_full.notify_all();  // unblock any straggling submitter
  }
  // Wait for in-flight submit() calls to finish staging: their pushes are
  // the only resubmission source besides timers, so once this hits zero no
  // new absorber task can appear after the wg_ wait below.
  while (pushers_inflight_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  // Cancel pending flush timers — shutdown drains regardless of gather
  // pacing. A timer that already fired (cancel fails) runs its own
  // wg_.done(); only a successful cancel transfers that obligation here.
  for (auto& s : slots_) {
    std::lock_guard<std::mutex> g(s->timer_mu);
    if (s->timer_armed.exchange(false, std::memory_order_acq_rel)) {
      if (sched::TaskScheduler::global().cancel(s->timer_id)) wg_.done();
    }
  }
  // One final stop-flag drain per slot, then wait out every absorber task.
  for (std::size_t i = 0; i < slots_.size(); ++i) ensure_scheduled(i);
  wg_.wait();
  // Final synchronous sweep: a submitter that was blocked on backpressure
  // when destruction began is unblocked by the notify above and may push
  // after its absorber's last empty sweep. Absorb those stragglers here so
  // every edge whose submit() returned a ticket before this point is still
  // drained durably. (Calling submit concurrently with destruction remains
  // undefined behavior on the object itself, like any destructor.)
  for (auto& q : queues_) {
    for (;;) {
      std::vector<Item> chunk = pop_chunk(*q);
      if (chunk.empty()) break;
      absorb_items(chunk);
      retire_items(chunk);
    }
  }
}

Epoch AsyncIngestor::submit_internal(std::span<const Edge> edges,
                                     bool tombstone) {
  if (edges.empty()) {
    std::lock_guard<std::mutex> g(epoch_mu_);
    return last_submitted_;  // nothing to wait for beyond what exists
  }
  for (const Edge& e : edges) {
    if (e.src < 0 || e.dst < 0)
      throw std::invalid_argument("AsyncIngestor: negative vertex id");
    if (e.src > core::kMaxVertexId || e.dst > core::kMaxVertexId)
      throw std::out_of_range("AsyncIngestor: vertex id exceeds kMaxVertexId");
  }

  // Bucket the span by staging queue, splitting any bucket larger than the
  // queue bound so a single item always fits. The common case (bucket fits
  // one item) moves the bucket into the item: one copy of each edge total
  // on the producer-critical path.
  std::vector<std::pair<std::size_t, Item>> items;  // (queue, item)
  const auto stage_bucket = [&](std::size_t qi, std::vector<Edge>&& b) {
    if (b.size() <= opts_.queue_capacity_edges) {
      Item item;
      item.tombstone = tombstone;
      item.edges = std::move(b);
      items.emplace_back(qi, std::move(item));
      return;
    }
    for (std::size_t off = 0; off < b.size();
         off += opts_.queue_capacity_edges) {
      const std::size_t n =
          std::min(opts_.queue_capacity_edges, b.size() - off);
      Item item;
      item.tombstone = tombstone;
      item.edges.assign(b.begin() + static_cast<std::ptrdiff_t>(off),
                        b.begin() + static_cast<std::ptrdiff_t>(off + n));
      items.emplace_back(qi, std::move(item));
    }
  };
  if (queues_.size() == 1) {
    stage_bucket(0, std::vector<Edge>(edges.begin(), edges.end()));
  } else {
    std::vector<std::vector<Edge>> buckets(queues_.size());
    for (const Edge& e : edges) buckets[route(e.src)].push_back(e);
    for (std::size_t qi = 0; qi < buckets.size(); ++qi)
      if (!buckets[qi].empty()) stage_bucket(qi, std::move(buckets[qi]));
  }

  // Take the ticket and register the item count *before* any item becomes
  // visible to an absorber: the durable epoch can then never advance past
  // this submission until every one of its items is absorbed.
  Epoch ticket;
  {
    std::lock_guard<std::mutex> g(epoch_mu_);
    ticket = ++last_submitted_;
    open_[ticket] = items.size();
  }
  // Account the accepted work at ticket registration, not after the pushes:
  // push_item can block on backpressure for a long time, and a stats poll
  // during that stall must already see this submission (streaming pollers
  // compare submitted vs absorbed to decide whether more work is coming).
  submitted_edges_ += edges.size();
  ++submit_calls_;
  pushers_inflight_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& [qi, item] : items) {
    item.epoch = ticket;
    push_item(qi, std::move(item));
  }
  pushers_inflight_.fetch_sub(1, std::memory_order_release);
  return ticket;
}

// EWMA smoothing for the autotuned arrival rate: heavy enough that one
// odd inter-arrival gap does not swing the threshold, light enough that a
// trickle->flood transition converges within a few tens of pushes.
namespace {
constexpr double kRateAlpha = 0.25;
}  // namespace

void AsyncIngestor::push_item(std::size_t queue_idx, Item item) {
  Queue& q = *queues_[queue_idx];
  const std::size_t n = item.edges.size();
  {
    std::unique_lock<std::mutex> l(q.mu);
    std::uint64_t stall_t0 = 0;
    if (q.edges != 0 && q.edges + n > opts_.queue_capacity_edges) {
      ++stalls_;  // one stall per blocking episode
      stall_t0 = obs::trace_begin();
    }
    q.not_full.wait(l, [&] {
      return q.edges == 0 || q.edges + n <= opts_.queue_capacity_edges ||
             stopping_.load(std::memory_order_acquire);
    });
    obs::trace_end(obs::TraceKind::backpressure_stall, stall_t0, queue_idx, n);
    if (opts_.autotune) {
      const auto now = std::chrono::steady_clock::now();
      if (q.saw_arrival) {
        const double dt = std::max(
            std::chrono::duration<double>(now - q.last_arrival).count(),
            1e-7);
        const double inst = static_cast<double>(n) / dt;
        q.ewma_eps = q.ewma_eps == 0.0
                         ? inst
                         : kRateAlpha * inst + (1.0 - kRateAlpha) * q.ewma_eps;
      }
      q.saw_arrival = true;
      q.last_arrival = now;
    }
    q.items.push_back(std::move(item));
    q.edges += n;
    queue_high_watermark_.max_with(q.edges);
  }
  ensure_scheduled(queue_idx % slots_.size());
}

std::size_t AsyncIngestor::gather_threshold_locked(const Queue& q) const {
  if (!opts_.autotune) return opts_.absorb_min_edges;
  if (!q.saw_arrival || q.ewma_eps <= 0.0) return 0;
  const auto now = std::chrono::steady_clock::now();
  const double idle_us =
      std::chrono::duration<double, std::micro>(now - q.last_arrival).count();
  // A queue idle past its flush deadline is no longer flooding: drain
  // whatever is staged immediately instead of pacing a dead stream.
  if (idle_us > static_cast<double>(opts_.flush_deadline_us)) return 0;
  // Gather what the current rate will deliver before the deadline would
  // force a flush anyway; more than that can never accumulate in time.
  const double window_s =
      static_cast<double>(opts_.flush_deadline_us) * 1e-6;
  const double expect = q.ewma_eps * window_s;
  const auto bound = static_cast<double>(
      std::min(opts_.absorb_chunk_edges, opts_.queue_capacity_edges));
  return static_cast<std::size_t>(std::min(expect, bound));
}

std::vector<AsyncIngestor::Item> AsyncIngestor::pop_chunk(Queue& q,
                                                          bool gather,
                                                          bool* below_min) {
  std::vector<Item> out;
  std::size_t taken = 0;
  {
    std::lock_guard<std::mutex> g(q.mu);
    const std::size_t min_edges = gather ? gather_threshold_locked(q) : 0;
    if (!q.items.empty() && q.edges < min_edges) {
      // Gathering: leave the partial chunk staged so the next arrivals
      // extend it — but only until this queue's own flush deadline,
      // measured from the first refusal. The clock lives in the queue so
      // an absorber kept busy by sibling queues still drains this one on
      // time on its next sweep.
      const auto now = std::chrono::steady_clock::now();
      if (!q.gathering) {
        q.gathering = true;
        q.gather_since = now;
      }
      if (now - q.gather_since <
          std::chrono::microseconds(opts_.flush_deadline_us)) {
        if (below_min != nullptr) *below_min = true;
        return out;
      }
      // Deadline expired: fall through and drain the partial chunk.
    }
    q.gathering = false;
    while (!q.items.empty() && taken < opts_.absorb_chunk_edges) {
      Item& front = q.items.front();
      const std::size_t remaining = front.edges.size() - front.consumed;
      if (taken + remaining <= opts_.absorb_chunk_edges) {
        // The rest of this item fits: take it whole (sliced from the
        // cursor if earlier splits already drained a prefix — this final
        // piece retires in place of the original item, so the ledger
        // needs no adjustment).
        if (front.consumed == 0) {
          out.push_back(std::move(front));
        } else {
          Item part;
          part.epoch = front.epoch;
          part.tombstone = front.tombstone;
          part.edges.assign(
              front.edges.begin() +
                  static_cast<std::ptrdiff_t>(front.consumed),
              front.edges.end());
          out.push_back(std::move(part));
        }
        q.items.pop_front();
        taken += remaining;
        q.edges -= remaining;
        continue;
      }
      // Boundary item would overshoot the chunk bound. With work already
      // taken, stop before it (the bound holds; the item drains next pop).
      if (taken > 0) break;
      // A single item larger than the chunk (items are bounded by the
      // queue capacity, which may exceed the chunk): hand out one
      // chunk-sized piece and advance the cursor — the sink never sees
      // more than absorb_chunk_edges at once, and the remainder is not
      // re-copied forward on every split. The piece retires separately
      // from the staged original, so the open-item ledger must count one
      // more piece first (q.mu -> epoch_mu_ nests safely: no path
      // acquires q.mu while holding epoch_mu_).
      const std::size_t room = opts_.absorb_chunk_edges;
      Item part;
      part.epoch = front.epoch;
      part.tombstone = front.tombstone;
      const auto begin = front.edges.begin() +
                         static_cast<std::ptrdiff_t>(front.consumed);
      part.edges.assign(begin, begin + static_cast<std::ptrdiff_t>(room));
      front.consumed += room;
      {
        std::lock_guard<std::mutex> e(epoch_mu_);
        ++open_[part.epoch];
      }
      taken += room;
      q.edges -= room;
      out.push_back(std::move(part));
      break;
    }
  }
  if (!out.empty()) q.not_full.notify_all();
  return out;
}

void AsyncIngestor::absorb_items(std::vector<Item>& items) {
  // Coalesce consecutive same-mode items into one sink call (normally the
  // whole chunk: deletes are rare), preserving staged order so a delete
  // never overtakes the insert it cancels.
  std::vector<Edge> run;
  std::size_t i = 0;
  while (i < items.size()) {
    const bool tomb = items[i].tombstone;
    run.clear();
    while (i < items.size() && items[i].tombstone == tomb) {
      run.insert(run.end(), items[i].edges.begin(), items[i].edges.end());
      ++i;
    }
    if (run.empty()) continue;
    try {
      {
        // One absorb-latency sample per sink call (per chunk, never per
        // edge); includes sink serialization wait where configured.
        const obs::ScopedLatency lat(&absorb_hist_);
        if (opts_.serialize_sink) {
          std::lock_guard<std::mutex> g(sink_mu_);
          sink_(run, tomb);
        } else {
          sink_(run, tomb);
        }
      }
      absorbed_edges_ += run.size();
      ++absorb_batches_;
    } catch (const std::exception& ex) {
      std::lock_guard<std::mutex> g(epoch_mu_);
      if (error_.empty()) error_ = ex.what();
    }
  }
}

void AsyncIngestor::retire_items(const std::vector<Item>& items) {
  std::lock_guard<std::mutex> g(epoch_mu_);
  for (const Item& item : items) {
    const auto it = open_.find(item.epoch);
    if (it != open_.end() && --it->second == 0) open_.erase(it);
  }
  if (!error_.empty()) {
    // A sink call failed: some retired items were dropped, not absorbed.
    // Freeze the durable epoch at the last fully-successful prefix (it must
    // not report durability for lost edges) and wake waiters so they can
    // observe the error.
    durable_cv_.notify_all();
    return;
  }
  const Epoch now_durable =
      open_.empty() ? last_submitted_ : open_.begin()->first - 1;
  if (now_durable > durable_) {
    durable_ = now_durable;
    obs::trace_instant(obs::TraceKind::epoch_close, now_durable);
    durable_cv_.notify_all();
  }
}

void AsyncIngestor::ensure_scheduled(std::size_t slot) {
  Slot& s = *slots_[slot];
  // seq_cst pairs with the seq_cst clear in run_absorber: if this exchange
  // observes true, the running task's post-clear queue recheck is ordered
  // after our caller's push and cannot miss it.
  if (s.scheduled.exchange(true, std::memory_order_seq_cst)) return;
  wg_.add(1);
  sched::TaskScheduler::global().submit(
      [this, slot] {
        try {
          run_absorber(slot);
        } catch (const std::exception& ex) {
          // OOM-class failure outside the sink try/catch: surface it like a
          // sink error (freeze durability, wake waiters) and release the
          // slot so later pushes can still reschedule it.
          {
            std::lock_guard<std::mutex> g(epoch_mu_);
            if (error_.empty()) error_ = ex.what();
            durable_cv_.notify_all();
          }
          slots_[slot]->scheduled.store(false, std::memory_order_seq_cst);
        }
        wg_.done();
      },
      sched::Priority::high);
}

void AsyncIngestor::arm_flush_timer(std::size_t slot) {
  Slot& s = *slots_[slot];
  if (s.timer_armed.exchange(true, std::memory_order_acq_rel)) return;
  wg_.add(1);
  std::lock_guard<std::mutex> g(s.timer_mu);
  s.timer_id = sched::TaskScheduler::global().submit_after(
      opts_.flush_deadline_us,
      [this, slot] {
        // Clear before rescheduling so the drain we trigger can re-arm for
        // its own remainder. The per-queue gather clock is not reset by the
        // wakeup, so firing never extends a deadline.
        slots_[slot]->timer_armed.store(false, std::memory_order_release);
        ensure_scheduled(slot);
        wg_.done();
      },
      sched::Priority::high);
}

void AsyncIngestor::run_absorber(std::size_t slot) {
  Slot& s = *slots_[slot];
  bool gathering = false;
  for (;;) {
    bool did_work = false;
    gathering = false;
    // Gathering applies only in steady state: shutdown drains whatever is
    // staged, however small. pop_chunk itself enforces the per-queue flush
    // deadline, so a sweep that finds other work still drains any queue
    // whose deadline has passed.
    const bool allow_gather = !stopping_.load(std::memory_order_acquire);
    for (std::size_t qi = slot; qi < queues_.size(); qi += slots_.size()) {
      std::vector<Item> chunk =
          pop_chunk(*queues_[qi], allow_gather, &gathering);
      if (chunk.empty()) continue;
      absorb_items(chunk);
      retire_items(chunk);
      did_work = true;
    }
    if (!did_work) break;
  }
  // Release the slot, then recheck the queues: a push that raced the empty
  // sweep above saw scheduled == true and skipped resubmitting, so its item
  // is this task's responsibility. The seq_cst clear orders the recheck
  // after any such push's q.mu critical section (see ensure_scheduled).
  s.scheduled.store(false, std::memory_order_seq_cst);
  bool nonempty = false;
  for (std::size_t qi = slot; qi < queues_.size(); qi += slots_.size()) {
    std::lock_guard<std::mutex> g(queues_[qi]->mu);
    nonempty = nonempty || !queues_[qi]->items.empty();
  }
  if (!nonempty) return;
  if (gathering && !stopping_.load(std::memory_order_acquire)) {
    // Everything left is a sub-threshold gather remainder: instead of
    // spinning, arm one cancellable timer for the flush deadline — the old
    // dedicated thread's cv wait_for, without parking a thread. Arrivals in
    // the meantime reschedule the slot themselves via push_item.
    arm_flush_timer(slot);
    return;
  }
  ensure_scheduled(slot);
}

void AsyncIngestor::wait_durable(Epoch e) {
  const obs::ScopedLatency lat(&wait_hist_);
  std::unique_lock<std::mutex> l(epoch_mu_);
  durable_cv_.wait(l, [&] { return durable_ >= e || !error_.empty(); });
  if (!error_.empty())
    throw std::runtime_error("AsyncIngestor sink failed: " + error_);
}

Epoch AsyncIngestor::drain() {
  Epoch target;
  {
    std::lock_guard<std::mutex> g(epoch_mu_);
    target = last_submitted_;
  }
  wait_durable(target);
  return target;
}

Epoch AsyncIngestor::last_submitted() const {
  std::lock_guard<std::mutex> g(epoch_mu_);
  return last_submitted_;
}

Epoch AsyncIngestor::durable_epoch() const {
  std::lock_guard<std::mutex> g(epoch_mu_);
  return durable_;
}

IngestStats AsyncIngestor::stats() const {
  IngestStats s;
  s.submitted_edges = submitted_edges_;
  s.absorbed_edges = absorbed_edges_;
  s.submit_calls = submit_calls_;
  s.absorb_batches = absorb_batches_;
  s.stalls = stalls_;
  s.queue_high_watermark = queue_high_watermark_;
  if (opts_.autotune) {
    double rate = 0.0;
    std::uint64_t eff = 0;
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> g(q->mu);
      rate += q->ewma_eps;
      eff = std::max<std::uint64_t>(eff, gather_threshold_locked(*q));
    }
    s.arrival_rate_eps = rate;
    s.absorb_min_effective = eff;
  } else {
    s.absorb_min_effective = opts_.absorb_min_edges;
  }
  {
    std::lock_guard<std::mutex> g(epoch_mu_);
    s.last_submitted = last_submitted_;
    s.durable = durable_;
    s.failed = !error_.empty();
  }
  return s;
}

AsyncIngestor::BatchFn dgap_batch_sink(core::DgapStore& store) {
  return [&store](std::span<const Edge> edges, bool tombstone) {
    if (tombstone)
      store.delete_batch(edges);
    else
      store.insert_batch(edges);
  };
}

std::unique_ptr<AsyncIngestor> make_dgap_ingestor(
    core::DgapStore& store, AsyncIngestor::Options opts) {
  opts.serialize_sink = false;  // DgapStore's batch path is thread-safe
  return std::make_unique<AsyncIngestor>(dgap_batch_sink(store), opts);
}

}  // namespace dgap::ingest
