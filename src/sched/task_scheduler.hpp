// TaskScheduler: one work-stealing runtime for everything that used to run
// on its own threads — async-ingest absorbers, cold-tier promotion and
// demotion, parallel recovery, and the analysis kernels' sched execution
// path (src/sched/parallel.hpp).
//
// Shape: N workers, each owning a Chase-Lev deque (owner pushes/pops the
// bottom LIFO, thieves steal the top FIFO). Worker-submitted normal tasks
// go to the owner's deque; everything else lands in shared lanes — one per
// priority — that double as the deque overflow queue. A worker's scan
// order is: expired timers, shared high, own deque, shared normal, steal
// (same-NUMA-node victims first), shared low. Priorities are a scan-order
// contract, not preemption: a running task is never interrupted, which is
// why long kernel tasks cooperate via assist() between blocks.
//
// Durability-sensitive users (AsyncIngestor) rely on the shutdown
// contract: the destructor drains — every task whose submit() returned
// runs to completion before workers exit. Only unexpired timers are
// dropped (counted in stats().timers_dropped); their callbacks never run.
//
// Singleton use: TaskScheduler::global() lazily builds the process-wide
// instance (configure() overrides its Options — workers, pinning — and
// throws std::logic_error once the instance exists). Tests construct
// private instances directly; only the global one publishes sched_*
// metrics into the obs registry.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/latency_histogram.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/sched/topology.hpp"

namespace dgap::sched {

enum class Priority : std::uint8_t { high = 0, normal = 1, low = 2 };

enum class PinPolicy : std::uint8_t {
  none,    // let the OS place workers
  spread,  // round-robin workers across NUMA nodes and pin to the node set
};

struct Options {
  // Worker thread count. Direct construction validates it strictly (0 or
  // > kMaxWorkers throws std::invalid_argument); 0 is only meaningful when
  // passed through configure(), where it means auto =
  // max(1, hardware_concurrency).
  std::size_t workers = 0;
  PinPolicy pin_policy = PinPolicy::none;
  // Per-worker deque capacity (rounded up to a power of two). Overflow is
  // not an error — excess worker-local submissions spill to the shared
  // normal lane and are counted in stats().overflows.
  std::size_t deque_capacity = 4096;
  // Publish sched_* counters/gauges/histogram into obs::registry(). Only
  // the process-global instance turns this on (metric names are flat, so
  // two registered instances would collide in exporters).
  bool register_metrics = false;
};

struct WorkerStats {
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
};

struct SchedStats {
  std::size_t workers = 0;
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t overflows = 0;
  std::uint64_t assists = 0;  // tasks run inline via assist()/wait()
  std::uint64_t timers_fired = 0;
  std::uint64_t timers_cancelled = 0;
  std::uint64_t timers_dropped = 0;
  std::uint64_t task_exceptions = 0;
  std::uint64_t queue_depth = 0;  // queued, unstarted tasks (approximate)
  std::vector<WorkerStats> per_worker;
};

class TaskScheduler;

namespace detail {
// Run one queued task of the calling thread's scheduler (own deque first,
// then shared high). Returns false when the thread is not a worker or
// nothing was runnable. Used by WaitGroup::wait so a worker blocked on a
// nested fork keeps draining the helpers it just spawned (no deadlock on a
// one-worker pool).
bool assist_for_wait();
}  // namespace detail

// Go-style completion latch. add() strictly before the work is submitted,
// done() exactly once per add. wait() on a worker thread assists (runs
// queued tasks) instead of only blocking.
class WaitGroup {
 public:
  void add(std::size_t n = 1) {
    count_.fetch_add(static_cast<std::int64_t>(n), std::memory_order_acq_rel);
  }
  void done() {
    // The decrement happens INSIDE the critical section: wait() may only
    // observe zero after this whole block exited, which is what lets the
    // waiter destroy the WaitGroup the moment wait() returns (the classic
    // latch teardown race: a bare fetch_sub before the lock lets the waiter
    // free mu_/cv_ while the last done() is still notifying).
    std::lock_guard<std::mutex> g(mu_);
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      cv_.notify_all();
  }
  void wait();
  [[nodiscard]] bool idle() const {
    return count_.load(std::memory_order_acquire) <= 0;
  }

 private:
  std::atomic<std::int64_t> count_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

class TaskScheduler {
 public:
  static constexpr std::size_t kMaxWorkers = 512;

  explicit TaskScheduler(Options opts);
  ~TaskScheduler();  // drains every queued task, then joins the workers
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }

  // Enqueue fn. Thread-safe; may be called from inside a running task
  // (nested submits go to the submitting worker's own deque when normal
  // priority). Must not race the destructor.
  void submit(std::function<void()> fn, Priority prio = Priority::normal);

  // One-shot delayed task: fn is promoted into its priority lane once
  // `delay_us` elapses (serviced by workers between tasks; resolution is
  // scheduling-grade, not timer-grade). cancel() returns true when the
  // callback is guaranteed never to run.
  using TimerId = std::uint64_t;
  TimerId submit_after(std::uint64_t delay_us, std::function<void()> fn,
                       Priority prio = Priority::high);
  bool cancel(TimerId id);

  // Run at most one pending high-priority task (plus timer promotion)
  // inline on the calling thread. Long cooperative tasks (kernel block
  // loops) call this between blocks so absorbers keep their latency SLO
  // even when every worker is busy with analysis. Any thread may call it.
  bool assist();

  // Blocked-range parallel for: fn(begin, end) per grain-sized block,
  // dynamically claimed by up to num_workers()+1 participants (the caller
  // works too). Blocks are [b, min(b+grain, end)) with fixed boundaries —
  // callers that reduce per block get schedule-independent decomposition.
  // The first exception thrown by fn is rethrown on the caller after all
  // participants stop (remaining blocks are abandoned).
  template <class F>
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    F&& fn);

  // Submit every fn and wait for all of them; rethrows the first failure
  // after the whole group completed.
  void when_all(std::vector<std::function<void()>> fns,
                Priority prio = Priority::normal);

  [[nodiscard]] SchedStats stats() const;
  [[nodiscard]] obs::HistogramSnapshot task_latency() const {
    return task_hist_.snapshot();
  }

  // Process-wide instance. configure() must run before the first global()
  // call (throws std::logic_error afterwards); worker count 0 means auto.
  static TaskScheduler& global();
  static void configure(Options opts);
  // The calling thread's scheduler when it is one of our workers, else
  // nullptr. Used by nested-submit routing and WaitGroup assist.
  static TaskScheduler* current();

 private:
  struct Task;
  class Deque;
  struct Worker;
  struct Timer;

  friend bool detail::assist_for_wait();

  void worker_main(std::size_t w);
  Task* next_task(std::size_t w);
  Task* pop_shared(Priority prio);
  void push_shared(Task* t, Priority prio);
  Task* try_steal(std::size_t thief);
  void run_task(Task* t, Worker* me);
  void promote_expired_timers();
  void wake_one_locked_check();
  [[nodiscard]] bool have_work_locked(std::size_t w) const;
  [[nodiscard]] std::uint64_t queued_now() const;
  void register_metrics();

  Options opts_;
  Topology topo_;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task*> shared_[3];  // indexed by Priority
  std::vector<Timer> timers_;    // min-heap by deadline
  bool stopping_ = false;

  // Lock-free fast-path peeks (maintained under mu_, read anywhere).
  std::atomic<std::int64_t> shared_count_[3] = {{0}, {0}, {0}};
  std::atomic<std::int64_t> timer_count_{0};
  std::atomic<std::uint64_t> earliest_deadline_ns_{~std::uint64_t{0}};
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<std::uint64_t> next_timer_id_{1};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> assists_{0};
  std::atomic<std::uint64_t> external_executed_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> timers_cancelled_{0};
  std::atomic<std::uint64_t> timers_dropped_{0};
  std::atomic<std::uint64_t> task_exceptions_{0};
  obs::LatencyHistogram task_hist_;  // submit -> completion, ns
  std::vector<obs::MetricsRegistry::Handle> metric_handles_;
};

template <class F>
void TaskScheduler::parallel_for(std::int64_t begin, std::int64_t end,
                                 std::int64_t grain, F&& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const std::int64_t nblocks = (end - begin + grain - 1) / grain;
  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(nblocks), num_workers() + 1);
  if (k <= 1) {
    for (std::int64_t b = begin; b < end; b += grain)
      fn(b, std::min(end, b + grain));
    return;
  }
  std::atomic<std::int64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr err;
  std::mutex err_mu;
  auto body = [&] {
    std::int64_t i = 0;
    while (!failed.load(std::memory_order_relaxed) &&
           (i = next.fetch_add(1, std::memory_order_relaxed)) < nblocks) {
      const std::int64_t b = begin + i * grain;
      try {
        fn(b, std::min(end, b + grain));
      } catch (...) {
        std::lock_guard<std::mutex> g(err_mu);
        if (!err) err = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  WaitGroup wg;
  wg.add(k - 1);
  for (std::size_t t = 1; t < k; ++t)
    submit([&body, &wg] {
      body();
      wg.done();
    });
  body();
  wg.wait();
  if (err) std::rethrow_exception(err);
}

}  // namespace dgap::sched
