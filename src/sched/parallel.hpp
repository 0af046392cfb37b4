// par:: — the kernel execution layer over TaskScheduler, with an OpenMP
// fallback behind -DDGAP_USE_OPENMP.
//
// The only mode-dependent primitive is team(k, fn): run fn(tid, k) on k
// participants (OpenMP: a parallel region; sched: the caller plus k-1
// submitted tasks joined on a WaitGroup). Everything above it — dynamic
// block claiming, reductions, thread-count scoping — is shared code, which
// is what makes the two paths produce bit-identical kernel results:
//
//  * Block boundaries are fixed by (n, grain) alone, never by the
//    participant count or schedule.
//  * reduce_blocks() stores one partial PER BLOCK and combines them
//    sequentially in block order, so floating-point reductions associate
//    identically regardless of mode, thread count, or timing.
//  * team_reduce() combines per-participant partials in tid order — for
//    the integer reductions (BFS scout/awake counts) where associativity
//    is exact anyway.
//
// The kernel thread-count knob (max_threads/set_num_threads) replaces the
// omp_get_max_threads/omp_set_num_threads save-set-restore sites that used
// to be copy-pasted across the bench harness; ScopedKernelThreads is the
// RAII form, and in OpenMP builds the knob is mirrored into the OpenMP
// runtime so legacy omp code keeps agreeing with it.
#pragma once

#include <algorithm>
#include <memory>
#include <atomic>
#include <bit>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/sched/task_scheduler.hpp"

#ifdef DGAP_USE_OPENMP
#include <omp.h>
#endif

namespace dgap::par {

enum class Mode : std::uint8_t { openmp, sched };

namespace detail {

inline std::atomic<int>& thread_knob() {
  static std::atomic<int> v{0};  // 0 = unset: fall back to the runtime
  return v;
}

inline std::atomic<Mode>& mode_knob() {
#ifdef DGAP_USE_OPENMP
  static std::atomic<Mode> m{Mode::openmp};
#else
  static std::atomic<Mode> m{Mode::sched};
#endif
  return m;
}

}  // namespace detail

[[nodiscard]] inline Mode kernel_mode() {
  return detail::mode_knob().load(std::memory_order_relaxed);
}

inline void set_kernel_mode(Mode m) {
#ifndef DGAP_USE_OPENMP
  if (m == Mode::openmp)
    throw std::logic_error(
        "par::set_kernel_mode: OpenMP path not compiled in "
        "(build with -DDGAP_USE_OPENMP=ON)");
#endif
  detail::mode_knob().store(m, std::memory_order_relaxed);
}

[[nodiscard]] inline int max_threads() {
  const int v = detail::thread_knob().load(std::memory_order_relaxed);
  if (v > 0) return v;
#ifdef DGAP_USE_OPENMP
  if (kernel_mode() == Mode::openmp) return omp_get_max_threads();
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

inline void set_num_threads(int n) {
  if (n < 1) n = 1;
  detail::thread_knob().store(n, std::memory_order_relaxed);
#ifdef DGAP_USE_OPENMP
  // Keep the OpenMP runtime in agreement so any omp region not yet routed
  // through team() sees the same width.
  omp_set_num_threads(n);
#endif
}

// RAII save-set-restore for the kernel thread count — the one helper that
// replaces the copy-pasted omp_get_max_threads()/omp_set_num_threads(saved)
// pattern the bench harness used at every timed-kernel site.
class ScopedKernelThreads {
 public:
  explicit ScopedKernelThreads(int n) : saved_(max_threads()) {
    set_num_threads(n);
  }
  ~ScopedKernelThreads() { set_num_threads(saved_); }
  ScopedKernelThreads(const ScopedKernelThreads&) = delete;
  ScopedKernelThreads& operator=(const ScopedKernelThreads&) = delete;

 private:
  int saved_;
};

// Dynamic claimer over [0, n) in grain-sized blocks with fixed boundaries:
// block i is [i*grain, min((i+1)*grain, n)) no matter who claims it.
class BlockSource {
 public:
  BlockSource(std::int64_t n, std::int64_t grain)
      : n_(n < 0 ? 0 : n), grain_(grain < 1 ? 1 : grain) {}

  bool next(std::int64_t& b, std::int64_t& e) {
    std::int64_t idx = 0;
    return next(b, e, idx);
  }

  bool next(std::int64_t& b, std::int64_t& e, std::int64_t& idx) {
    const std::int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    b = i * grain_;
    if (b >= n_) return false;
    e = std::min(n_, b + grain_);
    idx = i;
    return true;
  }

  [[nodiscard]] std::int64_t num_blocks() const {
    return grain_ == 0 ? 0 : (n_ + grain_ - 1) / grain_;
  }

 private:
  const std::int64_t n_;
  const std::int64_t grain_;
  std::atomic<std::int64_t> next_{0};
};

// Cooperative yield point for long sched-mode loops: run one pending
// high-priority task (an absorber batch) between blocks so
// ingest latency survives kernels that occupy every worker. No-op in
// OpenMP mode and O(one relaxed load) when nothing is pending.
inline void assist_point() {
  if (kernel_mode() == Mode::sched) sched::TaskScheduler::global().assist();
}

// Run fn(tid, k) on k participants (clamped to [1, max_threads()]).
// k == 1 short-circuits to a plain call in BOTH modes — the baseline the
// bit-identity tests compare against is genuinely sequential.
template <class F>
void team(int k, F&& fn) {
  k = std::max(1, std::min(k, max_threads()));
  if (k == 1) {
    fn(0, 1);
    return;
  }
#ifdef DGAP_USE_OPENMP
  if (kernel_mode() == Mode::openmp) {
#pragma omp parallel num_threads(k)
    fn(omp_get_thread_num(), k);
    return;
  }
#endif
  auto& s = sched::TaskScheduler::global();
  sched::WaitGroup wg;
  std::exception_ptr err;
  std::mutex err_mu;
  wg.add(static_cast<std::size_t>(k - 1));
  for (int t = 1; t < k; ++t) {
    s.submit([&fn, &wg, &err, &err_mu, t, k] {
      try {
        fn(t, k);
      } catch (...) {
        std::lock_guard<std::mutex> g(err_mu);
        if (!err) err = std::current_exception();
      }
      wg.done();
    });
  }
  try {
    fn(0, k);
  } catch (...) {
    std::lock_guard<std::mutex> g(err_mu);
    if (!err) err = std::current_exception();
  }
  wg.wait();
  if (err) std::rethrow_exception(err);
}

// fn(b, e) once per block, blocks claimed dynamically by up to
// max_threads() participants. Replaces `omp parallel for schedule(dynamic|
// static, grain)` loops with no reduction.
template <class F>
void for_blocks(std::int64_t n, std::int64_t grain, F&& fn) {
  if (n <= 0) return;
  BlockSource src(n, grain);
  const int k = static_cast<int>(
      std::min<std::int64_t>(max_threads(), src.num_blocks()));
  team(k, [&](int, int) {
    std::int64_t b = 0;
    std::int64_t e = 0;
    while (src.next(b, e)) {
      fn(b, e);
      assist_point();
    }
  });
}

// Deterministic reduction: fn(b, e) -> partial for that block; partials
// are combined with comb IN BLOCK ORDER on the caller, so floating-point
// results are identical across modes AND thread counts. init must be the
// identity of comb.
template <class T, class BlockFn, class Comb>
T reduce_blocks(std::int64_t n, std::int64_t grain, T init, BlockFn&& fn,
                Comb&& comb) {
  if (n <= 0) return init;
  BlockSource src(n, grain);
  const std::int64_t nb = src.num_blocks();
  // Plain array, not std::vector<T>: vector<bool> packs bits, which would
  // turn concurrent per-block writes into a data race.
  std::unique_ptr<T[]> parts(new T[static_cast<std::size_t>(nb)]);
  for (std::int64_t i = 0; i < nb; ++i) parts[i] = init;
  const int k = static_cast<int>(std::min<std::int64_t>(max_threads(), nb));
  team(k, [&](int, int) {
    std::int64_t b = 0;
    std::int64_t e = 0;
    std::int64_t i = 0;
    while (src.next(b, e, i)) {
      parts[static_cast<std::size_t>(i)] = fn(b, e);
      assist_point();
    }
  });
  T acc = std::move(init);
  for (std::int64_t i = 0; i < nb; ++i) acc = comb(acc, parts[i]);
  return acc;
}

// Team-scoped reduction for loops that need per-participant state (BFS's
// QueueBuffer regions): body(tid, src) drains the shared BlockSource and
// returns a partial; partials combine in tid order. Use only where comb is
// exactly associative (integers) — per-participant partials depend on
// which blocks each tid claimed.
template <class T, class Body, class Comb>
T team_reduce(std::int64_t n, std::int64_t grain, T init, Body&& body,
              Comb&& comb) {
  if (n <= 0) return init;
  BlockSource src(n, grain);
  const int k = static_cast<int>(
      std::min<std::int64_t>(max_threads(), src.num_blocks()));
  std::vector<T> parts(static_cast<std::size_t>(std::max(k, 1)), init);
  team(k, [&](int tid, int) {
    parts[static_cast<std::size_t>(tid)] = body(tid, src);
  });
  T acc = std::move(init);
  for (T& p : parts) acc = comb(acc, p);
  return acc;
}

// Lock-free add on a shared double — the mode-neutral replacement for
// `#pragma omp atomic`. CAS loop over the bit pattern, relaxed: callers
// (BC's delta accumulation) publish via the joins around the loop, and the
// sum's operand order is schedule-dependent either way.
inline void atomic_add(double& target, double v) {
  auto* bits = reinterpret_cast<std::uint64_t*>(&target);
  std::uint64_t observed = __atomic_load_n(bits, __ATOMIC_RELAXED);
  for (;;) {
    const std::uint64_t want =
        std::bit_cast<std::uint64_t>(std::bit_cast<double>(observed) + v);
    if (__atomic_compare_exchange_n(bits, &observed, want, true,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return;
  }
}

}  // namespace dgap::par
