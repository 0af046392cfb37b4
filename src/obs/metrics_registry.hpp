// MetricsRegistry: process-wide registry of named counters, gauges, and
// latency histograms.
//
// Metrics are registered as *readers* over cells the subsystems already
// maintain (StatCell counters, PmemStats atomics, LatencyHistogram objects)
// — the registry never duplicates a hot-path cell, so instrumented code
// keeps its existing relaxed-atomic writes and the registry only pays at
// sampling time. Registration is lock-free (CAS slot claim over a fixed
// slot array); visit and unregister serialize on a small mutex so a
// sampler thread never reads a slot whose owner is mid-destruction.
//
// Ownership: registration returns a movable RAII Handle that unregisters
// on destruction. Objects that register readers over their own members
// (DgapStore, AsyncIngestor, SectionCache) hold their handles as members,
// so the reader callbacks can never outlive the cells they read.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "src/obs/latency_histogram.hpp"

namespace dgap::obs {

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

// Readers. ValueFn for counters/gauges, HistFn for histograms; the
// histogram reader returns a plain-value snapshot, not a pointer, so an
// exporter never aliases a histogram that is still recording.
using ValueFn = std::function<double()>;
using HistFn = std::function<HistogramSnapshot()>;

class MetricsRegistry {
 public:
  // Upper bound on live metrics: a store registers a dozen entries (more
  // with the tiers on), and benches keep several stores plus ingestors
  // alive at once, so leave generous room.
  static constexpr std::size_t kCapacity = 4096;

  class Handle {
   public:
    Handle() = default;
    Handle(MetricsRegistry* reg, std::size_t slot) : reg_(reg), slot_(slot) {}
    Handle(Handle&& o) noexcept { *this = std::move(o); }
    Handle& operator=(Handle&& o) noexcept {
      reset();
      reg_ = o.reg_;
      slot_ = o.slot_;
      o.reg_ = nullptr;
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { reset(); }

    bool active() const { return reg_ != nullptr; }
    void reset() {
      if (reg_ != nullptr) reg_->unregister_slot(slot_);
      reg_ = nullptr;
    }

   private:
    MetricsRegistry* reg_ = nullptr;
    std::size_t slot_ = 0;
  };

  // Register a named reader. Returns an inactive handle (and bumps
  // dropped_registrations) if the table is full — callers degrade to
  // unobserved rather than failing.
  Handle add_counter(std::string name, ValueFn fn) {
    return add(std::move(name), MetricKind::counter, std::move(fn), {});
  }
  Handle add_gauge(std::string name, ValueFn fn) {
    return add(std::move(name), MetricKind::gauge, std::move(fn), {});
  }
  Handle add_histogram(std::string name, HistFn fn) {
    return add(std::move(name), MetricKind::histogram, {}, std::move(fn));
  }

  // Invoke fn(name, kind, value_fn, hist_fn) for every live metric, in
  // registration-slot order, under the visit lock. Exactly one of
  // value_fn/hist_fn is callable depending on kind.
  void visit(const std::function<void(const std::string&, MetricKind,
                                      const ValueFn&, const HistFn&)>& fn);

  std::uint64_t dropped_registrations() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t live_count() const;

 private:
  friend class Handle;

  // Slot lifecycle: kFree -CAS-> kClaiming (writer fills fields)
  // -store-> kLive; unregister takes visit_mu_ then returns it to kFree.
  enum : std::uint8_t { kFree = 0, kClaiming = 1, kLive = 2 };

  struct Slot {
    std::atomic<std::uint8_t> state{kFree};
    std::string name;
    MetricKind kind = MetricKind::counter;
    ValueFn value;
    HistFn hist;
  };

  Handle add(std::string name, MetricKind kind, ValueFn value, HistFn hist);
  void unregister_slot(std::size_t slot);

  std::array<Slot, kCapacity> slots_;
  std::atomic<std::size_t> scan_hint_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex visit_mu_;
};

// The process-wide registry. First call also registers the global
// pmem::stats() flush/fence counters so every exporter sees them.
MetricsRegistry& registry();

}  // namespace dgap::obs
