// StructuralTraceRing: fixed-size lock-free ring of timestamped structural
// events (rebalance windows, resizes, layout retires, epoch closes, cache
// eviction invalidates, backpressure stalls), dumpable as chrome://tracing
// JSON for timeline inspection.
//
// The ring is disabled by default: record() is a single relaxed bool load
// when off, so instrumented code pays nothing until a bench enables it via
// --trace-out. Events are recorded as completed spans (begin time + dur);
// instants are spans with dur 0. Slots are claimed with a fetch_add head
// and published with a per-slot sequence stamp; the dumper skips slots
// whose stamp changes mid-read (torn by a wrapping writer).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/common/timer.hpp"

namespace dgap::obs {

enum class TraceKind : std::uint8_t {
  rebalance = 0,         // a = first segment of window, b = last segment
  resize = 1,            // a = old num_edges capacity, b = new
  layout_retire = 2,     // a = retired layout epoch
  epoch_close = 3,       // a = newly durable epoch
  evict_invalidate = 4,  // a = section id
  backpressure_stall = 5 // a = queue index, b = edges waiting
};

const char* trace_kind_name(TraceKind k);

struct TraceEvent {
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t tid = 0;
  TraceKind kind = TraceKind::rebalance;
};

class StructuralTraceRing {
 public:
  // Turns recording on with the given ring capacity (events; kept as a
  // power of two is not required). Re-enabling resets the ring.
  void enable(std::size_t capacity = 65536);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(TraceKind kind, std::uint64_t t0_ns, std::uint64_t dur_ns,
              std::uint64_t a = 0, std::uint64_t b = 0);

  // Stable copy of the currently published events, oldest first.
  std::vector<TraceEvent> drain_copy() const;

  // chrome://tracing "traceEvents" JSON (load via about:tracing or Perfetto).
  void dump_chrome_json(std::ostream& out) const;

  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 = empty; odd = being written
    TraceEvent ev;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> head_{0};
  std::vector<Slot> slots_;
};

// Process-wide ring shared by all stores (events carry enough ids to
// tell instances apart; a timeline view wants them interleaved anyway).
StructuralTraceRing& structural_trace();

#ifdef DGAP_OBS_OFF

inline std::uint64_t trace_begin() { return 0; }
inline void trace_end(TraceKind, std::uint64_t, std::uint64_t = 0,
                      std::uint64_t = 0) {}
inline void trace_instant(TraceKind, std::uint64_t = 0, std::uint64_t = 0) {}

#else

// Span helpers: trace_begin() returns 0 (no clock read) while the ring is
// disabled; trace_end() drops the event when handed that 0.
inline std::uint64_t trace_begin() {
  return structural_trace().enabled() ? fast_now_ns() : 0;
}

inline void trace_end(TraceKind kind, std::uint64_t t0, std::uint64_t a = 0,
                      std::uint64_t b = 0) {
  if (t0 == 0) return;
  structural_trace().record(kind, t0, fast_now_ns() - t0, a, b);
}

inline void trace_instant(TraceKind kind, std::uint64_t a = 0,
                          std::uint64_t b = 0) {
  StructuralTraceRing& ring = structural_trace();
  if (ring.enabled()) ring.record(kind, fast_now_ns(), 0, a, b);
}

#endif  // DGAP_OBS_OFF

}  // namespace dgap::obs
