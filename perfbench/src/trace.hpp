// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into the library in a Span named
// "<layer>.<call>", so per-layer time can be read without touching the
// library. Spans are appended to per-thread buffers (no locking on the hot
// path) and kept until the run ends; the benchmark then aggregates self time
// per layer and writes the dump.
//
// Parent links follow the calling thread's open spans; a span opened on a
// worker thread names its cross-thread parent explicitly. Self time is a
// span's duration minus the durations of its same-thread children.
//
// When tracing is off, Span construction is one relaxed load and a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;   // static string "<layer>.<call>"
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t group;   // round / chunk / trial id the span belongs to
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t tid;
  std::uint32_t weight;  // >1 when the span stands for `weight` sampled calls
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Allocate an id and push it on this thread's open-span stack.
  std::uint64_t open(std::uint64_t explicit_parent, std::uint64_t& parent_out);
  [[nodiscard]] std::uint64_t innermost();
  void close(const SpanRecord& rec);

  // Every span recorded so far, across threads (call after workers joined).
  [[nodiscard]] std::vector<SpanRecord> collect() const;
  [[nodiscard]] std::size_t count() const;

  // Weighted self time per layer (the name prefix before the first '.'),
  // in seconds, over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  // chrome://tracing JSON ("X" events; args carry id/parent/group/weight).
  // Writes at most `max_spans` spans; the file records how many it dropped.
  bool dump(const std::string& path, std::size_t max_spans) const;

  struct Buffer;  // one per recording thread, owned for the process lifetime

 private:
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint32_t> next_tid_{1};
};

// RAII span. `parent` = 0 links to the calling thread's innermost open
// span; pass an id to link across threads.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t group = 0,
                std::uint64_t parent = 0, std::uint32_t weight = 1)
      : on_(Tracer::get().enabled()) {
    if (!on_) return;
    rec_.name = name;
    rec_.group = group;
    rec_.weight = weight;
    rec_.id = Tracer::get().open(parent, rec_.parent);
    rec_.start_ns = now();
  }
  ~Span() {
    if (!on_) return;
    rec_.end_ns = now();
    Tracer::get().close(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return on_ ? rec_.id : 0; }
  // Innermost open span of the calling thread (0 when none or off): the
  // explicit parent for spans a helper thread opens on its behalf.
  static std::uint64_t current_id();

 private:
  static std::uint64_t now();
  bool on_;
  SpanRecord rec_{};
};

}  // namespace perfbench
