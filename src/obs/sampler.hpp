// Exporters over the MetricsRegistry.
//
// MetricsSampler: background thread that snapshots every registered metric
// at a fixed interval and appends one JSON object per line to a file —
// a time series you can post-process with jq or load into a notebook.
// Stops (and writes one final sample) on stop() or destruction, so short
// runs still produce at least one line; sample_now() adds one on demand.
//
// write_prometheus: one-shot Prometheus text-exposition dump of the
// current registry state (counters/gauges plus quantile-labeled summary
// lines for histograms).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

namespace dgap::obs {

class MetricsSampler {
 public:
  // Opens `path` for writing and starts sampling every `interval_ms`
  // (must be > 0). Throws std::runtime_error if the file cannot be opened.
  explicit MetricsSampler(const std::string& path,
                          std::uint64_t interval_ms = 500);
  ~MetricsSampler();
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  // Joins the sampling thread after emitting one final sample and flushes
  // the file. Idempotent; the destructor calls it.
  void stop();

  // Writes one sample from the calling thread, now — for metrics that are
  // registered only for a moment (a store that is destroyed before the
  // next tick or the final sample).
  void sample_now() { write_sample(); }

  std::uint64_t samples_written() const {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void write_sample();

  std::ofstream out_;
  std::uint64_t interval_ms_;
  std::uint64_t t_start_ns_;
  std::atomic<std::uint64_t> samples_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

// Prometheus text exposition of the current registry state. Metric names
// are sanitized to [a-zA-Z0-9_:]; histograms emit `<name>{quantile="..."}`
// summary lines plus `<name>_count` / `<name>_sum`.
void write_prometheus(std::ostream& out);

}  // namespace dgap::obs
