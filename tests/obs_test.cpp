// Tests for the observability layer (src/obs): histogram bucket math and
// percentiles against a sorted oracle, multi-threaded record/merge
// equivalence, registry register/visit/unregister, trace-ring wraparound
// and torn-slot skipping, sampler lifecycle (on-demand samples too), and
// the ScopedLatency overhead guard.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/timer.hpp"
#include "src/obs/latency_histogram.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/scoped_latency.hpp"
#include "src/obs/trace_ring.hpp"

namespace dgap::obs {
namespace {

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid())))
      .string();
}

// Deterministic pseudo-random 64-bit stream (splitmix64).
std::uint64_t mix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(LatencyHistogramTest, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::bucket_for(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_for(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_for(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_for(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_for(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_for(7), 3);
  EXPECT_EQ(LatencyHistogram::bucket_for(8), 4);
  EXPECT_EQ(LatencyHistogram::bucket_for((1ull << 62) - 1), 62);
  EXPECT_EQ(LatencyHistogram::bucket_for(1ull << 62), 63);
  EXPECT_EQ(LatencyHistogram::bucket_for(~0ull), 63);
}

TEST(LatencyHistogramTest, EmptyAndSingleValue) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.snapshot().mean(), 0.0);
  h.record(1000);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 1000u);
  // 1000 lives in [512, 1024); every percentile must land in that bucket.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(s.percentile(q), 512.0) << q;
    EXPECT_LE(s.percentile(q), 1024.0) << q;
  }
}

TEST(LatencyHistogramTest, PercentilesMatchSortedOracle) {
  LatencyHistogram h;
  std::vector<std::uint64_t> values;
  std::uint64_t seed = 42;
  for (int i = 0; i < 20000; ++i) {
    // Skewed latency-like distribution spanning ~10 buckets.
    const std::uint64_t v = 100 + (mix(seed) % (1ull << (8 + i % 10)));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, values.size());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::size_t rank = std::min(
        values.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(values.size())));
    const double oracle = static_cast<double>(values[rank]);
    const double est = s.percentile(q);
    // Log-bucketed estimate: correct up to one power-of-two bucket.
    EXPECT_GE(est, oracle / 2.01) << "q=" << q;
    EXPECT_LE(est, oracle * 2.01) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, ConcurrentRecordMatchesPerThreadMerge) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  LatencyHistogram shared;
  std::vector<std::unique_ptr<LatencyHistogram>> locals;
  for (int t = 0; t < kThreads; ++t)
    locals.push_back(std::make_unique<LatencyHistogram>());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t seed = 1000 + static_cast<std::uint64_t>(t);
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t v = mix(seed) % 1000000;
        shared.record(v);
        locals[static_cast<std::size_t>(t)]->record(v);
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot merged;
  for (const auto& l : locals) merged += l->snapshot();
  const HistogramSnapshot s = shared.snapshot();
  EXPECT_EQ(s.count, merged.count);
  EXPECT_EQ(s.sum, merged.sum);
  EXPECT_EQ(s.counts, merged.counts);
}

TEST(LatencyHistogramTest, SnapshotDeltaIsolatesARound) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(100);
  const HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(5000);
  const HistogramSnapshot delta = h.snapshot() - before;
  EXPECT_EQ(delta.count, 50u);
  EXPECT_EQ(delta.sum, 50u * 5000u);
  // The delta sees only the 5000ns samples: p50 in [4096, 8192).
  EXPECT_GE(delta.percentile(0.5), 4096.0);
  EXPECT_LE(delta.percentile(0.5), 8192.0);
}

TEST(MetricsRegistryTest, RegisterVisitUnregister) {
  auto reg = std::make_unique<MetricsRegistry>();
  double counter_cell = 7;
  LatencyHistogram h;
  h.record(123);
  auto hc = reg->add_counter("test_counter", [&] { return counter_cell; });
  auto hg = reg->add_gauge("test_gauge", [] { return 3.5; });
  auto hh = reg->add_histogram("test_hist", [&] { return h.snapshot(); });
  EXPECT_EQ(reg->live_count(), 3u);

  std::vector<std::string> names;
  double counter_seen = 0;
  std::uint64_t hist_count = 0;
  reg->visit([&](const std::string& name, MetricKind kind, const ValueFn& v,
                 const HistFn& hf) {
    names.push_back(name);
    if (kind == MetricKind::counter) counter_seen = v();
    if (kind == MetricKind::histogram) hist_count = hf().count;
  });
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "test_counter");
  EXPECT_EQ(counter_seen, 7.0);
  EXPECT_EQ(hist_count, 1u);

  hg.reset();
  EXPECT_FALSE(hg.active());
  EXPECT_EQ(reg->live_count(), 2u);
  names.clear();
  reg->visit([&](const std::string& name, MetricKind, const ValueFn&,
                 const HistFn&) { names.push_back(name); });
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(std::find(names.begin(), names.end(), "test_gauge") ==
              names.end());

  // A freed slot is reusable.
  auto hg2 = reg->add_gauge("test_gauge2", [] { return 1.0; });
  EXPECT_EQ(reg->live_count(), 3u);
}

TEST(MetricsRegistryTest, OverflowDegradesToInactiveHandles) {
  auto reg = std::make_unique<MetricsRegistry>();
  std::vector<MetricsRegistry::Handle> handles;
  for (std::size_t i = 0; i < MetricsRegistry::kCapacity; ++i)
    handles.push_back(
        reg->add_counter("c" + std::to_string(i), [] { return 0.0; }));
  EXPECT_EQ(reg->live_count(), MetricsRegistry::kCapacity);
  EXPECT_EQ(reg->dropped_registrations(), 0u);
  auto overflow = reg->add_counter("one_too_many", [] { return 0.0; });
  EXPECT_FALSE(overflow.active());
  EXPECT_EQ(reg->dropped_registrations(), 1u);
  // Registration works again once a slot frees up.
  handles.pop_back();
  auto again = reg->add_counter("fits_now", [] { return 0.0; });
  EXPECT_TRUE(again.active());
}

TEST(MetricsRegistryTest, GlobalRegistryExportsPmemCounters) {
  bool saw_flush_calls = false;
  registry().visit([&](const std::string& name, MetricKind kind,
                       const ValueFn&, const HistFn&) {
    if (name == "pmem_flush_calls" && kind == MetricKind::counter)
      saw_flush_calls = true;
  });
  EXPECT_TRUE(saw_flush_calls);
}

TEST(TraceRingTest, RecordsAndWrapsKeepingLatest) {
  StructuralTraceRing ring;
  ring.enable(8);
  EXPECT_TRUE(ring.enabled());
  for (std::uint64_t i = 1; i <= 20; ++i)
    ring.record(TraceKind::rebalance, /*t0_ns=*/i * 1000, /*dur_ns=*/10, i,
                i + 1);
  const std::vector<TraceEvent> events = ring.drain_copy();
  ASSERT_EQ(events.size(), 8u);
  // The ring keeps the newest 8 events (13..20), sorted by begin time.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t0_ns, (13 + i) * 1000);
    EXPECT_EQ(events[i].a, 13 + i);
  }
  ring.disable();
  EXPECT_FALSE(ring.enabled());
}

TEST(TraceRingTest, DumpsChromeTracingJson) {
  StructuralTraceRing ring;
  ring.enable(16);
  ring.record(TraceKind::resize, 5000, 2000, 1024, 2048);
  ring.record(TraceKind::epoch_close, 9000, 0, 7);
  std::ostringstream out;
  ring.dump_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"resize\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_close\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceRingTest, GlobalHelpersNoOpWhileDisabled) {
  ASSERT_FALSE(structural_trace().enabled());
#ifndef DGAP_OBS_OFF
  EXPECT_EQ(trace_begin(), 0u);  // no clock read while disabled
#endif
  trace_end(TraceKind::rebalance, 0, 1, 2);    // dropped: t0 == 0
  trace_instant(TraceKind::epoch_close, 1);    // dropped: ring disabled
  EXPECT_TRUE(structural_trace().drain_copy().empty());
}

TEST(ScopedLatencyTest, RecordsOncePerScopeAndStaysCheap) {
  LatencyHistogram h;
  constexpr int kIters = 100000;
  Timer t;
  for (int i = 0; i < kIters; ++i) {
    const ScopedLatency lat(&h);
  }
  const double total_s = t.seconds();
#ifdef DGAP_OBS_OFF
  EXPECT_EQ(h.snapshot().count, 0u);
#else
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(kIters));
#endif
  // Overhead guard: two clock reads + one record per scope. 5us/scope is
  // ~50x the expected cost — loose enough for loaded CI, tight enough to
  // catch a syscall-per-sample regression.
  EXPECT_LT(total_s / kIters, 5e-6);
}

TEST(ScopedLatencyTest, NullHistogramIsANoOp) {
  { const ScopedLatency lat(nullptr); }  // must not crash or record
}

TEST(MetricsSamplerTest, WritesParseableJsonLinesAndFinalSample) {
  const std::string path = temp_path("dgap_obs_sampler");
  LatencyHistogram h;
  h.record(500);
  auto handle =
      registry().add_histogram("sampler_test_hist", [&] { return h.snapshot(); });
  {
    MetricsSampler sampler(path, /*interval_ms=*/5);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    sampler.stop();
    EXPECT_GE(sampler.samples_written(), 1u);
    sampler.stop();  // idempotent
  }
  handle.reset();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"t_ms\""), std::string::npos);
    EXPECT_NE(line.find("sampler_test_hist"), std::string::npos);
  }
  EXPECT_GE(lines, 1);
  std::filesystem::remove(path);
}

TEST(MetricsSamplerTest, FlushesOnDestruction) {
  const std::string path = temp_path("dgap_obs_sampler_dtor");
  {
    // Long interval: the thread never fires on its own; the destructor's
    // stop() must still emit the final sample.
    MetricsSampler sampler(path, /*interval_ms=*/60000);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  EXPECT_EQ(line.front(), '{');
  std::filesystem::remove(path);
}

TEST(MetricsSamplerTest, SampleNowCapturesShortLivedMetric) {
  const std::string path = temp_path("dgap_obs_sampler_now");
  {
    // Long interval: only sample_now() can see the counter, which is gone
    // again before the final sample.
    MetricsSampler sampler(path, /*interval_ms=*/60000);
    {
      auto handle = registry().add_counter("sampler_test_brief",
                                           [] { return 7.0; });
      sampler.sample_now();
    }
    EXPECT_EQ(sampler.samples_written(), 1u);
  }
  std::ifstream in(path);
  std::string first, last;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, first)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, last)));
  EXPECT_NE(first.find("\"sampler_test_brief\":7"), std::string::npos);
  EXPECT_EQ(last.find("sampler_test_brief"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(MetricsSamplerTest, RejectsUnwritablePath) {
  EXPECT_THROW(
      MetricsSampler("/nonexistent_dir_dgap_obs/metrics.jsonl", 100),
      std::runtime_error);
}

TEST(PrometheusTest, DumpsTypedMetricsWithQuantiles) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1000 + i);
  auto handle =
      registry().add_histogram("prom_test_hist", [&] { return h.snapshot(); });
  auto gauge = registry().add_gauge("prom_test_gauge", [] { return 2.5; });
  std::ostringstream out;
  write_prometheus(out);
  const std::string text = out.str();
  handle.reset();
  gauge.reset();
  EXPECT_NE(text.find("# TYPE prom_test_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("prom_test_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_test_hist summary"), std::string::npos);
  EXPECT_NE(text.find("prom_test_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("prom_test_hist_count 100"), std::string::npos);
}

}  // namespace
}  // namespace dgap::obs
