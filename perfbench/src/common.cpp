#include "perfbench/src/common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/graph/datasets.hpp"
#include "src/graph/generators.hpp"
#include "src/pmem/latency_model.hpp"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

void progress(const std::string& what) {
  std::fprintf(stderr, "[%7.2fs] %s\n", seconds_since(kProcessStart),
               what.c_str());
}

const std::vector<std::string>& checks_of(const std::string& workload) {
  static const std::map<std::string, std::vector<std::string>> checks = {
      {"ingest", {"reopen"}},
      {"analyze", {"pr", "cc", "bfs", "bc"}},
      {"overflow", {"pr", "cc"}},
      {"htap", {"cut", "incr_pr", "incr_cc"}},
  };
  static const std::vector<std::string> none;
  const auto it = checks.find(workload);
  return it == checks.end() ? none : it->second;
}

int host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void configure_media_model() {
  dgap::pmem::LatencyConfig lc;  // Optane write model, library defaults
  lc.enabled = true;
  lc.read_ns_per_line = kReadNsPerLine;
  dgap::pmem::latency_model().configure(lc);
}

void uncharge_reads() {
  dgap::pmem::LatencyConfig lc = dgap::pmem::latency_model().config();
  lc.read_ns_per_line = 0;
  dgap::pmem::latency_model().configure(lc);
}

dgap::core::DgapOptions store_options(dgap::NodeId vertices,
                                      std::uint64_t edges, int writers) {
  dgap::core::DgapOptions o;
  if (vertices > 0) o.init_vertices = vertices;
  if (edges > 0) o.init_edges = edges;
  o.max_writer_threads =
      std::max<std::uint32_t>(o.max_writer_threads,
                              static_cast<std::uint32_t>(writers));
  return o;
}

dgap::EdgeStream generate_stream(const std::string& dataset, double scale,
                                 std::uint64_t seed) {
  const dgap::DatasetSpec& spec = dgap::dataset_spec(dataset);
  const auto vertices = std::max<dgap::NodeId>(
      16, static_cast<dgap::NodeId>(spec.base_vertices * scale));
  const auto undirected = std::max<std::uint64_t>(
      16, static_cast<std::uint64_t>(spec.base_edges * scale) / 2);
  const dgap::RmatParams params{spec.rmat_a, (1.0 - spec.rmat_a) / 3,
                                (1.0 - spec.rmat_a) / 3};
  dgap::EdgeStream stream = dgap::symmetrize(
      dgap::generate_rmat(vertices, undirected, mix_seed(seed, 1), params));
  stream.shuffle(mix_seed(seed, 2));
  // Count only ids that occur, so the store and the CSR oracle agree on |V|.
  const dgap::NodeId used = stream.max_vertex_bound();
  return dgap::EdgeStream(used, std::move(stream.edges()));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::size_t LatencyHist::bucket(std::uint64_t ns) {
  if (ns < kLinear) return static_cast<std::size_t>(ns);
  const int e = std::bit_width(ns) - 1;  // >= 10
  const std::uint64_t sub = (ns >> (e - kSubBits)) & ((1u << kSubBits) - 1);
  return kLinear + static_cast<std::size_t>(e - 10) * (1u << kSubBits) + sub;
}

void LatencyHist::merge(const LatencyHist& o) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
}

double LatencyHist::percentile_ns(double q) const {
  if (total_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
  double cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= rank) {
      double lo = static_cast<double>(i);
      double width = 1;
      if (i >= kLinear) {
        const std::size_t k = i - kLinear;
        const int e = static_cast<int>(k >> kSubBits) + 10;
        const std::uint64_t sub = k & ((1u << kSubBits) - 1);
        lo = static_cast<double>(((1ull << kSubBits) + sub) << (e - kSubBits));
        width = static_cast<double>(1ull << (e - kSubBits));
      }
      return lo + width * (rank - cum) / static_cast<double>(counts_[i]);
    }
    cum = next;
  }
  return 0.0;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_tail", "ms"},
      {"throughput_meps", "Medges/s"},
  };
  return m;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = {
      // pmem: flush/fence traffic of the measured phase, per edge written
      {"pmem.flush_lines_per_edge", "lines/edge"},
      {"pmem.fences_per_edge", "fences/edge"},
      {"pmem.xpline_misses_per_edge", "count/edge"},
      {"pmem.inplace_flushes_per_edge", "count/edge"},
      {"pmem.write_amp", "x"},
      // core / pma write path
      {"core.elog_frac", "frac"},
      {"core.rebalances", "count"},
      {"core.rebalance_ms", "ms"},
      {"pma.rebalance_us_p99", "us"},
      {"core.resizes", "count"},
      {"core.resize_ms", "ms"},
      {"core.recover_s", "s"},
      {"core.preload_insert_batch_s", "s"},
      // input generation
      {"graph.generate_s", "s"},
      // async ingest
      {"ingest.submit_us_p99", "us"},
      {"ingest.stalls", "count"},
      {"ingest.absorb_batch_edges", "edges"},
      {"ingest.absorb_us_p50", "us"},
      {"ingest.absorb_us_p99", "us"},
      {"ingest.gen_late_ms_max", "ms"},
      {"ingest.ack_ms_p99", "ms"},
      {"ingest.visible_ms_p99", "ms"},
      // core snapshot
      {"snapshot.capture_us_p50", "us"},
      {"snapshot.capture_us_p99", "us"},
      {"snapshot.freeze_us_p99", "us"},
      {"snapshot.delta_ms_p50", "ms"},
      {"snapshot.delta_edges", "edges"},
      {"snapshot.delta_fallbacks", "count"},
      {"snapshot.read_retries", "count"},
      // algorithms
      {"algorithms.pr_s", "s"},
      {"algorithms.cc_s", "s"},
      {"algorithms.bfs_s", "s"},
      {"algorithms.bc_s", "s"},
      {"algorithms.pr_csr_s", "s"},
      {"algorithms.cc_csr_s", "s"},
      {"algorithms.bfs_csr_s", "s"},
      {"algorithms.bc_csr_s", "s"},
      {"algorithms.pr_vs_csr", "x"},
      {"algorithms.cc_vs_csr", "x"},
      {"algorithms.bfs_vs_csr", "x"},
      {"algorithms.bc_vs_csr", "x"},
      {"algorithms.incr_round_ms_p50", "ms"},
      {"algorithms.incr_round_ms_p99", "ms"},
      {"algorithms.incr_apply_ms", "ms"},
      {"algorithms.incr_pr_ms", "ms"},
      {"algorithms.incr_cc_ms", "ms"},
      {"algorithms.incr_fallbacks", "count"},
      // sched
      {"sched.tasks", "count"},
      {"sched.steals", "count"},
      {"sched.assists", "count"},
      {"sched.task_us_p99", "us"},
      // tier
      {"tier.cache_hit_frac", "frac"},
      {"tier.cache_populates", "count"},
      {"tier.cache_evictions", "count"},
      {"tier.cache_admit_rejects", "count"},
      {"tier.cold_reads", "count"},
      {"tier.cold_read_mb", "MB"},
      {"tier.cold_promotions", "count"},
      {"tier.cold_demotions", "count"},
      {"tier.cold_read_retries", "count"},
      {"tier.enforce_budget_s", "s"},
      // self time per layer over the traced phase (span duration minus
      // same-thread children), summed across threads
      {"self.bench_s", "s"},
      {"self.graph_s", "s"},
      {"self.core_s", "s"},
      {"self.snapshot_s", "s"},
      {"self.ingest_s", "s"},
      {"self.algorithms_s", "s"},
      {"self.tier_s", "s"},
      {"trace.spans", "count"},
      // sample counts behind the untraced half's figures, per process
      {"samples.latency", "count"},
      {"samples.rounds", "count"},
      {"samples.visible", "count"},
      // traced minus untraced value of each end-to-end metric
      {"overhead.setup_s", "s"},
      {"overhead.peak_rss_mb", "MB"},
      {"overhead.latency_ms_p50", "ms"},
      {"overhead.latency_ms_tail", "ms"},
      {"overhead.throughput_meps", "Medges/s"},
  };
  return m;
}

std::string format_record(const Record& r, bool trace) {
  std::ostringstream os;
  os.precision(15);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(r.attempted, 1)
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end())
      throw std::logic_error(std::string("metric not produced: ") + d.name);
    if (!std::isfinite(it->second))
      throw std::logic_error(std::string("metric not finite: ") + d.name);
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << it->second << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
