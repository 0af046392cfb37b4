// Shared pieces of the perfbench binary: the fixed store configuration,
// run arguments, sample statistics, the metric catalogue and the result
// record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/options.hpp"
#include "src/graph/edge_stream.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Input sizes: `full` is what the recorded benchmark runs, `tiny` is the
// smoke size the benchmark's own tests use.
enum class Size { full, tiny };

// The oracle checks of each workload, by the name --inject takes.
const std::vector<std::string>& checks_of(const std::string& workload);

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Traced runs: measure the traced half before the untraced one. run.py
  // alternates it across processes so order effects cancel in the median.
  bool traced_first = false;
  Size size = Size::full;
  // One check (a name from checks_of) whose oracle is corrupted on purpose,
  // so tests can prove that check fires; empty = none.
  std::string inject;
  std::string spans_out;    // span dump path (traced runs); empty = none
  std::string scratch_dir;  // where the overflow workload's SSD file lives
};

// --- fixed configuration (documented in perfbench/README.md) --------------

// Busy threads: writers (ingest), kernel width (analyze, overflow) and the
// absorber + kernel split (htap) all derive from this.
int host_threads();

// Optane write model at the library defaults plus the read charge the
// harness uses for read-path comparisons (60 ns per 64 B line).
inline constexpr std::uint64_t kReadNsPerLine = 60;
void configure_media_model();
// Drop the read charge for verification work done after measurement.
void uncharge_reads();

// Paper-default store options: only the size estimates and the writer
// slot count are set; every other knob stays at its library default.
dgap::core::DgapOptions store_options(dgap::NodeId vertices,
                                      std::uint64_t edges, int writers);

// Deterministic inputs: an RMAT stream shaped like the named paper dataset
// (its skew and |E|/|V|), scaled, symmetrized and shuffled from `seed`.
// num_vertices() is one past the highest id that occurs.
dgap::EdgeStream generate_stream(const std::string& dataset, double scale,
                                 std::uint64_t seed);

// Mix a run seed with a purpose tag so independent draws stay independent.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  z *= 0x94D049BB133111EBull;
  return z ^ (z >> 29);
}

// One progress line on stderr, stamped with seconds since process start.
void progress(const std::string& what);

// --- sample statistics ------------------------------------------------------

// Nearest-rank-with-interpolation percentile (q in [0,1]); 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

// Fixed-memory latency histogram over nanoseconds: exact below 1024 ns,
// then 128 sub-buckets per power of two (under 1% relative error). Its
// size does not grow with the sample count, so a faster build that records
// more calls does not raise peak RSS.
class LatencyHist {
 public:
  void record(std::uint64_t ns) { ++counts_[bucket(ns)]; ++total_; }
  void merge(const LatencyHist& o);
  // Interpolated within the bucket holding rank q * count; 0 when empty.
  [[nodiscard]] double percentile_ns(double q) const;
  [[nodiscard]] std::uint64_t count() const { return total_; }

 private:
  static constexpr std::size_t kLinear = 1024;
  static constexpr int kSubBits = 7;
  static std::size_t bucket(std::uint64_t ns);
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(kLinear + (64 - 10) * (1u << kSubBits), 0);
  std::uint64_t total_ = 0;
};

// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

// --- metric catalogue -------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Untraced runs print exactly these.
const std::vector<MetricDef>& end_to_end_metrics();
// Traced runs print exactly these.
const std::vector<MetricDef>& per_layer_metrics();

// What one run produced. `metrics` may hold more than a mode prints; the
// printer emits exactly the catalogue of the run's mode and fails on a
// missing name.
struct Record {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;  // one line per divergence

  void fail(const std::string& why) {
    correct = false;
    ++failed;
    failures.push_back(why);
  }
};

// The one JSON line run.py reads (last line of stdout).
std::string format_record(const Record& r, bool trace);

}  // namespace perfbench
