// perfbench: the repository benchmark. One workload per invocation; the
// last line of stdout is the JSON record, progress and failures go to
// stderr. Exit status: 0 = ran and every output matched its oracle,
// 1 = an output diverged (the record says correct=false), 2 = bad usage or
// an error before a record could be produced.
//
//   perfbench --workload ingest|analyze|htap|overflow --seed N
//             --seconds S --trace 0|1 [--traced-first 0|1]
//             [--size full|tiny] [--inject none|CHECK] [--spans-out FILE]
//             [--scratch DIR]
//
// CHECK names one oracle check of the workload (see checks_of):
// ingest: reopen; analyze: pr, cc, bfs, bc; overflow: pr, cc;
// htap: cut, incr_pr, incr_cc.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "perfbench/src/common.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/sched/parallel.hpp"

namespace {

using perfbench::RunArgs;
using perfbench::Size;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload ingest|analyze|htap|overflow "
               "--seed N --seconds S --trace 0|1 [--traced-first 0|1] "
               "[--size full|tiny] [--inject none|CHECK] [--spans-out FILE] "
               "[--scratch DIR]\n";
  std::exit(2);
}

double number(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const double d = std::stod(v, &used);
    if (used == v.size()) return d;
  } catch (const std::exception&) {
  }
  usage("bad value for " + flag + ": " + v);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  a.scratch_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      const double s = number(flag, v);
      if (s < 0 || s != static_cast<double>(static_cast<std::uint64_t>(s)))
        usage("--seed must be a non-negative integer");
      a.seed = static_cast<std::uint64_t>(s);
    } else if (flag == "--seconds") {
      a.seconds = number(flag, v);
      if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--traced-first") {
      if (v != "0" && v != "1") usage("--traced-first must be 0 or 1");
      a.traced_first = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") usage("--size must be full or tiny");
      a.size = v == "tiny" ? Size::tiny : Size::full;
    } else if (flag == "--inject") {
      a.inject = v == "none" ? "" : v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else if (flag == "--scratch") {
      a.scratch_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  const auto& checks = perfbench::checks_of(a.workload);
  if (!a.inject.empty() &&
      std::find(checks.begin(), checks.end(), a.inject) == checks.end())
    usage("workload " + a.workload + " has no check " + a.inject);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const RunArgs args = parse(argc, argv);
  perfbench::configure_media_model();
  dgap::par::set_num_threads(perfbench::host_threads());

  perfbench::Record r;
  // A layer a workload bypasses reports zero, not a missing metric.
  if (args.trace)
    for (const perfbench::MetricDef& d : perfbench::per_layer_metrics())
      r.metrics[d.name] = 0;
  try {
    if (args.workload == "ingest") {
      perfbench::run_ingest(args, r);
    } else if (args.workload == "analyze") {
      perfbench::run_analyze(args, r, /*overflow=*/false);
    } else if (args.workload == "overflow") {
      perfbench::run_analyze(args, r, /*overflow=*/true);
    } else if (args.workload == "htap") {
      perfbench::run_htap(args, r);
    } else {
      usage("unknown workload " + args.workload);
    }
    perfbench::progress("checks done");
    for (const std::string& f : r.failures) std::cerr << "FAILED: " << f << "\n";
    const std::string line = perfbench::format_record(r, args.trace);
    std::cout << line << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  return r.correct ? 0 : 1;
}
