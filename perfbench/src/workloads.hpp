// The four workloads and the set-up / phase scaffolding they share.
//
// Every workload has the same shape: set up (generation plus preload,
// timed), then run timed phases. An untraced run sets up once and measures
// one phase of --seconds; a traced run sets up twice (untraced and traced,
// the later state is kept) and measures an untraced half and a traced half
// of equal length, so the tracing overhead is the difference of the two and
// every end-to-end figure still comes from untraced work. --traced-first
// puts the traced set-up and half first. perfbench/run.py repeats the
// process several times per run, alternating that order, and reports
// medians across processes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "perfbench/src/common.hpp"
#include "perfbench/src/layers.hpp"

namespace perfbench {

struct SetupTimes {
  double total_s = 0;
  double generate_s = 0;
  double preload_s = 0;  // the insert_batch calls of the preload
  // overflow: cold-tier budget enforcement after the preload, kept out of
  // total_s (its fdatasync time follows the host disk, not the program)
  double enforce_s = 0;
};

struct PhaseOut {
  double p50_ms = 0;
  double tail_ms = 0;
  double meps = 0;
  std::uint64_t latency_samples = 0;  // behind p50_ms and tail_ms
  std::uint64_t rounds = 0;  // trials or rounds behind meps and the medians
  // Per-layer figures that restate an end-to-end time at finer grain
  // (kernel medians, recovery, rounds): taken from the untraced phase.
  std::map<std::string, double> timings;
  // Counter-derived per-layer figures: taken from the traced phase.
  std::map<std::string, double> counters;
  LayerTotals layers;
  std::uint64_t edges_written = 0;
};

// Run `setup()` once, and in a traced run once more with tracing on (first
// or second per --traced-first); the last call's state is the one the
// phases use. Fills setup_s from the untraced set-up and, traced,
// graph.generate_s, core.preload_insert_batch_s and overhead.setup_s.
void run_setups(const RunArgs& args, Record& r,
                const std::function<SetupTimes()>& setup);

// Run the timed phase(s) and fill the mode's metrics. `phase(seconds,
// traced)` measures for about `seconds`.
void run_phases(const RunArgs& args, Record& r,
                const std::function<PhaseOut(double seconds, bool traced)>& phase);

void run_ingest(const RunArgs& args, Record& r);
void run_analyze(const RunArgs& args, Record& r, bool overflow);
void run_htap(const RunArgs& args, Record& r);

}  // namespace perfbench
