// Per-layer counters the library exposes publicly, read as before/after
// snapshots around a measured phase and turned into per-layer metrics.
#pragma once

#include <cstdint>

#include "perfbench/src/common.hpp"
#include "src/core/dgap_store.hpp"
#include "src/obs/latency_histogram.hpp"
#include "src/pmem/stats.hpp"
#include "src/sched/task_scheduler.hpp"
#include "src/tier/cold_tier.hpp"
#include "src/tier/dram_cache.hpp"

namespace perfbench {

// One point-in-time reading of the process-wide and one store's counters.
struct Probe {
  dgap::pmem::StatsSnapshot pmem;
  std::uint64_t array_inserts = 0;
  std::uint64_t elog_inserts = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t resizes = 0;
  std::uint64_t read_retries = 0;
  dgap::obs::HistogramSnapshot rebalance_ns;
  dgap::obs::HistogramSnapshot resize_ns;
  dgap::obs::HistogramSnapshot freeze_ns;
  dgap::tier::CacheStats cache;
  dgap::tier::ColdStats cold;
  std::uint64_t sched_tasks = 0;
  std::uint64_t sched_steals = 0;
  std::uint64_t sched_assists = 0;
  dgap::obs::HistogramSnapshot task_ns;

  static Probe take(const dgap::core::DgapStore& store);
};

// Sum of (after - before) deltas over one or more measured phases.
struct LayerTotals {
  Probe sum;
  void add(const Probe& before, const Probe& after);
};

// Fill the pmem, core/pma, sched and tier metrics of `r` from `t`.
// `edges_written` is the per-edge denominator of the pmem ratios (0 on
// read-only phases: the ratios then report raw counts over one edge).
void fill_layer_metrics(const LayerTotals& t, std::uint64_t edges_written,
                        Record& r);

}  // namespace perfbench
