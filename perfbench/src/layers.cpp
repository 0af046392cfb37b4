#include "perfbench/src/layers.hpp"

#include <algorithm>

namespace perfbench {

Probe Probe::take(const dgap::core::DgapStore& store) {
  Probe p;
  p.pmem = dgap::pmem::stats().snapshot();
  const dgap::core::DgapStats& s = store.stats();
  p.array_inserts = s.array_inserts;
  p.elog_inserts = s.elog_inserts;
  p.rebalances = s.rebalances;
  p.resizes = s.resizes;
  p.read_retries = s.snapshot_read_retries;
  p.rebalance_ns = store.rebalance_latency();
  p.resize_ns = store.resize_latency();
  p.freeze_ns = store.freeze_latency();
  p.cache = store.cache_stats();
  p.cold = store.cold_stats();
  dgap::sched::TaskScheduler& sched = dgap::sched::TaskScheduler::global();
  const dgap::sched::SchedStats ss = sched.stats();
  p.sched_tasks = ss.executed;
  p.sched_steals = ss.steals;
  p.sched_assists = ss.assists;
  p.task_ns = sched.task_latency();
  return p;
}

void LayerTotals::add(const Probe& b, const Probe& a) {
  const dgap::pmem::StatsSnapshot d = a.pmem - b.pmem;
  sum.pmem.flush_calls += d.flush_calls;
  sum.pmem.lines_flushed += d.lines_flushed;
  sum.pmem.bytes_requested += d.bytes_requested;
  sum.pmem.fences += d.fences;
  sum.pmem.xpline_misses += d.xpline_misses;
  sum.pmem.inplace_flushes += d.inplace_flushes;
  sum.array_inserts += a.array_inserts - b.array_inserts;
  sum.elog_inserts += a.elog_inserts - b.elog_inserts;
  sum.rebalances += a.rebalances - b.rebalances;
  sum.resizes += a.resizes - b.resizes;
  sum.read_retries += a.read_retries - b.read_retries;
  sum.rebalance_ns += a.rebalance_ns - b.rebalance_ns;
  sum.resize_ns += a.resize_ns - b.resize_ns;
  sum.freeze_ns += a.freeze_ns - b.freeze_ns;
  sum.cache.hits += a.cache.hits - b.cache.hits;
  sum.cache.misses += a.cache.misses - b.cache.misses;
  sum.cache.populates += a.cache.populates - b.cache.populates;
  sum.cache.evictions += a.cache.evictions - b.cache.evictions;
  sum.cache.admit_rejects += a.cache.admit_rejects - b.cache.admit_rejects;
  sum.cold.cold_reads += a.cold.cold_reads - b.cold.cold_reads;
  sum.cold.cold_read_bytes += a.cold.cold_read_bytes - b.cold.cold_read_bytes;
  sum.cold.promotions += a.cold.promotions - b.cold.promotions;
  sum.cold.demotions += a.cold.demotions - b.cold.demotions;
  sum.cold.read_retries += a.cold.read_retries - b.cold.read_retries;
  sum.sched_tasks += a.sched_tasks - b.sched_tasks;
  sum.sched_steals += a.sched_steals - b.sched_steals;
  sum.sched_assists += a.sched_assists - b.sched_assists;
  sum.task_ns += a.task_ns - b.task_ns;
}

void fill_layer_metrics(const LayerTotals& t, std::uint64_t edges_written,
                        Record& r) {
  const Probe& s = t.sum;
  const double per = static_cast<double>(std::max<std::uint64_t>(edges_written, 1));
  auto& m = r.metrics;
  m["pmem.flush_lines_per_edge"] = s.pmem.lines_flushed / per;
  m["pmem.fences_per_edge"] = s.pmem.fences / per;
  m["pmem.xpline_misses_per_edge"] = s.pmem.xpline_misses / per;
  m["pmem.inplace_flushes_per_edge"] = s.pmem.inplace_flushes / per;
  m["pmem.write_amp"] =
      static_cast<double>(s.pmem.media_bytes_written()) / (8.0 * per);

  const std::uint64_t placed = s.array_inserts + s.elog_inserts;
  m["core.elog_frac"] =
      placed == 0 ? 0.0 : static_cast<double>(s.elog_inserts) / placed;
  m["core.rebalances"] = static_cast<double>(s.rebalances);
  m["core.rebalance_ms"] = static_cast<double>(s.rebalance_ns.sum) / 1e6;
  m["pma.rebalance_us_p99"] = s.rebalance_ns.percentile(0.99) / 1e3;
  m["core.resizes"] = static_cast<double>(s.resizes);
  m["core.resize_ms"] = static_cast<double>(s.resize_ns.sum) / 1e6;
  m["snapshot.freeze_us_p99"] = s.freeze_ns.percentile(0.99) / 1e3;
  m["snapshot.read_retries"] = static_cast<double>(s.read_retries);

  m["sched.tasks"] = static_cast<double>(s.sched_tasks);
  m["sched.steals"] = static_cast<double>(s.sched_steals);
  m["sched.assists"] = static_cast<double>(s.sched_assists);
  m["sched.task_us_p99"] = s.task_ns.percentile(0.99) / 1e3;

  m["tier.cache_hit_frac"] = s.cache.hit_rate();
  m["tier.cache_populates"] = static_cast<double>(s.cache.populates);
  m["tier.cache_evictions"] = static_cast<double>(s.cache.evictions);
  m["tier.cache_admit_rejects"] = static_cast<double>(s.cache.admit_rejects);
  m["tier.cold_reads"] = static_cast<double>(s.cold.cold_reads);
  m["tier.cold_read_mb"] = static_cast<double>(s.cold.cold_read_bytes) / (1 << 20);
  m["tier.cold_promotions"] = static_cast<double>(s.cold.promotions);
  m["tier.cold_demotions"] = static_cast<double>(s.cold.demotions);
  m["tier.cold_read_retries"] = static_cast<double>(s.cold.read_retries);
}

}  // namespace perfbench
