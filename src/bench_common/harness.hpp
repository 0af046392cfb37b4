// Shared benchmark harness: common CLI handling, the Optane-like latency
// model setup, the YCSB-style warm-up/measure insert driver (paper §4.1),
// and a type-erased store wrapper so every bench drives all six systems
// (CSR, DGAP, BAL, LLAMA, GraphOne-FD, XPGraph) through identical code.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algorithms/graph_view.hpp"
#include "src/algorithms/incremental/delta_mirror.hpp"
#include "src/baselines/pmem_csr.hpp"
#include "src/common/cli.hpp"
#include "src/common/table.hpp"
#include "src/common/timer.hpp"
#include "src/core/dgap_store.hpp"
#include "src/core/options.hpp"
#include "src/graph/edge_stream.hpp"
#include "src/graph/types.hpp"
#include "src/ingest/async_ingestor.hpp"
#include "src/obs/sampler.hpp"
#include "src/pmem/pool.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::bench {

// DGAP-specific store tuning surfaced on the bench CLIs (--ingest-profile,
// --section-slots, --dram-cache, --cold-tier). Baseline systems ignore it.
struct StoreTuning {
  core::IngestProfile profile = core::IngestProfile::balanced;
  std::uint64_t section_slots = 0;  // explicit hint; 0 = profile default
  // DRAM hot tier over the pmem edge array (src/tier/): 0 disables.
  std::uint32_t dram_cache_mb = 0;
  // SSD cold tier below the pmem pool (src/tier/cold_tier.*): with
  // --cold-tier on, --pool-mb becomes the PHYSICAL pmem budget — the pool
  // is created with kColdVirtualFactor x the virtual span and the tier
  // demotes cold sections to the backing file to keep residency within
  // budget, so graphs larger than --pool-mb stay serveable.
  bool cold_tier = false;
  std::string cold_file;  // backing file; empty = unlinked temp file
};

// Virtual-over-physical headroom for --cold-tier pools: the address span
// is this factor larger than --pool-mb, the cold tier keeps the RESIDENT
// bytes within --pool-mb.
inline constexpr std::uint64_t kColdVirtualFactor = 16;

struct BenchConfig {
  double scale = 1.0;  // dataset scale multiplier (see datasets.hpp)
  std::vector<std::string> datasets;
  bool latency = true;  // inject Optane-like delays
  std::uint64_t pool_mb = 1024;
  std::string only_system;  // run a single system when non-empty
  // Ingestion batch sizes to sweep; 1 = the per-edge path.
  std::vector<std::size_t> batches = {1};
  // Async-ingestion absorber-thread counts to sweep (--async-writers=a,b);
  // empty = no async sweep.
  std::vector<int> async_writers;
  // DGAP section-geometry tuning (--ingest-profile / --section-slots).
  StoreTuning tuning;
  // Async absorb tuning: --autotune turns on arrival-rate absorb
  // autotuning; --absorb-min=N hand-tunes a fixed gather threshold
  // (ignored while autotune is on — the comparison the autotuner must win).
  bool autotune = false;
  std::size_t absorb_min = 0;
  // --dram-view: add the DRAM-view section (fig7/fig8) — run each kernel
  // over the raw snapshot AND over the DeltaMirror built from the SAME cut,
  // verify identical results, report the build cost and the speedup.
  bool dram_view = false;
  // --live-ingest: add the analysis-while-ingesting section (fig7/table4) —
  // async producers flood the store while the analysis thread snapshots and
  // runs PageRank; both sides' throughput is reported. --live-producers=N
  // sets the submit-thread count.
  bool live_ingest = false;
  int live_producers = 2;
  // --incremental (requires --live-ingest): switch the live-ingest section
  // to the round-over-round delta-analytics driver — each analysis round
  // diffs the new cut against the previous one (snapshot_delta) and runs
  // the delta-seeded PR/CC kernels next to the full recomputes, verifying
  // them every round. --live-pace-ns=N throttles each producer between
  // 512-edge chunks so trickle-rate streams (small per-round deltas) can
  // be dialed in; 0 floods.
  bool incremental = false;
  std::uint64_t live_pace_ns = 0;
  // --pm-read-ns=N: per-cache-line read charge applied INSIDE the
  // --dram-cache section only (fig7/fig8), so cache-off vs cache-on runs
  // both pay the media's read cost and the tier's win is visible. The main
  // tables never charge reads (read_ns_per_line stays 0 there).
  std::uint64_t pm_read_ns = 60;
  // Observability exporters (src/obs): --metrics-out=FILE streams registry
  // samples as JSON-lines every --metrics-interval-ms (plus a Prometheus
  // text dump to FILE.prom at exit); --trace-out=FILE enables the
  // structural trace ring and dumps chrome://tracing JSON at exit. Empty
  // paths disable each exporter.
  std::string metrics_out;
  std::uint64_t metrics_interval_ms = 500;
  std::string trace_out;
  // --threads=N: TaskScheduler worker count AND the default kernel width
  // (par::set_num_threads); 0 = leave both at their runtime defaults.
  // --sched: run the analysis kernels on the scheduler execution path
  // instead of OpenMP (bit-identical results; see src/sched/parallel.hpp).
  // Both are applied eagerly by parse_common — the scheduler worker count
  // must be fixed before anything instantiates the global instance.
  int threads = 0;
  bool sched_kernels = false;
};

// Parse --scale, --datasets=a,b,c, --latency, --pool-mb, --system,
// --batch=a,b,c, --async-writers=a,b,c,
// --ingest-profile=balanced|ingest-heavy, --section-slots=N (power of
// two), --autotune, --absorb-min=N, --dram-cache=MB, --cold-tier,
// --cold-file=PATH, --pm-read-ns=N, --dram-view, --live-ingest,
// --live-producers=N, --incremental, --live-pace-ns=N, --metrics-out=FILE,
// --metrics-interval-ms=N, --trace-out=FILE, --threads=N, --sched. Throws
// std::invalid_argument on non-positive / non-numeric / unknown values.
BenchConfig parse_common(const Cli& cli, double default_scale,
                         std::vector<std::string> default_datasets);

// Parse an --ingest-profile value; throws std::invalid_argument on unknown
// names (shared with the examples so spellings cannot drift).
core::IngestProfile parse_ingest_profile(const std::string& value);

// RAII exporter lifecycle for a bench/example run: starts the background
// MetricsSampler when `metrics_out` is non-empty and enables the structural
// trace ring when `trace_out` is non-empty. The destructor stops the
// sampler (final JSON-lines flush), writes a one-shot Prometheus dump to
// `<metrics_out>.prom`, and dumps the trace ring as chrome://tracing JSON
// to `trace_out`. Construct once, right after parse_common/print_banner.
class ObsSession {
 public:
  ObsSession(const std::string& metrics_out, std::uint64_t interval_ms,
             const std::string& trace_out);
  explicit ObsSession(const BenchConfig& cfg)
      : ObsSession(cfg.metrics_out, cfg.metrics_interval_ms, cfg.trace_out) {}
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  // One metrics sample now, if the session samples at all.
  void sample() const {
    if (sampler_) sampler_->sample_now();
  }

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
};

// AsyncIngestor options for a bench run: absorber count plus the config's
// absorb-tuning knobs (autotune / fixed absorb-min), one place so fig6 and
// table3 sweeps cannot diverge.
ingest::AsyncIngestor::Options async_options(const BenchConfig& cfg,
                                             int absorbers);

// Enable/disable the process-global PM latency model with Optane-like
// defaults (see pmem/latency_model.hpp for the parameters).
void configure_latency(bool enabled);

// Same, plus a per-line READ charge (the --dram-cache section's media
// model). read_ns_per_line > 0 forces the model on even under
// --latency=off, so the section's comparison is always charged; pass 0 to
// drop back to the write-only default.
void configure_latency_with_read(bool enabled,
                                 std::uint64_t read_ns_per_line);

// Fresh anonymous pool (benches do not need cross-process durability).
std::unique_ptr<pmem::PmemPool> fresh_pool(std::uint64_t mb);

// Pool sized for the tuning: plain `mb` normally, `mb * kColdVirtualFactor`
// of virtual span when the cold tier is on (the tier enforces `mb` as the
// physical budget).
std::unique_ptr<pmem::PmemPool> fresh_pool_for(std::uint64_t mb,
                                               const StoreTuning& tuning);

// Copy the tuning's cold-tier knobs into store options; `pool_mb` becomes
// the tier's physical budget.
void apply_cold_tuning(core::DgapOptions& o, const StoreTuning& tuning,
                       std::uint64_t pool_mb);

// Print a standard bench banner so outputs are self-describing.
void print_banner(const std::string& title, const BenchConfig& cfg);

// --- insert timing ----------------------------------------------------------

struct InsertResult {
  double seconds = 0;
  double meps = 0;  // million edges per second over the timed body
};

// Insert the 10% warm-up untimed, then time the remaining 90% (paper §4.1).
template <typename InsertFn>
InsertResult time_inserts(const EdgeStream& stream, InsertFn&& insert,
                          double warmup_frac = 0.10) {
  for (const Edge& e : stream.warmup(warmup_frac)) insert(e.src, e.dst);
  const auto body = stream.body(warmup_frac);
  Timer t;
  for (const Edge& e : body) insert(e.src, e.dst);
  InsertResult r;
  r.seconds = t.seconds();
  r.meps = static_cast<double>(body.size()) / r.seconds / 1e6;
  return r;
}

// Multi-writer variant: the body is striped across `threads` writers. The
// callable is a template parameter (not std::function) so multi-writer
// numbers measure the store, not per-edge indirect-call dispatch.
template <typename InsertFn>
InsertResult time_inserts_mt(const EdgeStream& stream, int threads,
                             InsertFn&& insert, double warmup_frac = 0.10) {
  for (const Edge& e : stream.warmup(warmup_frac)) insert(e.src, e.dst);
  const auto body = stream.body(warmup_frac);
  Timer t;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = static_cast<std::size_t>(w); i < body.size();
           i += static_cast<std::size_t>(threads))
        insert(body[i].src, body[i].dst);
    });
  }
  for (auto& th : workers) th.join();
  InsertResult r;
  r.seconds = t.seconds();
  r.meps = static_cast<double>(body.size()) / r.seconds / 1e6;
  return r;
}

// Batched single-writer driver: feeds `insert_range` chronological chunks of
// `batch` edges (warm-up untimed, body timed). batch <= 1 degrades to
// per-edge-sized spans so one code path serves both modes.
template <typename InsertRangeFn>
InsertResult time_inserts_batched(const EdgeStream& stream, std::size_t batch,
                                  InsertRangeFn&& insert_range,
                                  double warmup_frac = 0.10) {
  batch = std::max<std::size_t>(batch, 1);
  const auto feed = [&](std::span<const Edge> part) {
    for (std::size_t i = 0; i < part.size(); i += batch)
      insert_range(part.subspan(i, std::min(batch, part.size() - i)));
  };
  feed(stream.warmup(warmup_frac));
  const auto body = stream.body(warmup_frac);
  Timer t;
  feed(body);
  InsertResult r;
  r.seconds = t.seconds();
  r.meps = static_cast<double>(body.size()) / r.seconds / 1e6;
  return r;
}

// Batched multi-writer driver: the body is cut into chronological chunks of
// `batch` edges and the chunks are striped across `threads` writers.
template <typename InsertRangeFn>
InsertResult time_inserts_mt_batched(const EdgeStream& stream, int threads,
                                     std::size_t batch,
                                     InsertRangeFn&& insert_range,
                                     double warmup_frac = 0.10) {
  batch = std::max<std::size_t>(batch, 1);
  const auto warm = stream.warmup(warmup_frac);
  for (std::size_t i = 0; i < warm.size(); i += batch)
    insert_range(warm.subspan(i, std::min(batch, warm.size() - i)));
  const auto body = stream.body(warmup_frac);
  const std::size_t chunks = (body.size() + batch - 1) / batch;
  Timer t;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t c = static_cast<std::size_t>(w); c < chunks;
           c += static_cast<std::size_t>(threads)) {
        const std::size_t begin = c * batch;
        insert_range(body.subspan(begin,
                                  std::min(batch, body.size() - begin)));
      }
    });
  }
  for (auto& th : workers) th.join();
  InsertResult r;
  r.seconds = t.seconds();
  r.meps = static_cast<double>(body.size()) / r.seconds / 1e6;
  return r;
}

// Async driver: `producers` threads submit chronological chunks of `batch`
// edges to the ingestor; the timed body ends when everything submitted is
// absorbed and durable (drain), so async numbers are comparable to the
// synchronous insert_batch path at equal total work. Producer-side cost
// (submit calls returning, before absorption completes) is reported
// separately — that is the latency an event-feed front end actually sees.
struct AsyncInsertResult {
  double submit_seconds = 0;  // all producers done submitting
  double total_seconds = 0;   // ... and the ingestor fully drained
  double submit_meps = 0;     // producer-side throughput
  double meps = 0;            // end-to-end throughput (drain included)
};

AsyncInsertResult time_inserts_async(const EdgeStream& stream, int producers,
                                     std::size_t batch,
                                     ingest::AsyncIngestor& ingestor,
                                     double warmup_frac = 0.10);

// --- analysis concurrent with ingest (--live-ingest) ------------------------

// One HTAP round trip: `producers` submit threads flood `body` through the
// store's async ingestor (absorbers draining in the background) while the
// CALLING thread repeatedly takes a snapshot and times single-threaded
// PageRank over it. Exercises exactly what the epoch-versioned snapshot
// refactor bought: analysis rounds proceed through vertex growth, window
// rebalances and resizes, and ingest never stalls behind a held snapshot.
// Per-analysis-round latency percentiles (microseconds), computed from
// histogram-snapshot deltas taken around each snapshot+PageRank round: the
// absorb-batch distribution the flood saw during THAT round, and the
// snapshot-freeze p99 over the round's captures.
struct LiveRound {
  double absorb_p50_us = 0;
  double absorb_p99_us = 0;
  double absorb_p999_us = 0;
  double freeze_p99_us = 0;
};

struct LiveIngestResult {
  double ingest_seconds = 0;   // submit start -> everything absorbed
  double ingest_meps = 0;      // body.size() over ingest_seconds
  int analysis_rounds = 0;     // completed snapshot+PageRank rounds
  double avg_kernel_seconds = 0;        // mean PR time while ingest ran
  double quiescent_kernel_seconds = 0;  // PR time after the drain
  std::vector<LiveRound> rounds;        // one entry per analysis round
};

class IStore;
LiveIngestResult run_live_ingest(IStore& store, std::span<const Edge> body,
                                 int producers, int absorbers,
                                 std::size_t batch);

// The full --live-ingest report shared by fig7/table4 (one table: ingest
// MEPS, PR rounds, avg/quiescent PR seconds, slowdown): per dataset,
// preload the first half of the stream synchronously, then run_live_ingest
// over the second half. `stream_for` supplies the loaded stream (fig7
// reuses its cache; table4 loads on demand). Under cfg.incremental the
// section instead runs the round-over-round delta-analytics driver: per
// round, diff the cut against the previous one, run incremental PR/CC
// seeded from the previous round's results next to the full recomputes,
// and verify (CC labels exactly, PR within the shared residual bound).
// Returns false if any round's verification failed (benches treat that as
// a hard failure); the plain flood path always returns true.
[[nodiscard]] bool print_live_ingest_section(
    const BenchConfig& cfg,
    const std::function<const EdgeStream&(const std::string&)>& stream_for,
    std::ostream& os);

// A DGAP store batch-loaded with a whole stream, ready for snapshot
// analysis (the --dram-view sections in fig7/fig8 start here).
struct LoadedDgap {
  std::unique_ptr<pmem::PmemPool> pool;
  std::unique_ptr<core::DgapStore> store;
};
LoadedDgap load_dgap_for_analysis(const EdgeStream& stream,
                                  std::uint64_t pool_mb,
                                  const StoreTuning& tuning = {});

// --- --dram-view section (fig7/fig8) ----------------------------------------

// The --dram-view report shared by fig7 (PR+CC) and fig8 (BFS+BC): per
// dataset, load DGAP, snapshot ONCE, build the cut's DRAM view
// (algorithms::DeltaMirror, timed: the copy's cost), then run kernel A and
// kernel B over the raw snapshot and over the view. The view keeps the
// snapshot's degree semantics and neighbor order, so results must match
// exactly. The speedup column charges the build to the view side. Prints
// the table and returns false if any kernel diverged (benches treat that
// as a hard failure).
template <typename KernelA, typename KernelB>
bool print_dram_view_section(
    const BenchConfig& cfg, const char* a_label, const char* b_label,
    const std::function<const EdgeStream&(const std::string&)>& stream_for,
    KernelA&& kernel_a, KernelB&& kernel_b, std::ostream& os) {
  os << "\n--- DGAP DRAM view: " << a_label << " + " << b_label
     << " over ONE snapshot (1 thread) ---\n";
  const std::string a = a_label;
  const std::string b = b_label;
  TablePrinter table({"Graph", "build(s)", a + ".snap", a + ".view",
                      b + ".snap", b + ".view", "speedup w/ build",
                      "identical"});
  const par::ScopedKernelThreads one_thread(1);
  bool all_identical = true;
  for (const auto& name : cfg.datasets) {
    const LoadedDgap loaded =
        load_dgap_for_analysis(stream_for(name), cfg.pool_mb);
    const core::Snapshot snap = loaded.store->consistent_view();
    const NodeId source = algorithms::max_degree_vertex(snap);
    Timer tb;
    const auto view = algorithms::DeltaMirror::build(snap);
    const double build_s = tb.seconds();

    bool identical = true;
    // {seconds over the snapshot, seconds over the view}
    const auto time_both = [&](auto& kernel) {
      Timer t1;
      const auto raw = kernel(snap, source);
      const double snap_s = t1.seconds();
      Timer t2;
      const auto viewed = kernel(view, source);
      const double view_s = t2.seconds();
      identical = identical && raw == viewed;
      return std::pair{snap_s, view_s};
    };
    const auto [a_snap, a_view] = time_both(kernel_a);
    const auto [b_snap, b_view] = time_both(kernel_b);
    all_identical = all_identical && identical;
    table.add_row({name, TablePrinter::fmt(build_s, 3),
                   TablePrinter::fmt(a_snap, 3), TablePrinter::fmt(a_view, 3),
                   TablePrinter::fmt(b_snap, 3), TablePrinter::fmt(b_view, 3),
                   TablePrinter::fmt((a_snap + b_snap) /
                                     (build_s + a_view + b_view)),
                   identical ? "yes" : "NO (BUG)"});
    if (!identical) break;
  }
  table.print(os);
  if (all_identical)
    os << "# dram-view: per dataset 1 view build + 2 kernels over each "
          "view; all kernel results verified identical to the raw "
          "snapshot\n";
  return all_identical;
}

// --- --dram-cache section (fig7/fig8) ---------------------------------------

// The DRAM hot-tier report: per dataset, run kernel A and kernel B over a
// cache-OFF store and a cache-ON store under a read-charged media model
// (--pm-read-ns per line), next to the static-CSR floor which stays
// uncharged (the DRAM-speed target the tier chases). Reports the hit rate
// and how much of the PM-vs-CSR gap the tier closed; returns false if
// cache-on kernel results diverge from cache-off (hard failure — the tier
// must be semantically invisible).
template <typename KernelA, typename KernelB>
bool print_dram_cache_section(
    const BenchConfig& cfg, const char* a_label, const char* b_label,
    const std::function<const EdgeStream&(const std::string&)>& stream_for,
    KernelA&& kernel_a, KernelB&& kernel_b, std::ostream& os) {
  os << "\n--- DGAP DRAM hot tier: " << a_label << " + " << b_label
     << " (--dram-cache=" << cfg.tuning.dram_cache_mb
     << "MB pm-read-ns=" << cfg.pm_read_ns << ", 1 thread) ---\n";
  TablePrinter table({"Graph", "csr(s)", "pm(s)", "cached(s)", "speedup",
                      "hit%", "gap closed", "identical"});
  const par::ScopedKernelThreads one_thread(1);
  bool all_identical = true;
  tier::CacheStats totals;
  for (const auto& name : cfg.datasets) {
    const EdgeStream& stream = stream_for(name);

    // Static CSR floor: immutable, sequential, effectively DRAM-speed —
    // deliberately NOT read-charged (see BenchConfig::pm_read_ns).
    auto csr_pool = fresh_pool(cfg.pool_mb);
    const auto csr = baselines::PmemCsr::build(*csr_pool, stream);
    const NodeId source = algorithms::max_degree_vertex(*csr);
    Timer tc;
    (void)kernel_a(*csr, source);
    (void)kernel_b(*csr, source);
    const double csr_s = tc.seconds();

    // Cache OFF: every adjacency read pays the media's read cost.
    StoreTuning off = cfg.tuning;
    off.dram_cache_mb = 0;
    const LoadedDgap pm = load_dgap_for_analysis(stream, cfg.pool_mb, off);
    const core::Snapshot pm_view = pm.store->consistent_view();
    configure_latency_with_read(cfg.latency, cfg.pm_read_ns);
    Timer tp;
    const auto pm_a = kernel_a(pm_view, source);
    const auto pm_b = kernel_b(pm_view, source);
    const double pm_s = tp.seconds();
    configure_latency_with_read(cfg.latency, 0);

    // Cache ON: kernel A populates on miss (bulk sequential reads, cheap
    // per line); kernel B mostly hits resident sections.
    const LoadedDgap hot =
        load_dgap_for_analysis(stream, cfg.pool_mb, cfg.tuning);
    const core::Snapshot hot_view = hot.store->consistent_view();
    configure_latency_with_read(cfg.latency, cfg.pm_read_ns);
    Timer th;
    const auto hot_a = kernel_a(hot_view, source);
    const auto hot_b = kernel_b(hot_view, source);
    const double hot_s = th.seconds();
    configure_latency_with_read(cfg.latency, 0);
    const tier::CacheStats cs = hot.store->cache_stats();
    totals += cs;

    const bool identical = pm_a == hot_a && pm_b == hot_b;
    all_identical = all_identical && identical;
    const double gap = pm_s - csr_s;
    table.add_row(
        {name, TablePrinter::fmt(csr_s, 3), TablePrinter::fmt(pm_s, 3),
         TablePrinter::fmt(hot_s, 3), TablePrinter::fmt(pm_s / hot_s),
         TablePrinter::fmt(100.0 * cs.hit_rate(), 1),
         gap > 1e-9 ? TablePrinter::fmt(100.0 * (pm_s - hot_s) / gap, 1) + "%"
                    : "-",
         identical ? "yes" : "NO (BUG)"});
    if (!identical) break;
  }
  table.print(os);
  os << "# dram-cache counters: populates=" << totals.populates
     << " evictions=" << totals.evictions
     << " admit_rejects=" << totals.admit_rejects
     << " resident=" << totals.resident << "/" << totals.frames << "\n";
  if (all_identical)
    os << "# dram-cache: kernel results verified identical cache-on vs "
          "cache-off; csr column is the uncharged DRAM-speed floor\n";
  return all_identical;
}

// --- --cold-tier section (fig7) ---------------------------------------------

// The SSD cold-tier report: per dataset, run kernel A and kernel B over an
// unconstrained store (tier off, everything resident in pmem) and over a
// capacity-constrained store whose enforced budget is HALF the actual
// post-load resident footprint — the edge array provably exceeds what pmem
// may hold, so a real fraction of sections is served from (and promoted
// off) the SSD backing file during the kernels. Reports the slowdown
// factor and the tier's counters, and writes one `obs` metrics sample per
// constrained store; returns false if any kernel result diverges (hard
// failure — tiering must be semantically invisible).
template <typename KernelA, typename KernelB>
bool print_cold_tier_section(
    const BenchConfig& cfg, const ObsSession& obs, const char* a_label,
    const char* b_label,
    const std::function<const EdgeStream&(const std::string&)>& stream_for,
    KernelA&& kernel_a, KernelB&& kernel_b, std::ostream& os) {
  os << "\n--- DGAP SSD cold tier: " << a_label << " + " << b_label
     << " with budget = resident/2 (1 thread) ---\n";
  TablePrinter table({"Graph", "resident MB", "budget MB", "cold sect",
                      "full(s)", "cold(s)", "slowdown", "identical"});
  const par::ScopedKernelThreads one_thread(1);
  bool all_identical = true;
  tier::ColdStats totals;
  for (const auto& name : cfg.datasets) {
    const EdgeStream& stream = stream_for(name);

    // Unconstrained baseline: tier off, the whole edge array in pmem. It
    // gets the same oversized span the constrained store's pool has —
    // --pool-mb is the budget under test, not a cap on the baseline.
    StoreTuning flat = cfg.tuning;
    flat.cold_tier = false;
    const LoadedDgap full = load_dgap_for_analysis(
        stream, cfg.pool_mb * kColdVirtualFactor, flat);
    const core::Snapshot full_view = full.store->consistent_view();
    const NodeId source = algorithms::max_degree_vertex(full_view);
    Timer tf;
    const auto full_a = kernel_a(full_view, source);
    const auto full_b = kernel_b(full_view, source);
    const double full_s = tf.seconds();

    // Constrained: same load, then clamp the budget to half the measured
    // footprint and enforce it synchronously — the kernels start against a
    // store at least half of whose sections live on SSD.
    const LoadedDgap cold =
        load_dgap_for_analysis(stream, cfg.pool_mb, cfg.tuning);
    const std::uint64_t resident = cold.store->resident_bytes();
    const std::uint64_t budget = std::max<std::uint64_t>(resident / 2, 1);
    cold.store->set_cold_budget_bytes(budget);
    cold.store->cold_enforce_budget();
    const std::uint64_t cold_sections = cold.store->cold_stats().cold_sections;
    const core::Snapshot cold_view = cold.store->consistent_view();
    Timer tc;
    const auto cold_a = kernel_a(cold_view, source);
    const auto cold_b = kernel_b(cold_view, source);
    const double cold_s = tc.seconds();
    const tier::ColdStats cs = cold.store->cold_stats();
    // The store's cold counters are registered only while it lives, so
    // sample them here: --metrics-out then carries them however short the
    // run.
    obs.sample();
    totals.demotions += cs.demotions;
    totals.promotions += cs.promotions;
    totals.cold_reads += cs.cold_reads;
    totals.cold_read_bytes += cs.cold_read_bytes;
    totals.read_retries += cs.read_retries;
    totals.read_reuses += cs.read_reuses;
    totals.promote_vetoes += cs.promote_vetoes;

    const bool identical = full_a == cold_a && full_b == cold_b;
    all_identical = all_identical && identical;
    table.add_row({name, TablePrinter::fmt(resident / (1024.0 * 1024.0), 1),
                   TablePrinter::fmt(budget / (1024.0 * 1024.0), 1),
                   std::to_string(cold_sections),
                   TablePrinter::fmt(full_s, 3), TablePrinter::fmt(cold_s, 3),
                   TablePrinter::fmt(cold_s / full_s, 2) + "x",
                   identical ? "yes" : "NO (BUG)"});
    if (!identical) break;
  }
  table.print(os);
  os << "# cold-tier counters: demotions=" << totals.demotions
     << " promotions=" << totals.promotions
     << " cold_reads=" << totals.cold_reads
     << " cold_read_MB=" << totals.cold_read_bytes / (1u << 20)
     << " read_retries=" << totals.read_retries
     << " read_reuses=" << totals.read_reuses
     << " promote_vetoes=" << totals.promote_vetoes << "\n";
  if (all_identical)
    os << "# cold-tier: kernel results verified identical constrained vs "
          "unconstrained; slowdown is the price of serving the overflow "
          "from SSD\n";
  return all_identical;
}

// --- type-erased store ------------------------------------------------------

// Uniform handle over every system. Kernel timers run the shared GAPBS-style
// implementations on the store's analysis view with the requested kernel
// thread count applied (par::ScopedKernelThreads), and return seconds.
class IStore {
 public:
  virtual ~IStore() = default;
  virtual void insert(NodeId src, NodeId dst) = 0;
  // Batched ingestion; systems with native batching (DGAP insert_batch,
  // GraphOne edge-list appends, LLAMA delta map, XPGraph log/archive, BAL
  // block fills) override this. The default preserves per-edge semantics.
  virtual void insert_batch(std::span<const Edge> edges) {
    for (const Edge& e : edges) insert(e.src, e.dst);
  }
  // Asynchronous ingestion entry point: staging queues + background
  // absorbers draining through this store's batch path (see
  // src/ingest/async_ingestor.hpp for the epoch-durability contract). The
  // wiring lives here ONCE: sink serialization follows
  // concurrent_batch_safe() and stores with a delete path override
  // batch_sink() — no store re-implements the option plumbing. The store
  // must outlive the ingestor.
  std::unique_ptr<ingest::AsyncIngestor> make_async(
      ingest::AsyncIngestor::Options opts) {
    opts.serialize_sink = !concurrent_batch_safe();
    return std::make_unique<ingest::AsyncIngestor>(batch_sink(),
                                                   std::move(opts));
  }
  // Whether insert_batch tolerates concurrent callers (the absorbers).
  // Most baselines are single-ingest; DGAP and BAL are not.
  [[nodiscard]] virtual bool concurrent_batch_safe() const { return false; }
  // Make all inserted edges analysis-visible (snapshot/flush/archive).
  virtual void finalize() {}
  [[nodiscard]] virtual std::uint64_t num_edges() const = 0;
  // DRAM hot-tier counters; zero-valued for systems without the tier
  // (hits + misses == 0 means "no cache ran here").
  [[nodiscard]] virtual tier::CacheStats cache_stats() const { return {}; }
  // Snapshot-freeze latency distribution (ns); empty for systems without
  // the obs histograms. The DGAP model overrides.
  [[nodiscard]] virtual obs::HistogramSnapshot freeze_hist() const {
    return {};
  }
  virtual NodeId pick_source() = 0;
  virtual double time_pagerank(int threads) = 0;
  virtual double time_bfs(int threads, NodeId source) = 0;
  virtual double time_bc(int threads, NodeId source) = 0;
  virtual double time_cc(int threads) = 0;

 protected:
  // Absorption sink handed to make_async. Default: insert-only through
  // insert_batch (deletes throw). DGAP-backed models override to route
  // tombstones to delete_batch.
  virtual ingest::AsyncIngestor::BatchFn batch_sink() {
    return [this](std::span<const Edge> edges, bool tombstone) {
      if (tombstone) throw std::logic_error("store has no delete_batch path");
      insert_batch(edges);
    };
  }
};

inline const std::vector<std::string> kDynamicSystems = {
    "dgap", "bal", "llama", "graphone", "xpgraph"};

// Create a dynamic store by name. `batch_hint` parameterizes per-system
// batching (LLAMA snapshot batch = 1% of edges, XPGraph archive threshold).
// `tuning` selects DGAP's ingest-profile section geometry (other systems
// ignore it).
std::unique_ptr<IStore> make_store(const std::string& kind,
                                   pmem::PmemPool& pool, NodeId vertices,
                                   std::uint64_t edges_estimate,
                                   int writer_threads,
                                   const StoreTuning& tuning = {});

// Static CSR (analysis oracle), built in one shot from a loaded stream.
std::unique_ptr<IStore> make_csr(pmem::PmemPool& pool,
                                 const EdgeStream& stream);

}  // namespace dgap::bench
