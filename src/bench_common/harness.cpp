#include "src/bench_common/harness.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "src/algorithms/bc.hpp"
#include "src/algorithms/bfs.hpp"
#include "src/algorithms/cc.hpp"
#include "src/algorithms/incremental/cc_incr.hpp"
#include "src/algorithms/incremental/delta_mirror.hpp"
#include "src/algorithms/incremental/pagerank_incr.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/baselines/bal_store.hpp"
#include "src/baselines/graphone_store.hpp"
#include "src/baselines/llama_store.hpp"
#include "src/baselines/pmem_csr.hpp"
#include "src/baselines/xpgraph_store.hpp"
#include "src/common/platform.hpp"
#include "src/common/table.hpp"
#include "src/common/timer.hpp"
#include "src/core/dgap_store.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/obs/trace_ring.hpp"
#include "src/pmem/latency_model.hpp"

namespace dgap::bench {

BenchConfig parse_common(const Cli& cli, double default_scale,
                         std::vector<std::string> default_datasets) {
  BenchConfig cfg;
  cfg.scale = cli.get_double("scale", default_scale);
  cfg.latency = cli.get_bool("latency", true);
  cfg.pool_mb = static_cast<std::uint64_t>(cli.get_int("pool-mb", 1024));
  cfg.only_system = cli.get("system", "");
  const std::string ds = cli.get("datasets", "");
  cfg.datasets = ds.empty() ? std::move(default_datasets) : split_csv(ds);
  const std::string batches = cli.get("batch", "");
  if (!batches.empty()) {
    cfg.batches.clear();
    for (const auto& b : split_csv(batches))
      cfg.batches.push_back(
          static_cast<std::size_t>(parse_positive_int(b, "--batch")));
  }
  if (cli.has("async-writers")) {
    const std::string aw = cli.get("async-writers", "");
    if (aw.empty())
      throw std::invalid_argument("--async-writers expects positive integers");
    for (const auto& k : split_csv(aw))
      cfg.async_writers.push_back(static_cast<int>(
          parse_positive_int_capped(k, "--async-writers", 1024)));
  }
  if (cli.has("ingest-profile"))
    cfg.tuning.profile = parse_ingest_profile(cli.get("ingest-profile", ""));
  if (cli.has("section-slots")) {
    cfg.tuning.section_slots =
        static_cast<std::uint64_t>(parse_positive_int_capped(
            cli.get("section-slots", ""), "--section-slots",
            static_cast<std::int64_t>(core::kMaxSegmentSlots)));
    if (!is_pow2(cfg.tuning.section_slots))
      throw std::invalid_argument("--section-slots must be a power of two");
  }
  cfg.autotune = cli.get_bool("autotune", false);
  if (cli.has("absorb-min"))
    cfg.absorb_min = static_cast<std::size_t>(
        parse_positive_int(cli.get("absorb-min", ""), "--absorb-min"));
  if (cli.has("dram-cache"))
    cfg.tuning.dram_cache_mb =
        static_cast<std::uint32_t>(parse_positive_int_capped(
            cli.get("dram-cache", ""), "--dram-cache", 1 << 20));
  // Tier toggles are parsed strictly (unlike get_bool, which maps any
  // unknown token to false): silently ignoring a typo here would make a
  // capacity-constrained run fail much later with a confusing OOM.
  const auto strict_bool = [&cli](const std::string& key) {
    const std::string v = cli.get(key, "");
    if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
    if (v == "0" || v == "false" || v == "no" || v == "off") return false;
    throw std::invalid_argument("--" + key + " expects a boolean, got '" + v +
                                "'");
  };
  if (cli.has("cold-tier")) cfg.tuning.cold_tier = strict_bool("cold-tier");
  cfg.tuning.cold_file = cli.get("cold-file", "");
  if (cli.has("pm-read-ns"))
    cfg.pm_read_ns = static_cast<std::uint64_t>(parse_positive_int_capped(
        cli.get("pm-read-ns", ""), "--pm-read-ns", 1000000));
  cfg.dram_view = cli.get_bool("dram-view", false);
  cfg.live_ingest = cli.get_bool("live-ingest", false);
  if (cli.has("live-producers"))
    cfg.live_producers = static_cast<int>(parse_positive_int_capped(
        cli.get("live-producers", ""), "--live-producers", 256));
  cfg.incremental = cli.get_bool("incremental", false);
  if (cli.has("live-pace-ns"))
    cfg.live_pace_ns = static_cast<std::uint64_t>(parse_positive_int_capped(
        cli.get("live-pace-ns", ""), "--live-pace-ns", 1000000000));
  if (cfg.incremental && !cfg.live_ingest)
    throw std::invalid_argument("--incremental requires --live-ingest");
  cfg.metrics_out = cli.get("metrics-out", "");
  if (cli.has("metrics-interval-ms"))
    cfg.metrics_interval_ms = static_cast<std::uint64_t>(
        parse_positive_int_capped(cli.get("metrics-interval-ms", ""),
                                  "--metrics-interval-ms", 3600000));
  cfg.trace_out = cli.get("trace-out", "");
  if (cli.has("threads")) {
    cfg.threads = static_cast<int>(parse_positive_int_capped(
        cli.get("threads", ""), "--threads",
        static_cast<std::int64_t>(sched::TaskScheduler::kMaxWorkers)));
    // Fix the scheduler pool size before anything spins up the global
    // instance (throws if something already did — flags must come first).
    sched::TaskScheduler::configure(
        {.workers = static_cast<std::size_t>(cfg.threads)});
    par::set_num_threads(cfg.threads);
  }
  cfg.sched_kernels = cli.get_bool("sched", false);
  if (cfg.sched_kernels) par::set_kernel_mode(par::Mode::sched);
  return cfg;
}

ObsSession::ObsSession(const std::string& metrics_out,
                       std::uint64_t interval_ms,
                       const std::string& trace_out)
    : metrics_out_(metrics_out), trace_out_(trace_out) {
  if (!metrics_out_.empty())
    sampler_ = std::make_unique<obs::MetricsSampler>(metrics_out_,
                                                     interval_ms);
  if (!trace_out_.empty()) obs::structural_trace().enable(1 << 16);
}

ObsSession::~ObsSession() {
  if (sampler_) {
    sampler_->stop();
    std::ofstream prom(metrics_out_ + ".prom", std::ios::trunc);
    if (prom) obs::write_prometheus(prom);
  }
  if (!trace_out_.empty()) {
    std::ofstream out(trace_out_, std::ios::trunc);
    if (out) obs::structural_trace().dump_chrome_json(out);
    obs::structural_trace().disable();
  }
}

core::IngestProfile parse_ingest_profile(const std::string& value) {
  if (value == "balanced") return core::IngestProfile::balanced;
  if (value == "ingest-heavy" || value == "ingest_heavy")
    return core::IngestProfile::ingest_heavy;
  throw std::invalid_argument(
      "--ingest-profile expects 'balanced' or 'ingest-heavy', got '" + value +
      "'");
}

ingest::AsyncIngestor::Options async_options(const BenchConfig& cfg,
                                             int absorbers) {
  ingest::AsyncIngestor::Options o;
  o.absorbers = static_cast<std::size_t>(std::max(absorbers, 1));
  o.autotune = cfg.autotune;
  if (!cfg.autotune) o.absorb_min_edges = cfg.absorb_min;
  return o;
}

AsyncInsertResult time_inserts_async(const EdgeStream& stream, int producers,
                                     std::size_t batch,
                                     ingest::AsyncIngestor& ingestor,
                                     double warmup_frac) {
  batch = std::max<std::size_t>(batch, 1);
  producers = std::max(producers, 1);
  const auto warm = stream.warmup(warmup_frac);
  for (std::size_t i = 0; i < warm.size(); i += batch)
    ingestor.submit(warm.subspan(i, std::min(batch, warm.size() - i)));
  ingestor.drain();

  const auto body = stream.body(warmup_frac);
  const std::size_t chunks = (body.size() + batch - 1) / batch;
  Timer t;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(producers));
  for (int w = 0; w < producers; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t c = static_cast<std::size_t>(w); c < chunks;
           c += static_cast<std::size_t>(producers)) {
        const std::size_t begin = c * batch;
        ingestor.submit(
            body.subspan(begin, std::min(batch, body.size() - begin)));
      }
    });
  }
  for (auto& th : workers) th.join();
  AsyncInsertResult r;
  r.submit_seconds = t.seconds();
  ingestor.drain();
  r.total_seconds = t.seconds();
  r.submit_meps =
      static_cast<double>(body.size()) / r.submit_seconds / 1e6;
  r.meps = static_cast<double>(body.size()) / r.total_seconds / 1e6;
  return r;
}

LiveIngestResult run_live_ingest(IStore& store, std::span<const Edge> body,
                                 int producers, int absorbers,
                                 std::size_t batch) {
  LiveIngestResult r;
  batch = std::max<std::size_t>(batch, 1);
  producers = std::max(producers, 1);
  ingest::AsyncIngestor::Options o;
  o.absorbers = static_cast<std::size_t>(std::max(absorbers, 1));
  auto ing = store.make_async(o);

  std::atomic<int> done{0};
  const std::size_t chunks = (body.size() + batch - 1) / batch;
  Timer t;
  std::vector<std::thread> feeds;
  feeds.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    feeds.emplace_back([&, p] {
      for (std::size_t c = static_cast<std::size_t>(p); c < chunks;
           c += static_cast<std::size_t>(producers)) {
        const std::size_t begin = c * batch;
        ing->submit(
            body.subspan(begin, std::min(batch, body.size() - begin)));
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  // A lightweight monitor samples the moment everything submitted is
  // absorbed: the analysis loop below re-checks its condition only
  // BETWEEN kernel rounds, so reading the clock there would charge up to
  // one trailing PageRank to the ingest time and deflate the MEPS.
  std::atomic<bool> ingested{false};
  double ingest_seconds = 0;
  std::thread monitor([&] {
    while (done.load(std::memory_order_acquire) < producers ||
           ing->stats().absorbed_edges < body.size())
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    ingest_seconds = t.seconds();
    ingested.store(true, std::memory_order_release);
  });

  // Analysis loop on the calling thread: snapshot + PageRank per round,
  // concurrently with producers, absorbers, growth and resizes. At least
  // one round runs even if ingest wins the race. Per-round latency
  // percentiles come from histogram-snapshot deltas bracketing the round.
  double kernel_total = 0;
  int rounds = 0;
  obs::HistogramSnapshot absorb_prev = ing->absorb_latency();
  obs::HistogramSnapshot freeze_prev = store.freeze_hist();
  do {
    kernel_total += store.time_pagerank(1);
    ++rounds;
    const obs::HistogramSnapshot absorb_now = ing->absorb_latency();
    const obs::HistogramSnapshot freeze_now = store.freeze_hist();
    const obs::HistogramSnapshot da = absorb_now - absorb_prev;
    const obs::HistogramSnapshot df = freeze_now - freeze_prev;
    absorb_prev = absorb_now;
    freeze_prev = freeze_now;
    LiveRound lr;
    lr.absorb_p50_us = da.percentile(0.50) / 1e3;
    lr.absorb_p99_us = da.percentile(0.99) / 1e3;
    lr.absorb_p999_us = da.percentile(0.999) / 1e3;
    lr.freeze_p99_us = df.percentile(0.99) / 1e3;
    r.rounds.push_back(lr);
  } while (!ingested.load(std::memory_order_acquire));
  for (auto& f : feeds) f.join();
  monitor.join();
  ing->drain();  // fence durability; absorption completed at ingest_seconds
  r.ingest_seconds = ingest_seconds;
  r.ingest_meps =
      static_cast<double>(body.size()) / r.ingest_seconds / 1e6;
  r.analysis_rounds = rounds;
  r.avg_kernel_seconds = kernel_total / rounds;
  r.quiescent_kernel_seconds = store.time_pagerank(1);
  return r;
}

namespace {

// One dataset of the --incremental live driver: preload half, seed full
// PR/CC over the preloaded cut, then — while paced producers trickle the
// second half through the async ingestor — per round capture a cut, diff
// it against the previous cut, run the delta-seeded kernels from the
// previous round's results, run the full recomputes on the SAME cut, and
// verify. The incremental outputs (not the full ones) seed the next round,
// so verification also proves seeds stay usable round over round.
bool run_live_incremental(const BenchConfig& cfg, const std::string& name,
                          const EdgeStream& stream, TablePrinter& table,
                          std::ostream& os) {
  auto pool = fresh_pool(cfg.pool_mb);
  core::DgapOptions o;
  o.init_vertices = stream.num_vertices();
  o.init_edges = stream.num_edges();
  o.max_writer_threads =
      static_cast<std::uint32_t>(std::max(cfg.live_producers, 1) + 4);
  o.ingest_profile = cfg.tuning.profile;
  o.section_slots_hint = cfg.tuning.section_slots;
  o.dram_cache_mb = cfg.tuning.dram_cache_mb;
  auto store = core::DgapStore::create(*pool, o);

  const auto all = stream.all();
  const std::size_t half = all.size() / 2;
  constexpr std::size_t kChunk = 8192;
  for (std::size_t i = 0; i < half; i += kChunk)
    store->insert_batch(all.subspan(i, std::min(kChunk, half - i)));

  // Round 0 seed: full kernels over the quiescent preloaded cut (the only
  // round that pays full price by construction).
  const algorithms::PageRankParams full_pr{.iterations = 50,
                                           .tolerance = 1e-4};
  const algorithms::IncrementalPageRankParams incr_pr{
      .tolerance = full_pr.tolerance, .max_iterations = full_pr.iterations};
  const double pr_bound =
      2.0 * incr_pr.tolerance / (1.0 - incr_pr.damping);
  core::Snapshot prev_cut = store->consistent_view();
  std::vector<double> prev_scores = algorithms::pagerank(prev_cut, full_pr);
  std::vector<NodeId> prev_labels =
      algorithms::connected_components(prev_cut);
  // The incremental kernels sweep a delta-maintained DRAM mirror of the
  // cut (delta_mirror.hpp) instead of the PM snapshot: the O(E) seed build
  // happens here in round 0, each later round advances it in O(delta)
  // inside the timed region. The per-round verification against full
  // kernels over the raw cut re-proves mirror fidelity every round.
  algorithms::DeltaMirror mirror = algorithms::DeltaMirror::build(prev_cut);

  // Live round metrics (PR-7 registry): latest round's delta size and
  // active-vertex count as gauges, per-round incremental latency as a
  // histogram. RAII handles — readers die before the cells.
  std::atomic<std::uint64_t> g_delta{0};
  std::atomic<std::uint64_t> g_active{0};
  obs::LatencyHistogram incr_hist;
  const obs::MetricsRegistry::Handle h_delta =
      obs::registry().add_gauge("incr_delta_edges", [&g_delta] {
        return static_cast<double>(
            g_delta.load(std::memory_order_relaxed));
      });
  const obs::MetricsRegistry::Handle h_active =
      obs::registry().add_gauge("incr_active_vertices", [&g_active] {
        return static_cast<double>(
            g_active.load(std::memory_order_relaxed));
      });
  const obs::MetricsRegistry::Handle h_round = obs::registry().add_histogram(
      "incr_round", [&incr_hist] { return incr_hist.snapshot(); });

  ingest::AsyncIngestor::Options io;
  io.absorbers = 2;
  ingest::AsyncIngestor ing(ingest::dgap_batch_sink(*store), io);
  const std::span<const Edge> body = all.subspan(half);
  constexpr std::size_t kSubmit = 512;
  const std::size_t chunks = (body.size() + kSubmit - 1) / kSubmit;
  const int producers = std::max(cfg.live_producers, 1);
  std::atomic<int> done{0};
  std::vector<std::thread> feeds;
  feeds.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    feeds.emplace_back([&, p] {
      for (std::size_t c = static_cast<std::size_t>(p); c < chunks;
           c += static_cast<std::size_t>(producers)) {
        const std::size_t begin = c * kSubmit;
        ing.submit(
            body.subspan(begin, std::min(kSubmit, body.size() - begin)));
        if (cfg.live_pace_ns != 0) spin_wait_ns(cfg.live_pace_ns);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  std::atomic<bool> ingested{false};
  std::thread monitor([&] {
    while (done.load(std::memory_order_acquire) < producers ||
           ing.stats().absorbed_edges < body.size())
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    ingested.store(true, std::memory_order_release);
  });

  std::uint64_t sum_delta = 0;
  std::uint64_t sum_active = 0;
  double sum_full = 0;
  double sum_incr = 0;
  int rounds = 0;
  int fallbacks = 0;
  bool ok = true;
  do {
    core::Snapshot cut = store->consistent_view();
    Timer ti;
    const core::SnapshotDelta delta = core::snapshot_delta(prev_cut, cut);
    const double diff_s = ti.seconds();
    mirror.apply(delta, cut);
    const double apply_s = ti.seconds() - diff_s;
    auto ipr = algorithms::incremental_pagerank(mirror, delta, prev_scores,
                                                incr_pr);
    const double pr_s = ti.seconds() - diff_s - apply_s;
    auto icc = algorithms::incremental_cc(mirror, delta, prev_labels);
    const double incr_s = ti.seconds();
    const double cc_s = incr_s - diff_s - apply_s - pr_s;
    incr_hist.record(static_cast<std::uint64_t>(incr_s * 1e9));
    Timer tf;
    const std::vector<double> fpr = algorithms::pagerank(cut, full_pr);
    const std::vector<NodeId> fcc = algorithms::connected_components(cut);
    const double full_s = tf.seconds();

    double l1 = 0;
    for (std::size_t i = 0; i < fpr.size(); ++i) {
      const double diff = ipr.scores[i] - fpr[i];
      l1 += diff > 0 ? diff : -diff;
    }
    const bool round_ok = icc.labels == fcc && l1 <= pr_bound;
    ok = ok && round_ok;
    g_delta.store(delta.delta_edges(), std::memory_order_relaxed);
    g_active.store(ipr.active_vertices, std::memory_order_relaxed);
    sum_delta += delta.delta_edges();
    sum_active += ipr.active_vertices;
    sum_full += full_s;
    sum_incr += incr_s;
    fallbacks += ipr.full_fallback || icc.full_fallback ? 1 : 0;
    ++rounds;
    os << "# " << name << " round " << rounds
       << ": delta=" << delta.delta_edges()
       << " changed=" << delta.changed.size()
       << " elog_reads=" << delta.elog_reads
       << " active=" << ipr.active_vertices
       << " cc_recomputed=" << icc.recomputed_vertices
       << " full=" << TablePrinter::fmt(full_s, 4)
       << "s incr=" << TablePrinter::fmt(incr_s, 4)
       << "s (diff=" << TablePrinter::fmt(diff_s, 4)
       << " apply=" << TablePrinter::fmt(apply_s, 4)
       << " pr=" << TablePrinter::fmt(pr_s, 4)
       << " sweeps=" << ipr.iterations
       << " cc=" << TablePrinter::fmt(cc_s, 4) << ") speedup="
       << TablePrinter::fmt(full_s / std::max(incr_s, 1e-9))
       << (delta.used_fallback ? " diff=O(V)" : "")
       << (ipr.full_fallback || icc.full_fallback ? " kernel=fallback" : "")
       << " identical=" << (round_ok ? "yes" : "NO (BUG)") << "\n";
    prev_cut = std::move(cut);
    prev_scores = std::move(ipr.scores);
    prev_labels = std::move(icc.labels);
    if (!ok) break;
  } while (!ingested.load(std::memory_order_acquire));
  for (auto& f : feeds) f.join();
  monitor.join();
  ing.drain();

  const double rd = static_cast<double>(std::max(rounds, 1));
  table.add_row({name, std::to_string(rounds),
                 TablePrinter::fmt(static_cast<double>(sum_delta) / rd, 0),
                 TablePrinter::fmt(static_cast<double>(sum_active) / rd, 0),
                 TablePrinter::fmt(sum_full, 3),
                 TablePrinter::fmt(sum_incr, 3),
                 TablePrinter::fmt(sum_full / std::max(sum_incr, 1e-9)),
                 std::to_string(fallbacks), ok ? "yes" : "NO (BUG)"});
  return ok;
}

bool print_live_incremental_section(
    const BenchConfig& cfg,
    const std::function<const EdgeStream&(const std::string&)>& stream_for,
    std::ostream& os) {
  os << "\n--- DGAP incremental analytics over live ingest (--incremental, "
     << cfg.live_producers << " producers, 2 absorbers";
  if (cfg.live_pace_ns != 0)
    os << ", pace=" << cfg.live_pace_ns << "ns/chunk";
  os << ", 1 thread) ---\n";
  TablePrinter table({"Graph", "rounds", "delta/rnd", "active/rnd",
                      "full(s)", "incr(s)", "speedup", "fallback rnds",
                      "identical"});
  bool all_ok = true;
  {
    const par::ScopedKernelThreads one_thread(1);
    for (const auto& name : cfg.datasets) {
      all_ok =
          run_live_incremental(cfg, name, stream_for(name), table, os) &&
          all_ok;
      if (!all_ok) break;
    }
  }
  table.print(os);
  if (all_ok)
    os << "# incremental: every round's CC labels matched the full "
          "recompute exactly and PR stayed within L1 <= 2*tol/(1-d); "
          "incremental results seeded the next round\n";
  return all_ok;
}

}  // namespace

bool print_live_ingest_section(
    const BenchConfig& cfg,
    const std::function<const EdgeStream&(const std::string&)>& stream_for,
    std::ostream& os) {
  if (cfg.incremental)
    return print_live_incremental_section(cfg, stream_for, os);
  os << "\n--- DGAP analysis WHILE ingesting (--live-ingest, "
     << cfg.live_producers << " producers, 2 absorbers) ---\n";
  TablePrinter table({"Graph", "ingest MEPS", "PR rounds", "avg PR(s)",
                      "quiescent PR(s)", "PR slowdown"});
  for (const auto& name : cfg.datasets) {
    const EdgeStream& stream = stream_for(name);
    auto pool = fresh_pool(cfg.pool_mb);
    auto store = make_store("dgap", *pool, stream.num_vertices(),
                            stream.num_edges(), cfg.live_producers + 2,
                            cfg.tuning);
    const auto all = stream.all();
    const std::size_t half = all.size() / 2;
    constexpr std::size_t kChunk = 8192;
    for (std::size_t i = 0; i < half; i += kChunk)
      store->insert_batch(all.subspan(i, std::min(kChunk, half - i)));
    const LiveIngestResult r = run_live_ingest(
        *store, all.subspan(half), cfg.live_producers, /*absorbers=*/2,
        /*batch=*/512);
    table.add_row(
        {name, TablePrinter::fmt(r.ingest_meps),
         std::to_string(r.analysis_rounds),
         TablePrinter::fmt(r.avg_kernel_seconds, 3),
         TablePrinter::fmt(r.quiescent_kernel_seconds, 3),
         TablePrinter::fmt(r.avg_kernel_seconds /
                           std::max(r.quiescent_kernel_seconds, 1e-9))});
    for (std::size_t i = 0; i < r.rounds.size(); ++i) {
      const LiveRound& lr = r.rounds[i];
      os << "# " << name << " round " << (i + 1)
         << ": absorb p50/p99/p999 = " << TablePrinter::fmt(lr.absorb_p50_us)
         << "/" << TablePrinter::fmt(lr.absorb_p99_us) << "/"
         << TablePrinter::fmt(lr.absorb_p999_us)
         << " us, freeze p99 = " << TablePrinter::fmt(lr.freeze_p99_us)
         << " us\n";
    }
  }
  table.print(os);
  return true;
}

LoadedDgap load_dgap_for_analysis(const EdgeStream& stream,
                                  std::uint64_t pool_mb,
                                  const StoreTuning& tuning) {
  LoadedDgap l;
  l.pool = fresh_pool_for(pool_mb, tuning);
  core::DgapOptions o;
  o.init_vertices = stream.num_vertices();
  o.init_edges = stream.num_edges();
  o.ingest_profile = tuning.profile;
  o.section_slots_hint = tuning.section_slots;
  o.dram_cache_mb = tuning.dram_cache_mb;
  apply_cold_tuning(o, tuning, pool_mb);
  l.store = core::DgapStore::create(*l.pool, o);
  constexpr std::size_t kChunk = 8192;
  const auto all = stream.all();
  for (std::size_t i = 0; i < all.size(); i += kChunk)
    l.store->insert_batch(all.subspan(i, std::min(kChunk, all.size() - i)));
  return l;
}

void configure_latency(bool enabled) {
  pmem::LatencyConfig lc;  // Optane-like defaults from the header
  lc.enabled = enabled;
  pmem::latency_model().configure(lc);
}

void configure_latency_with_read(bool enabled,
                                 std::uint64_t read_ns_per_line) {
  pmem::LatencyConfig lc;
  lc.enabled = enabled || read_ns_per_line != 0;
  lc.read_ns_per_line = read_ns_per_line;
  pmem::latency_model().configure(lc);
}

std::unique_ptr<pmem::PmemPool> fresh_pool(std::uint64_t mb) {
  return pmem::PmemPool::create({.path = "", .size = mb << 20});
}

std::unique_ptr<pmem::PmemPool> fresh_pool_for(std::uint64_t mb,
                                               const StoreTuning& tuning) {
  // With the cold tier on, --pool-mb is the PHYSICAL budget: give the pool
  // a larger virtual span and let demotion keep residency within budget.
  return fresh_pool(tuning.cold_tier ? mb * kColdVirtualFactor : mb);
}

void apply_cold_tuning(core::DgapOptions& o, const StoreTuning& tuning,
                       std::uint64_t pool_mb) {
  if (!tuning.cold_tier) return;
  o.cold_tier = true;
  o.cold_tier_path = tuning.cold_file;
  o.cold_tier_budget_bytes = pool_mb << 20;
}

void print_banner(const std::string& title, const BenchConfig& cfg) {
  std::cout << "### " << title << "\n"
            << "# scale=" << cfg.scale << " latency_model="
            << (cfg.latency ? "on" : "off")
            << " hw_threads=" << std::thread::hardware_concurrency();
  if (cfg.threads != 0) std::cout << " threads=" << cfg.threads;
  if (cfg.sched_kernels) std::cout << " kernels=sched";
  if (cfg.tuning.profile == core::IngestProfile::ingest_heavy)
    std::cout << " ingest-profile=ingest-heavy";
  if (cfg.tuning.section_slots != 0)
    std::cout << " section-slots=" << cfg.tuning.section_slots;
  if (cfg.autotune)
    std::cout << " autotune=on";
  else if (cfg.absorb_min != 0)
    std::cout << " absorb-min=" << cfg.absorb_min;
  if (cfg.tuning.dram_cache_mb != 0)
    std::cout << " dram-cache=" << cfg.tuning.dram_cache_mb << "MB";
  if (cfg.tuning.cold_tier) std::cout << " cold-tier=on";
  if (cfg.dram_view) std::cout << " dram-view=on";
  if (cfg.live_ingest)
    std::cout << " live-ingest=on live-producers=" << cfg.live_producers;
  if (cfg.incremental) std::cout << " incremental=on";
  if (cfg.live_pace_ns != 0)
    std::cout << " live-pace-ns=" << cfg.live_pace_ns;
  if (!cfg.metrics_out.empty())
    std::cout << " metrics-out=" << cfg.metrics_out
              << " metrics-interval-ms=" << cfg.metrics_interval_ms;
  if (!cfg.trace_out.empty()) std::cout << " trace-out=" << cfg.trace_out;
  std::cout << "\n";
}

namespace {

// Run `fn` with a given kernel thread count, restoring the previous count
// (par:: routes it to OpenMP or the scheduler per the active kernel mode).
template <typename Fn>
double timed_with_threads(int threads, Fn&& fn) {
  const par::ScopedKernelThreads scoped(threads);
  Timer t;
  fn();
  return t.seconds();
}

// Kernel timing over any GraphView — shared by every store model below.
template <typename View>
struct KernelMixin {
  static double pr(const View& v, int threads) {
    return timed_with_threads(threads,
                              [&] { (void)algorithms::pagerank(v); });
  }
  static double bfs_t(const View& v, int threads, NodeId source) {
    return timed_with_threads(threads,
                              [&] { (void)algorithms::bfs(v, source); });
  }
  static double bc_t(const View& v, int threads, NodeId source) {
    return timed_with_threads(threads, [&] {
      (void)algorithms::betweenness_centrality(v, source);
    });
  }
  static double cc_t(const View& v, int threads) {
    return timed_with_threads(
        threads, [&] { (void)algorithms::connected_components(v); });
  }
};

class DgapModel final : public IStore {
 public:
  DgapModel(pmem::PmemPool& pool, NodeId vertices,
            std::uint64_t edges_estimate, int writer_threads,
            const StoreTuning& tuning) {
    core::DgapOptions o;
    o.init_vertices = vertices;
    o.init_edges = edges_estimate;
    o.max_writer_threads =
        static_cast<std::uint32_t>(std::max(writer_threads, 1) + 1);
    o.ingest_profile = tuning.profile;
    o.section_slots_hint = tuning.section_slots;
    o.dram_cache_mb = tuning.dram_cache_mb;
    // Cold-tier pools come from fresh_pool_for(), whose span is the
    // physical budget times kColdVirtualFactor — recover the budget.
    if (tuning.cold_tier)
      apply_cold_tuning(o, tuning,
                        (pool.size() / kColdVirtualFactor) >> 20);
    store_ = core::DgapStore::create(pool, o);
  }
  void insert(NodeId s, NodeId d) override { store_->insert_edge(s, d); }
  void insert_batch(std::span<const Edge> edges) override {
    store_->insert_batch(edges);
  }
  // insert_batch/delete_batch are thread-safe, so concurrent_batch_safe
  // keeps the async sink unserialized; the shared sink adds delete support.
  ingest::AsyncIngestor::BatchFn batch_sink() override {
    return ingest::dgap_batch_sink(*store_);
  }
  [[nodiscard]] bool concurrent_batch_safe() const override { return true; }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return store_->num_edge_slots();
  }
  [[nodiscard]] tier::CacheStats cache_stats() const override {
    return store_->cache_stats();
  }
  [[nodiscard]] obs::HistogramSnapshot freeze_hist() const override {
    return store_->freeze_latency();
  }
  NodeId pick_source() override {
    return algorithms::max_degree_vertex(store_->consistent_view());
  }
  double time_pagerank(int threads) override {
    const auto v = store_->consistent_view();
    return KernelMixin<core::Snapshot>::pr(v, threads);
  }
  double time_bfs(int threads, NodeId source) override {
    const auto v = store_->consistent_view();
    return KernelMixin<core::Snapshot>::bfs_t(v, threads, source);
  }
  double time_bc(int threads, NodeId source) override {
    const auto v = store_->consistent_view();
    return KernelMixin<core::Snapshot>::bc_t(v, threads, source);
  }
  double time_cc(int threads) override {
    const auto v = store_->consistent_view();
    return KernelMixin<core::Snapshot>::cc_t(v, threads);
  }
  core::DgapStore& store() { return *store_; }

 private:
  std::unique_ptr<core::DgapStore> store_;
};

template <typename Store>
class BaselineModel final : public IStore {
 public:
  explicit BaselineModel(std::unique_ptr<Store> store)
      : store_(std::move(store)) {}
  void insert(NodeId s, NodeId d) override { store_->insert_edge(s, d); }
  void insert_batch(std::span<const Edge> edges) override {
    store_->insert_batch(edges);
  }
  // BAL takes concurrent writers (per-vertex block locks); the other
  // baselines are single-ingest, so their async sink stays serialized.
  [[nodiscard]] bool concurrent_batch_safe() const override {
    return std::is_same_v<Store, baselines::BalStore>;
  }
  void finalize() override {
    if constexpr (std::is_same_v<Store, baselines::LlamaStore>)
      store_->snapshot();
    else if constexpr (std::is_same_v<Store, baselines::GraphOneStore>)
      store_->flush_durable();
    else if constexpr (std::is_same_v<Store, baselines::XpGraphStore>)
      store_->archive_now();
  }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return store_->num_edges_directed();
  }
  NodeId pick_source() override {
    return algorithms::max_degree_vertex(*store_);
  }
  double time_pagerank(int threads) override {
    return KernelMixin<Store>::pr(*store_, threads);
  }
  double time_bfs(int threads, NodeId source) override {
    return KernelMixin<Store>::bfs_t(*store_, threads, source);
  }
  double time_bc(int threads, NodeId source) override {
    return KernelMixin<Store>::bc_t(*store_, threads, source);
  }
  double time_cc(int threads) override {
    return KernelMixin<Store>::cc_t(*store_, threads);
  }

 private:
  std::unique_ptr<Store> store_;
};

class CsrModel final : public IStore {
 public:
  CsrModel(pmem::PmemPool& pool, const EdgeStream& stream)
      : csr_(baselines::PmemCsr::build(pool, stream)) {}
  void insert(NodeId, NodeId) override {
    throw std::logic_error("CSR is immutable");
  }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return csr_->num_edges_directed();
  }
  NodeId pick_source() override {
    return algorithms::max_degree_vertex(*csr_);
  }
  double time_pagerank(int threads) override {
    return KernelMixin<baselines::PmemCsr>::pr(*csr_, threads);
  }
  double time_bfs(int threads, NodeId source) override {
    return KernelMixin<baselines::PmemCsr>::bfs_t(*csr_, threads, source);
  }
  double time_bc(int threads, NodeId source) override {
    return KernelMixin<baselines::PmemCsr>::bc_t(*csr_, threads, source);
  }
  double time_cc(int threads) override {
    return KernelMixin<baselines::PmemCsr>::cc_t(*csr_, threads);
  }

 private:
  std::unique_ptr<baselines::PmemCsr> csr_;
};

}  // namespace

std::unique_ptr<IStore> make_store(const std::string& kind,
                                   pmem::PmemPool& pool, NodeId vertices,
                                   std::uint64_t edges_estimate,
                                   int writer_threads,
                                   const StoreTuning& tuning) {
  if (kind == "dgap")
    return std::make_unique<DgapModel>(pool, vertices, edges_estimate,
                                       writer_threads, tuning);
  if (kind == "bal")
    return std::make_unique<BaselineModel<baselines::BalStore>>(
        baselines::BalStore::create(pool, vertices));
  if (kind == "llama")
    return std::make_unique<BaselineModel<baselines::LlamaStore>>(
        baselines::LlamaStore::create(
            pool, vertices,
            std::max<std::uint64_t>(edges_estimate / 100, 1)));
  if (kind == "graphone")
    return std::make_unique<BaselineModel<baselines::GraphOneStore>>(
        baselines::GraphOneStore::create(pool, vertices));
  if (kind == "xpgraph") {
    baselines::XpGraphStore::Options o;
    o.init_vertices = vertices;
    o.archive_threshold = 1 << 10;  // the paper's chosen threshold (Fig 5)
    // Scaled-down analogue of the 8 GB circular log: half the estimated
    // graph fits, so archiving pressure appears for big graphs only —
    // mirroring the paper's Table 3 observation.
    o.log_capacity_edges =
        std::max<std::uint64_t>(edges_estimate / 2, 1 << 16);
    return std::make_unique<BaselineModel<baselines::XpGraphStore>>(
        baselines::XpGraphStore::create(pool, o));
  }
  throw std::invalid_argument("unknown system: " + kind);
}

std::unique_ptr<IStore> make_csr(pmem::PmemPool& pool,
                                 const EdgeStream& stream) {
  return std::make_unique<CsrModel>(pool, stream);
}

}  // namespace dgap::bench
