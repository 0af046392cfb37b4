// Streaming analytics: the cellular-network scenario from the paper's
// introduction — hotspots must be identified *while* the traffic graph
// keeps changing.
//
// Ingestion runs through the asynchronous ingestion subsystem
// (src/ingest/async_ingestor.hpp): P producer threads submit batches of
// call/handover events to bounded per-section-group staging queues, and K
// background absorber threads drain them into the store through the batched
// fast path. Meanwhile the analysis thread periodically snapshots the graph
// and reports the current top-k "hotspot" cells by PageRank and the number
// of connected clusters — truly concurrent ingestion and analysis: the
// producers never block on PM flushes, the absorbers never pause for the
// analysis, and every snapshot is an immutable consistent view. The
// round-0 snapshot is deliberately HELD until the stream is drained:
// absorbers keep running straight through it (vertex growth, rebalances
// and resizes never wait on a held snapshot — snapshot.hpp), and at the
// end it still reads its original cut.
//
// --incremental switches the per-round analytics to the delta-based
// kernels (src/algorithms/incremental/): round 0 seeds with a full
// PR/CC, every later round diffs its cut against the previous round's
// (core::snapshot_delta) and advances the previous results over the delta
// only — the report gains delta-size and active-vertex columns, and after
// the drain the final round's results are verified against full recomputes
// (CC exactly, PR within the residual bound); divergence exits 1.
//
// Run:  ./examples/streaming_analytics [--events 200000] [--rounds 5]
//                                      [--producers 2] [--async-writers 2]
//                                      [--autotune] [--ingest-profile ...]
//                                      [--incremental]
//                                      [--threads N] [--sched]
//                                      [--metrics-out F [--metrics-interval-ms N]]
//                                      [--trace-out F]
//
// --threads sizes the process TaskScheduler (absorbers, offloaded
// structural work, and — with --sched — the analysis kernels all share its
// workers); --sched routes the per-round PR/CC onto the scheduler instead
// of OpenMP. Each round reports the scheduler's steal rate and queue depth
// next to the ingest telemetry, and --metrics-out samples the sched_*
// series alongside the store's.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "src/algorithms/cc.hpp"
#include "src/algorithms/incremental/cc_incr.hpp"
#include "src/algorithms/incremental/delta_mirror.hpp"
#include "src/algorithms/incremental/pagerank_incr.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/bench_common/harness.hpp"
#include "src/common/cli.hpp"
#include "src/common/timer.hpp"
#include "src/core/dgap_store.hpp"
#include "src/graph/generators.hpp"
#include "src/ingest/async_ingestor.hpp"
#include "src/sched/parallel.hpp"
#include "src/sched/task_scheduler.hpp"

using namespace dgap;

namespace {

// Positive-integer CLI argument or exit(2): a streaming daemon fed a
// nonsensical knob should refuse to start, not misbehave quietly.
std::int64_t require_positive(const Cli& cli, const std::string& key,
                              std::int64_t def) {
  if (!cli.has(key)) return def;
  try {
    return parse_positive_int(cli.get(key, ""), "--" + key);
  } catch (const std::exception& ex) {
    std::cerr << ex.what() << "\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto num_events =
      static_cast<std::size_t>(require_positive(cli, "events", 200000));
  const int rounds = static_cast<int>(require_positive(cli, "rounds", 5));
  const int producers =
      static_cast<int>(require_positive(cli, "producers", 2));
  const int absorbers =
      static_cast<int>(require_positive(cli, "async-writers", 2));
  const bool autotune = cli.get_bool("autotune", false);
  const bool incremental = cli.get_bool("incremental", false);
  // Scheduler sizing must precede the first TaskScheduler::global() touch
  // (the ingestor's constructor), or configure() rejects the change.
  if (cli.has("threads")) {
    const auto threads = require_positive(cli, "threads", 0);
    try {
      sched::TaskScheduler::configure(
          {.workers = static_cast<std::size_t>(threads)});
    } catch (const std::exception& ex) {
      std::cerr << "--threads: " << ex.what() << "\n";
      return 2;
    }
    par::set_num_threads(static_cast<int>(threads));
  }
  if (cli.get_bool("sched", false)) par::set_kernel_mode(par::Mode::sched);
  std::size_t absorb_min = 0;  // fixed gather threshold; 0 = drain eagerly
  if (cli.has("absorb-min"))
    absorb_min = static_cast<std::size_t>(require_positive(cli, "absorb-min", 0));
  core::IngestProfile profile = core::IngestProfile::balanced;
  if (cli.has("ingest-profile")) {
    try {
      profile = bench::parse_ingest_profile(cli.get("ingest-profile", ""));
    } catch (const std::exception& ex) {
      std::cerr << ex.what() << "\n";
      return 2;
    }
  }
  const NodeId cells = 4096;  // cell towers in the region

  // Live exporters (src/obs): JSON-lines metrics samples + a Prometheus
  // dump, and a chrome://tracing dump of structural events at exit.
  const std::string metrics_out = cli.get("metrics-out", "");
  const auto metrics_interval_ms = static_cast<std::uint64_t>(
      require_positive(cli, "metrics-interval-ms", 500));
  const std::string trace_out = cli.get("trace-out", "");
  const bench::ObsSession obs(metrics_out, metrics_interval_ms, trace_out);

  auto pool = pmem::PmemPool::create({.path = "", .size = 256 << 20});
  core::DgapOptions options;
  options.init_vertices = cells;
  options.init_edges = num_events;
  options.ingest_profile = profile;
  // Absorbers run as scheduler tasks, so any scheduler worker may write the
  // store (+1 slack for recovery paths driven from the main thread).
  options.max_writer_threads = static_cast<std::uint32_t>(
      std::max<std::size_t>(static_cast<std::size_t>(absorbers),
                            sched::TaskScheduler::global().num_workers()) +
      1);
  auto graph = core::DgapStore::create(*pool, options);

  ingest::AsyncIngestor::Options iopts;
  iopts.absorbers = static_cast<std::size_t>(absorbers);
  iopts.queues = static_cast<std::size_t>(absorbers) * 2;
  // Paced event feeds are exactly the trickle<->flood regime the
  // arrival-rate autotuner targets: big gathers while a burst lasts,
  // immediate drains between bursts. A fixed --absorb-min is the
  // hand-tuned alternative it is measured against.
  iopts.autotune = autotune;
  if (!autotune) iopts.absorb_min_edges = absorb_min;
  auto ingestor = ingest::make_dgap_ingestor(*graph, iopts);

  // Traffic events: skewed, like real cellular hotspots.
  EdgeStream events = symmetrize(generate_rmat(cells, num_events / 2, 99));
  const std::span<const Edge> all = events.all();

  // P producer front-ends, each pacing its share of the feed like a live
  // event stream; submit() copies the batch into staging and returns
  // immediately (or blocks briefly on queue backpressure).
  constexpr std::size_t kSubmitBatch = 512;
  std::atomic<int> producers_done{0};
  std::vector<std::thread> feeds;
  feeds.reserve(static_cast<std::size_t>(producers));
  const std::size_t chunks = (all.size() + kSubmitBatch - 1) / kSubmitBatch;
  for (int p = 0; p < producers; ++p) {
    feeds.emplace_back([&, p] {
      for (std::size_t c = static_cast<std::size_t>(p); c < chunks;
           c += static_cast<std::size_t>(producers)) {
        const std::size_t begin = c * kSubmitBatch;
        ingestor->submit(all.subspan(
            begin, std::min(kSubmitBatch, all.size() - begin)));
        spin_wait_ns(1'500'000);  // ~1.5 ms pacing per 512 events
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }

  if (incremental)
    std::cout << "round  absorbed   rate(e/s)  p99(us)     delta    active  "
                 "clusters  top hotspots (cell:score)\n";
  else
    std::cout << "round  absorbed   rate(e/s)  p99(us)  clusters  "
                 "top hotspots (cell:score)\n";
  // --incremental round-over-round state: the previous round's cut and the
  // results that advanced over it (full only at round 0).
  const algorithms::PageRankParams full_pr{.iterations = 50,
                                           .tolerance = 1e-4};
  const algorithms::IncrementalPageRankParams incr_pr{
      .tolerance = full_pr.tolerance, .max_iterations = full_pr.iterations};
  std::optional<core::Snapshot> prev_cut;
  std::vector<double> prev_scores;
  std::vector<NodeId> prev_labels;
  // Delta-maintained DRAM mirror the incremental kernels sweep (built once
  // at round 0, advanced in O(delta) per round — see delta_mirror.hpp).
  std::optional<algorithms::DeltaMirror> mirror;
  // Held across the whole stream: ingestion must never stall behind it.
  std::optional<core::Snapshot> round0_snap;
  std::uint64_t round0_edges = 0;
  std::uint64_t round0_checksum = 0;
  // Per-round live telemetry: absorbed rate since the previous round and
  // the absorb-batch p99 over the same interval (histogram-snapshot delta).
  Timer live_timer;
  double prev_t = 0;
  std::uint64_t prev_absorbed = 0;
  obs::HistogramSnapshot prev_absorb_hist = ingestor->absorb_latency();
  std::uint64_t prev_steals = sched::TaskScheduler::global().stats().steals;
  for (int round = 0; round < rounds; ++round) {
    // Wait until roughly the next chunk of traffic has been absorbed.
    const std::size_t target =
        std::min(all.size(), (round + 1) * all.size() / rounds);
    bool ingest_failed = false;
    for (;;) {
      const ingest::IngestStats st = ingestor->stats();
      if (st.failed) {  // an absorber's sink threw: stop waiting for edges
        ingest_failed = true;
        break;
      }
      if (st.absorbed_edges >= target) break;
      // Feed exhausted and staging drained: nothing more will arrive.
      if (producers_done.load(std::memory_order_acquire) == producers &&
          st.absorbed_edges >= st.submitted_edges)
        break;
      std::this_thread::yield();
    }
    if (ingest_failed) break;

    core::Snapshot snap = graph->consistent_view();
    if (!round0_snap) {
      round0_snap.emplace(graph->consistent_view());
      round0_edges = round0_snap->num_edges_directed();
      for (NodeId v = 0; v < round0_snap->num_nodes(); ++v)
        round0_snap->for_each_out(
            v, [&](NodeId d) { round0_checksum += static_cast<std::uint64_t>(d) * 31 + 1; });
    }
    std::vector<double> pr;
    std::vector<NodeId> comp;
    std::uint64_t delta_edges = 0;
    std::uint64_t active = 0;
    if (!incremental) {
      pr = algorithms::pagerank(snap, {.iterations = 10});
      comp = algorithms::connected_components(snap);
    } else if (!prev_cut) {
      // Round 0: full seed at the shared residual target.
      pr = algorithms::pagerank(snap, full_pr);
      comp = algorithms::connected_components(snap);
      mirror.emplace(algorithms::DeltaMirror::build(snap));
    } else {
      const core::SnapshotDelta delta = core::snapshot_delta(*prev_cut, snap);
      mirror->apply(delta, snap);
      auto ipr = algorithms::incremental_pagerank(*mirror, delta, prev_scores,
                                                  incr_pr);
      auto icc = algorithms::incremental_cc(*mirror, delta, prev_labels);
      delta_edges = delta.delta_edges();
      active = ipr.active_vertices;
      pr = std::move(ipr.scores);
      comp = std::move(icc.labels);
    }

    std::vector<NodeId> order(static_cast<std::size_t>(snap.num_nodes()));
    for (NodeId v = 0; v < snap.num_nodes(); ++v) order[v] = v;
    std::partial_sort(order.begin(), order.begin() + 3, order.end(),
                      [&](NodeId a, NodeId b) { return pr[a] > pr[b]; });
    std::vector<bool> seen(comp.size(), false);
    int clusters = 0;
    for (NodeId v = 0; v < snap.num_nodes(); ++v) {
      if (!seen[comp[v]]) {
        seen[comp[v]] = true;
        ++clusters;
      }
    }

    const std::uint64_t absorbed_now = ingestor->stats().absorbed_edges;
    const double now = live_timer.seconds();
    const double interval = std::max(now - prev_t, 1e-9);
    const double rate =
        static_cast<double>(absorbed_now - prev_absorbed) / interval;
    const obs::HistogramSnapshot absorb_now = ingestor->absorb_latency();
    const double p99_us =
        (absorb_now - prev_absorb_hist).percentile(0.99) / 1e3;
    prev_t = now;
    prev_absorbed = absorbed_now;
    prev_absorb_hist = absorb_now;

    std::cout << std::setw(5) << round << "  " << std::setw(8)
              << absorbed_now << "  " << std::setw(9) << std::fixed
              << std::setprecision(0) << rate << "  " << std::setw(7)
              << std::setprecision(1) << p99_us << "  ";
    if (incremental)
      std::cout << std::setw(8) << delta_edges << "  " << std::setw(8)
                << active << "  ";
    std::cout << std::setw(8) << clusters << "  ";
    for (int k = 0; k < 3; ++k)
      std::cout << order[k] << ":" << std::fixed << std::setprecision(5)
                << pr[order[k]] << (k < 2 ? ", " : "\n");

    // Scheduler health for the same interval: absorbers, offloaded
    // structural work and (with --sched) the kernels all share its workers,
    // so a climbing queue depth here is the first sign analysis is starving
    // ingest.
    const sched::SchedStats ss = sched::TaskScheduler::global().stats();
    const double steals_per_s =
        static_cast<double>(ss.steals - prev_steals) / interval;
    prev_steals = ss.steals;
    std::cout << "       sched: workers=" << ss.workers << " steals/s="
              << std::fixed << std::setprecision(0) << steals_per_s
              << " queue-depth=" << ss.queue_depth << "\n";

    if (incremental) {
      // This round's results (incremental past round 0) seed the next one.
      prev_cut.emplace(std::move(snap));
      prev_scores = std::move(pr);
      prev_labels = std::move(comp);
    }
  }

  for (auto& f : feeds) f.join();
  ingest::Epoch final_epoch = 0;
  try {
    final_epoch = ingestor->drain();
  } catch (const std::exception& ex) {
    std::cerr << "ingestion failed: " << ex.what() << "\n";
    return 1;
  }
  // The long-held snapshot must still read its original cut — through all
  // the growth, rebalances and resizes the stream caused since round 0.
  if (round0_snap) {
    std::uint64_t checksum = 0;
    for (NodeId v = 0; v < round0_snap->num_nodes(); ++v)
      round0_snap->for_each_out(
          v, [&](NodeId d) { checksum += static_cast<std::uint64_t>(d) * 31 + 1; });
    if (checksum != round0_checksum) {
      std::cerr << "held round-0 snapshot drifted (checksum "
                << round0_checksum << " -> " << checksum << ")\n";
      return 1;
    }
    std::cout << "held round-0 snapshot still frozen at " << round0_edges
              << " edges (ingestion never waited on it)\n";
    round0_snap.reset();
  }
  // --incremental: advance the last round's results over one final delta to
  // the drained cut, then verify against full recomputes — CC labels must
  // match exactly, PR must sit within the shared residual bound.
  if (incremental && prev_cut) {
    const core::Snapshot final_cut = graph->consistent_view();
    const core::SnapshotDelta delta =
        core::snapshot_delta(*prev_cut, final_cut);
    mirror->apply(delta, final_cut);
    const auto ipr = algorithms::incremental_pagerank(*mirror, delta,
                                                      prev_scores, incr_pr);
    const auto icc =
        algorithms::incremental_cc(*mirror, delta, prev_labels);
    const auto fpr = algorithms::pagerank(final_cut, full_pr);
    const auto fcc = algorithms::connected_components(final_cut);
    double l1 = 0;
    for (std::size_t i = 0; i < fpr.size(); ++i)
      l1 += std::abs(ipr.scores[i] - fpr[i]);
    const double bound = 2.0 * incr_pr.tolerance / (1.0 - incr_pr.damping);
    if (icc.labels != fcc || l1 > bound) {
      std::cerr << "incremental kernels diverged from full recompute "
                << "(cc " << (icc.labels == fcc ? "match" : "MISMATCH")
                << ", pr l1=" << l1 << " bound=" << bound << ")\n";
      return 1;
    }
    std::cout << "incremental final check: delta=" << delta.delta_edges()
              << " cc identical=yes, pr l1=" << std::scientific
              << std::setprecision(2) << l1 << " (bound " << bound << ")"
              << std::defaultfloat << "\n";
  }

  const ingest::IngestStats is = ingestor->stats();
  std::cout << "stream drained; total edges " << graph->num_edge_slots()
            << "\n"
            << "ingest: submitted=" << is.submitted_edges
            << " absorbed=" << is.absorbed_edges << " epochs=" << final_epoch
            << " absorb-batches=" << is.absorb_batches
            << " stalls=" << is.stalls
            << " queue-high-watermark=" << is.queue_high_watermark
            << " avg-absorb-batch="
            << (is.absorb_batches > 0 ? is.absorbed_edges / is.absorb_batches
                                      : 0)
            << "\n";
  if (is.absorbed_edges != all.size()) {
    std::cerr << "lost events: absorbed " << is.absorbed_edges << " of "
              << all.size() << "\n";
    return 1;
  }
  return 0;
}
