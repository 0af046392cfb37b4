// `htap`: reads beside writes, open loop.
//
// Set-up preloads half of a livejournal-like RMAT stream and seeds the
// analysis state (full PR/CC over the preloaded cut, a DeltaMirror). One
// producer then submits the other half through AsyncIngestor in fixed-size
// chunks at a fixed offered rate, never waiting for analysis; about one
// chunk in ten is instead a submit_deletes of pairs inserted earlier. An
// acker thread waits each chunk's ticket; the analysis thread runs a round
// every kRoundPeriod: capture -> snapshot_delta -> DeltaMirror::apply ->
// incremental PR and CC. After the drain the final cut must equal the
// insert/delete oracle and the last incremental results must match the
// full kernels.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "perfbench/src/trace.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/algorithms/cc.hpp"
#include "src/algorithms/incremental/cc_incr.hpp"
#include "src/algorithms/incremental/delta_mirror.hpp"
#include "src/algorithms/incremental/pagerank_incr.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/graph/datasets.hpp"
#include "src/graph/generators.hpp"
#include "src/ingest/async_ingestor.hpp"
#include "src/pmem/pool.hpp"
#include "src/sched/parallel.hpp"

namespace perfbench {
namespace {

// Offered rate, picked once on a 4-core host (see README.md): single runs
// kept up with 1.4M edges/s with analysis running, but across seeds 600k/s
// already queued in some runs (chunk-ack p90 1 ms in most, 9 ms in others),
// so the rate the async path reliably sustains is about 600k/s and this is
// half of it.
constexpr double kOfferedEdgesPerSec = 300000;
constexpr std::size_t kChunkEdges = 512;  // even: chunks never split a pair
constexpr int kDeleteEvery = 10;          // ~1 chunk in 10 deletes
// Analysis refreshes on a fixed schedule (a late round starts at once).
// Back to back, a slower round folds a larger delta into the next one, so
// round time fed back into itself and moved the round median by 25%
// between runs of the same code; on a schedule every round folds about
// rate x period edges.
constexpr auto kRoundPeriod = std::chrono::milliseconds(500);

const dgap::algorithms::PageRankParams kFullPr{.iterations = 50,
                                               .tolerance = 1e-4};
const dgap::algorithms::IncrementalPageRankParams kIncrPr{
    .tolerance = kFullPr.tolerance, .max_iterations = kFullPr.iterations};

struct ChunkPlan {
  bool del = false;
  std::size_t begin = 0;  // body edges submitted before this chunk
};

struct Submitted {
  dgap::ingest::Epoch ticket = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t chunk = 0;
};

// Acker: waits the tickets of submitted chunks in order and records the
// time from each chunk's due time to its durability.
class Acker {
 public:
  explicit Acker(dgap::ingest::AsyncIngestor& ing)
      : ing_(ing), th_([this] { loop(); }) {}
  ~Acker() { finish(); }
  Acker(const Acker&) = delete;
  Acker& operator=(const Acker&) = delete;

  void push(const Submitted& s) {
    {
      std::lock_guard<std::mutex> g(mu_);
      q_.push_back(s);
    }
    cv_.notify_one();
  }
  // Stop after everything pushed so far is acknowledged.
  void finish() {
    {
      std::lock_guard<std::mutex> g(mu_);
      done_ = true;
    }
    cv_.notify_one();
    if (th_.joinable()) th_.join();
  }
  std::vector<double> ack_ms;  // read after finish()
  std::uint64_t failures = 0;

 private:
  void loop() {
    for (;;) {
      Submitted s;
      {
        std::unique_lock<std::mutex> l(mu_);
        cv_.wait(l, [&] { return done_ || !q_.empty(); });
        if (q_.empty()) return;
        s = q_.front();
        q_.pop_front();
      }
      try {
        Span sp("ingest.wait_durable", s.chunk);
        ing_.wait_durable(s.ticket);
      } catch (...) {
        ++failures;
      }
      ack_ms.push_back(static_cast<double>(now_ns() - s.due_ns) / 1e6);
    }
  }

  dgap::ingest::AsyncIngestor& ing_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Submitted> q_;
  bool done_ = false;
  std::thread th_;
};

struct State {
  std::unique_ptr<dgap::pmem::PmemPool> pool;
  std::unique_ptr<dgap::core::DgapStore> store;
  std::unique_ptr<dgap::ingest::AsyncIngestor> ing;
  dgap::core::Snapshot prev_cut;
  std::vector<double> prev_scores;
  std::vector<dgap::NodeId> prev_labels;
  dgap::algorithms::DeltaMirror mirror;

  // Tear down users before what they use: the ingestor drains into the
  // store, snapshots unpin from it, and the store lives in the pool.
  void reset() {
    ing.reset();
    prev_cut = dgap::core::Snapshot{};
    store.reset();
    pool.reset();
  }
};

}  // namespace

void run_htap(const RunArgs& args, Record& r) {
  // The smoke size offers 1/20 of the rate for one second.
  const bool tiny = args.size == Size::tiny;
  const double rate = tiny ? kOfferedEdgesPerSec / 20 : kOfferedEdgesPerSec;
  const double offered_seconds = tiny ? 1.0 : args.seconds;
  const auto total_chunks = static_cast<std::size_t>(
      std::max(4.0, offered_seconds * rate / kChunkEdges));

  // Chunk plan and delete picks are fixed by the seed alone.
  std::mt19937_64 rng(mix_seed(args.seed, 3));
  std::vector<ChunkPlan> plan(total_chunks);
  std::size_t body_edges = 0;
  for (std::size_t c = 0; c < total_chunks; ++c) {
    plan[c].del = c > 0 && rng() % kDeleteEvery == 0;
    plan[c].begin = body_edges;
    if (!plan[c].del) body_edges += kChunkEdges;
  }
  const int absorbers = std::max(1, host_threads() / 2);
  const int kernel_threads = std::max(1, host_threads() - absorbers);

  // Livejournal-like (|E|/|V| ~ 18), preload half + body half. Pairs stay
  // adjacent (the RMAT draw order is already random), so a chunk boundary
  // never separates the two directions of an undirected edge.
  const dgap::DatasetSpec& spec = dgap::dataset_spec("livejournal");
  const std::uint64_t stream_edges = 2 * body_edges;
  const auto vertices = std::max<dgap::NodeId>(
      64, static_cast<dgap::NodeId>(static_cast<double>(stream_edges) *
                                    spec.base_vertices / spec.base_edges));
  dgap::EdgeStream stream;
  State st;
  run_setups(args, r, [&] {
    SetupTimes t;
    st.reset();
    const auto t0 = Clock::now();
    {
      Span s("graph.generate");
      stream = dgap::symmetrize(dgap::generate_rmat(
          vertices, stream_edges / 2, mix_seed(args.seed, 1),
          {spec.rmat_a, (1 - spec.rmat_a) / 3, (1 - spec.rmat_a) / 3}));
    }
    t.generate_s = seconds_since(t0);
    const auto preload = stream.all().first(stream.num_edges() - body_edges);
    {
      Span s("core.create");
      st.pool = dgap::pmem::PmemPool::create(
          {.path = "", .size = std::max<std::uint64_t>(256ull << 20,
                                                       stream_edges * 64)});
      st.store = dgap::core::DgapStore::create(
          *st.pool, store_options(vertices, stream_edges, host_threads()));
    }
    const auto tp = Clock::now();
    {
      // Chunks striped over host_threads() loaders (insert_batch is
      // thread-safe); the per-vertex order may differ run to run, which no
      // check depends on.
      constexpr std::size_t kPreloadChunk = 8192;
      const std::size_t loaders = static_cast<std::size_t>(host_threads());
      std::vector<std::thread> threads;
      const std::uint64_t parent = Span::current_id();
      for (std::size_t w = 0; w < loaders; ++w) {
        threads.emplace_back([&, w] {
          for (std::size_t i = w * kPreloadChunk; i < preload.size();
               i += loaders * kPreloadChunk) {
            Span s("core.insert_batch", 0, parent);
            st.store->insert_batch(preload.subspan(
                i, std::min(kPreloadChunk, preload.size() - i)));
          }
        });
      }
      for (auto& th : threads) th.join();
    }
    t.preload_s = seconds_since(tp);
    {
      Span s("algorithms.seed");
      st.prev_cut = st.store->consistent_view();
      st.prev_scores = dgap::algorithms::pagerank(st.prev_cut, kFullPr);
      st.prev_labels = dgap::algorithms::connected_components(st.prev_cut);
      st.mirror = dgap::algorithms::DeltaMirror::build(st.prev_cut);
    }
    dgap::ingest::AsyncIngestor::Options io;
    io.absorbers = static_cast<std::size_t>(absorbers);
    st.ing = dgap::ingest::make_dgap_ingestor(*st.store, io);
    t.total_s = seconds_since(t0);
    return t;
  });

  const std::size_t preload_edges = stream.num_edges() - body_edges;
  const auto body = stream.all().subspan(preload_edges);
  std::vector<std::uint8_t> pair_deleted(stream.num_edges() / 2, 0);
  std::vector<dgap::Edge> deleted;  // oracle: every deleted directed edge
  std::size_t next_chunk = 0;
  std::uint64_t round_id = 0;

  run_phases(args, r, [&](double seconds, bool) {
    PhaseOut out;
    const std::size_t want = std::max<std::size_t>(
        2, static_cast<std::size_t>(seconds / offered_seconds * total_chunks));
    const std::size_t first = next_chunk;
    const std::size_t last = std::min(total_chunks, first + want);
    next_chunk = last;

    const dgap::par::ScopedKernelThreads kt(kernel_threads);
    const Probe before = Probe::take(*st.store);
    const dgap::ingest::IngestStats ing_before = st.ing->stats();
    const dgap::obs::HistogramSnapshot absorb_before =
        st.ing->absorb_latency();

    std::mutex sub_mu;
    std::vector<Submitted> submitted;  // guarded by sub_mu
    std::atomic<bool> producer_done{false};
    std::atomic<std::uint64_t> submit_failures{0};
    std::vector<double> submit_us;
    double late_ms_max = 0;
    Acker acker(*st.ing);

    const std::uint64_t t0_ns = now_ns() + 1000000;  // first chunk due in 1ms
    const double ns_per_chunk = 1e9 * kChunkEdges / rate;
    std::thread producer([&] {
      Span ps("bench.produce");
      std::vector<dgap::Edge> del_chunk;
      for (std::size_t c = first; c < last; ++c) {
        const auto due = t0_ns + static_cast<std::uint64_t>(
                                     static_cast<double>(c - first) * ns_per_chunk);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        late_ms_max = std::max(late_ms_max,
                               (static_cast<double>(now_ns()) - due) / 1e6);
        Submitted s{0, due, c};
        const std::uint64_t a = now_ns();
        try {
          if (plan[c].del) {
            // Pairs whose both directions were submitted in earlier chunks.
            const std::size_t inserted_pairs =
                (preload_edges + plan[c].begin) / 2;
            std::mt19937_64 pick(mix_seed(args.seed, 1000 + c));
            del_chunk.clear();
            while (del_chunk.size() < kChunkEdges) {
              const std::size_t p = pick() % inserted_pairs;
              if (pair_deleted[p]) continue;
              pair_deleted[p] = 1;
              del_chunk.push_back(stream.all()[2 * p]);
              del_chunk.push_back(stream.all()[2 * p + 1]);
            }
            deleted.insert(deleted.end(), del_chunk.begin(), del_chunk.end());
            Span sp("ingest.submit", c);
            s.ticket = st.ing->submit_deletes(del_chunk);
          } else {
            Span sp("ingest.submit", c);
            s.ticket = st.ing->submit(body.subspan(plan[c].begin, kChunkEdges));
          }
        } catch (...) {
          submit_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        submit_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
        acker.push(s);
        std::lock_guard<std::mutex> g(sub_mu);
        submitted.push_back(s);
      }
      producer_done.store(true, std::memory_order_release);
    });
    std::vector<double> round_ms, capture_us, delta_ms, delta_edges, apply_ms,
        pr_ms, cc_ms, visible_ms;
    std::uint64_t delta_fallbacks = 0;
    std::uint64_t incr_fallbacks = 0;
    std::size_t visible_cursor = 0;
    double cut_edges = 0;
    bool drained = false;
    auto next_round = Clock::now();
    for (;;) {
      const bool last_round = drained;
      if (!last_round) std::this_thread::sleep_until(next_round);
      next_round = std::max(next_round + kRoundPeriod, Clock::now());
      ++round_id;
      Span round("bench.round", round_id);
      const auto t0 = Clock::now();
      const dgap::ingest::Epoch durable = st.ing->durable_epoch();
      dgap::core::Snapshot cut;
      {
        Span s("snapshot.capture", round_id);
        cut = st.store->consistent_view();
      }
      const std::uint64_t cut_ns = now_ns();
      capture_us.push_back(seconds_since(t0) * 1e6);
      dgap::core::SnapshotDelta delta;
      {
        Span s("snapshot.delta", round_id);
        const auto d0 = Clock::now();
        delta = dgap::core::snapshot_delta(st.prev_cut, cut);
        delta_ms.push_back(seconds_since(d0) * 1e3);
      }
      {
        Span s("algorithms.apply", round_id);
        const auto a0 = Clock::now();
        st.mirror.apply(delta, cut);
        apply_ms.push_back(seconds_since(a0) * 1e3);
      }
      dgap::algorithms::IncrementalPageRankResult ipr;
      {
        Span s("algorithms.incr_pr", round_id);
        const auto p0 = Clock::now();
        ipr = dgap::algorithms::incremental_pagerank(st.mirror, delta,
                                                     st.prev_scores, kIncrPr);
        pr_ms.push_back(seconds_since(p0) * 1e3);
      }
      dgap::algorithms::IncrementalCcResult icc;
      {
        Span s("algorithms.incr_cc", round_id);
        const auto c0 = Clock::now();
        icc = dgap::algorithms::incremental_cc(st.mirror, delta,
                                               st.prev_labels);
        cc_ms.push_back(seconds_since(c0) * 1e3);
      }
      round_ms.push_back(seconds_since(t0) * 1e3);
      delta_edges.push_back(static_cast<double>(delta.delta_edges()));
      delta_fallbacks += delta.used_fallback ? 1 : 0;
      incr_fallbacks += ipr.full_fallback || icc.full_fallback ? 1 : 0;
      cut_edges = static_cast<double>(cut.num_edges_directed());
      {
        std::lock_guard<std::mutex> g(sub_mu);
        while (visible_cursor < submitted.size() &&
               submitted[visible_cursor].ticket <= durable) {
          visible_ms.push_back(
              static_cast<double>(cut_ns - submitted[visible_cursor].due_ns) /
              1e6);
          ++visible_cursor;
        }
      }
      st.prev_cut = std::move(cut);
      st.prev_scores = std::move(ipr.scores);
      st.prev_labels = std::move(icc.labels);
      ++r.attempted;
      if (last_round) break;
      if (producer_done.load(std::memory_order_acquire)) {
        producer.join();
        st.ing->drain();
        drained = true;
      }
    }
    acker.finish();
    r.attempted += last - first;
    if (acker.failures > 0) r.fail("htap: wait_durable threw");
    if (submit_failures > 0) r.fail("htap: submit threw");

    out.p50_ms = percentile(acker.ack_ms, 0.50);
    out.tail_ms = percentile(acker.ack_ms, 0.90);
    out.meps = cut_edges / (median(round_ms) / 1e3) / 1e6;
    out.latency_samples = acker.ack_ms.size();
    out.rounds = round_ms.size();
    out.timings["samples.visible"] = static_cast<double>(visible_ms.size());
    out.timings["algorithms.incr_round_ms_p50"] = median(round_ms);
    out.timings["algorithms.incr_round_ms_p99"] = percentile(round_ms, 0.99);
    out.timings["ingest.visible_ms_p99"] = percentile(visible_ms, 0.99);
    out.timings["ingest.ack_ms_p99"] = percentile(acker.ack_ms, 0.99);

    const dgap::ingest::IngestStats ing_after = st.ing->stats();
    const dgap::obs::HistogramSnapshot absorb =
        st.ing->absorb_latency() - absorb_before;
    const auto batches = ing_after.absorb_batches - ing_before.absorb_batches;
    auto& c = out.counters;
    c["ingest.submit_us_p99"] = percentile(submit_us, 0.99);
    c["ingest.stalls"] = static_cast<double>(ing_after.stalls - ing_before.stalls);
    c["ingest.absorb_batch_edges"] =
        batches == 0 ? 0.0
                     : static_cast<double>(ing_after.absorbed_edges -
                                           ing_before.absorbed_edges) /
                           static_cast<double>(batches);
    c["ingest.absorb_us_p50"] = absorb.percentile(0.50) / 1e3;
    c["ingest.absorb_us_p99"] = absorb.percentile(0.99) / 1e3;
    c["ingest.gen_late_ms_max"] = late_ms_max;
    c["snapshot.capture_us_p50"] = percentile(capture_us, 0.50);
    c["snapshot.capture_us_p99"] = percentile(capture_us, 0.99);
    c["snapshot.delta_ms_p50"] = median(delta_ms);
    c["snapshot.delta_edges"] = median(delta_edges);
    c["snapshot.delta_fallbacks"] = static_cast<double>(delta_fallbacks);
    c["algorithms.incr_apply_ms"] = median(apply_ms);
    c["algorithms.incr_pr_ms"] = median(pr_ms);
    c["algorithms.incr_cc_ms"] = median(cc_ms);
    c["algorithms.incr_fallbacks"] = static_cast<double>(incr_fallbacks);
    out.layers.add(before, Probe::take(*st.store));
    out.edges_written = ing_after.absorbed_edges - ing_before.absorbed_edges;
    return out;
  });

  // Final checks on the last round's cut, taken after the drain.
  uncharge_reads();
  const dgap::core::Snapshot& cut = st.prev_cut;
  {
    std::vector<double> full_pr = dgap::algorithms::pagerank(cut, kFullPr);
    std::vector<dgap::NodeId> full_cc =
        dgap::algorithms::connected_components(cut);
    // Corrupt one oracle on request (tests prove each check fires).
    if (args.inject == "incr_pr" && !full_pr.empty()) full_pr[0] += 1;
    if (args.inject == "incr_cc" && !full_cc.empty()) full_cc[0] += 1;
    double l1 = 0;
    for (std::size_t i = 0; i < full_pr.size(); ++i)
      l1 += std::abs(st.prev_scores[i] - full_pr[i]);
    const double bound = 2.0 * kIncrPr.tolerance / (1.0 - kIncrPr.damping);
    ++r.attempted;
    if (full_pr.size() != st.prev_scores.size() || l1 > bound)
      r.fail("htap: incremental PR off the full kernel by L1 " +
             std::to_string(l1));
    ++r.attempted;
    if (full_cc != st.prev_labels)
      r.fail("htap: incremental CC labels differ from the full kernel");
  }
  progress("incremental results checked against the full kernels");

  // Oracle: everything submitted (preload + body inserts up to the last
  // submitted chunk) minus the deleted pairs, as per-vertex multisets.
  std::size_t inserted = preload_edges;
  for (std::size_t c = 0; c < next_chunk; ++c)
    if (!plan[c].del) inserted = preload_edges + plan[c].begin + kChunkEdges;
  const auto n = static_cast<std::size_t>(std::max(cut.num_nodes(), vertices));
  std::vector<std::vector<dgap::NodeId>> added(n);
  std::vector<std::vector<dgap::NodeId>> removed(n);
  for (const dgap::Edge& e : stream.all().first(inserted))
    added[e.src].push_back(e.dst);
  for (const dgap::Edge& e : deleted) removed[e.src].push_back(e.dst);
  if (args.inject == "cut") added[stream.all()[0].src].push_back(0);
  std::atomic<std::uint64_t> diverged{0};
  std::vector<std::thread> checkers;
  const auto stride = static_cast<std::size_t>(host_threads());
  for (std::size_t t = 0; t < stride; ++t) {
    checkers.emplace_back([&, t] {
      std::vector<dgap::NodeId> want;
      for (std::size_t v = t; v < n; v += stride) {
        std::sort(added[v].begin(), added[v].end());
        std::sort(removed[v].begin(), removed[v].end());
        want.clear();  // multiset difference: each delete cancels one insert
        std::set_difference(added[v].begin(), added[v].end(),
                            removed[v].begin(), removed[v].end(),
                            std::back_inserter(want));
        std::vector<dgap::NodeId> got;
        if (static_cast<dgap::NodeId>(v) < cut.num_nodes())
          got = cut.neighbors(static_cast<dgap::NodeId>(v));
        std::sort(got.begin(), got.end());
        if (got != want) diverged.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : checkers) th.join();
  ++r.attempted;
  if (diverged > 0)
    r.fail("htap: final cut differs from the insert/delete oracle at " +
           std::to_string(diverged.load()) + " vertices");
  st.reset();
}

}  // namespace perfbench
