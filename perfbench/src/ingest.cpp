// `ingest`: write-only, closed loop, the paper's per-edge API.
//
// Each trial feeds an empty store a heavy-skew RMAT stream from host_threads()
// writer threads calling DgapStore::insert_edge, one timed call per edge.
// The store is then dropped without shutdown() and reopened on the crash
// path, and the reopened store must hold exactly the stream's per-vertex
// neighbour multisets. Trials repeat until the phase time is used up.
//
// The store is told the vertex count up front but keeps the library's
// default edge estimate, so the edge array resizes several times per trial.
// Growing the vertex table from its default as well appends every new
// vertex's pivot at the array tail; on a heavy-skew stream that makes single
// calls take over a second, so one pathological path would dominate the
// workload (see README.md).
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench/src/trace.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/pmem/pool.hpp"

namespace perfbench {
namespace {

// Twitter-like stand-in (RMAT a=0.62); `full` ~1.2M directed edges per
// trial, which resizes the edge array five times.
double ingest_scale(Size s) { return s == Size::tiny ? 0.01 : 0.5; }
constexpr std::uint32_t kSpanSample = 64;  // one insert_edge span per 64 calls

// Per-vertex sorted neighbour lists of a stream: the crash-reopen oracle.
std::vector<std::vector<dgap::NodeId>> adjacency_oracle(
    const dgap::EdgeStream& s) {
  std::vector<std::vector<dgap::NodeId>> adj(
      static_cast<std::size_t>(s.max_vertex_bound()));
  for (const dgap::Edge& e : s.all()) adj[e.src].push_back(e.dst);
  for (auto& a : adj) std::sort(a.begin(), a.end());
  return adj;
}

// Edges present on one side only (multiset symmetric difference).
std::uint64_t multiset_mismatch(const std::vector<dgap::NodeId>& a,
                                const std::vector<dgap::NodeId>& b) {
  std::uint64_t miss = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
      ++miss;
    } else {
      ++j;
      ++miss;
    }
  }
  return miss + (a.size() - i) + (b.size() - j);
}

struct Trial {
  double meps = 0;
  double recover_s = 0;
};

}  // namespace

void run_ingest(const RunArgs& args, Record& r) {
  const int writers = host_threads();
  dgap::EdgeStream stream;
  run_setups(args, r, [&] {
    SetupTimes t;
    const auto t0 = Clock::now();
    {
      Span s("graph.generate");
      stream = generate_stream("twitter", ingest_scale(args.size), args.seed);
    }
    t.generate_s = t.total_s = seconds_since(t0);
    return t;
  });

  auto oracle = adjacency_oracle(stream);
  if (args.inject == "reopen") oracle[stream.all()[0].src].push_back(0);
  const auto edges = stream.all();
  const std::uint64_t pool_bytes =
      std::max<std::uint64_t>(256ull << 20, edges.size() * 256);

  std::uint64_t trial_id = 0;
  run_phases(args, r, [&](double seconds, bool traced) {
    PhaseOut out;
    LatencyHist lat;
    std::vector<Trial> trials;
    const auto phase_start = Clock::now();
    do {
      ++trial_id;
      Span trial_span("bench.trial", trial_id);
      auto pool = dgap::pmem::PmemPool::create({.path = "", .size = pool_bytes});
      const dgap::core::DgapOptions opts =
          store_options(static_cast<dgap::NodeId>(oracle.size()), 0, writers);
      auto store = dgap::core::DgapStore::create(*pool, opts);
      const Probe before = Probe::take(*store);

      std::vector<LatencyHist> samples(static_cast<std::size_t>(writers));
      std::atomic<std::uint64_t> failed_calls{0};
      const auto t0 = Clock::now();
      std::vector<std::thread> pool_threads;
      for (int w = 0; w < writers; ++w) {
        pool_threads.emplace_back([&, w] {
          Span ws("bench.writer", trial_id, trial_span.id());
          LatencyHist& mine = samples[static_cast<std::size_t>(w)];
          std::uint32_t k = 0;
          for (std::size_t i = static_cast<std::size_t>(w); i < edges.size();
               i += static_cast<std::size_t>(writers)) {
            const std::uint64_t a = now_ns();
            try {
              if (traced && ++k % kSpanSample == 0) {
                Span s("core.insert_edge", trial_id, 0, kSpanSample);
                store->insert_edge(edges[i].src, edges[i].dst);
              } else {
                store->insert_edge(edges[i].src, edges[i].dst);
              }
            } catch (...) {
              failed_calls.fetch_add(1, std::memory_order_relaxed);
            }
            mine.record(now_ns() - a);
          }
        });
      }
      for (auto& th : pool_threads) th.join();
      Trial tr;
      tr.meps = static_cast<double>(edges.size()) / seconds_since(t0) / 1e6;
      out.layers.add(before, Probe::take(*store));
      out.edges_written += edges.size();
      r.attempted += edges.size();
      if (failed_calls > 0) r.fail("insert_edge threw " +
                                   std::to_string(failed_calls.load()) + "x");

      // Crash path: no shutdown(), so open() scans and replays the undo log.
      store.reset();
      const auto tr0 = Clock::now();
      {
        Span s("core.recover", trial_id);
        store = dgap::core::DgapStore::open(*pool, opts);
      }
      tr.recover_s = seconds_since(tr0);
      trials.push_back(tr);

      const dgap::core::Snapshot cut = store->consistent_view();
      std::uint64_t mismatched = 0;
      for (dgap::NodeId v = 0; v < static_cast<dgap::NodeId>(oracle.size());
           ++v) {
        std::vector<dgap::NodeId> got;
        if (v < cut.num_nodes()) got = cut.neighbors(v);
        std::sort(got.begin(), got.end());
        mismatched += multiset_mismatch(oracle[v], got);
      }
      if (mismatched > 0) {
        r.fail("ingest: reopened store differs from the stream in " +
               std::to_string(mismatched) + " edges");
        r.failed += mismatched - 1;
      }
      for (const LatencyHist& s : samples) lat.merge(s);
    } while (seconds_since(phase_start) < seconds || trials.size() < 2);

    std::vector<double> meps;
    std::vector<double> recover;
    for (const Trial& t : trials) {
      meps.push_back(t.meps);
      recover.push_back(t.recover_s);
    }
    out.p50_ms = lat.percentile_ns(0.50) / 1e6;
    out.tail_ms = lat.percentile_ns(0.99) / 1e6;
    out.meps = median(meps);
    out.latency_samples = lat.count();
    out.rounds = trials.size();
    out.timings["core.recover_s"] = median(recover);
    return out;
  });
}

}  // namespace perfbench
