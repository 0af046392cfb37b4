// `analyze` and `overflow`: read-only rounds over a preloaded store.
//
// analyze: an orkut-like RMAT graph preloaded with insert_batch, tiers
// off, every edge resident in pmem. Each round is consistent_view()
// followed by PR, CC, BFS and BC over the raw Snapshot at host_threads()
// kernel threads.
//
// overflow: the same generator family at a larger scale, with the DRAM
// section cache at 1/4 of the edge array and the SSD cold tier holding the
// pmem budget at 1/2 of the post-load resident footprint (enforced during
// set-up). Rounds run PR and CC, the iterative kernels the tiers serve.
//
// Every kernel result is checked against the same kernel over a PmemCsr of
// the same stream: CC labels and BFS depths exactly, PR and BC within the
// verify.hpp tolerance.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "perfbench/src/trace.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/algorithms/bc.hpp"
#include "src/algorithms/bfs.hpp"
#include "src/algorithms/cc.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/algorithms/verify.hpp"
#include "src/baselines/pmem_csr.hpp"
#include "src/pmem/pool.hpp"

namespace perfbench {
namespace {

double analyze_scale(Size s, bool overflow) {
  if (s == Size::tiny) return overflow ? 0.02 : 0.01;
  return overflow ? 0.4 : 0.25;
}
constexpr double kTolerance = 1e-4;  // verify_pagerank's default bound

// BFS depth of every vertex from a parent array (-1 = unreached; a
// non-tree parent chain yields -2, which never matches the oracle).
std::vector<std::int64_t> depths_from_parents(
    const std::vector<dgap::NodeId>& parent, dgap::NodeId source) {
  const auto n = parent.size();
  std::vector<std::int64_t> depth(n, -1);
  if (source < 0 || static_cast<std::size_t>(source) >= n) return depth;
  depth[source] = 0;
  std::vector<dgap::NodeId> chain;
  for (std::size_t v = 0; v < n; ++v) {
    if (depth[v] != -1 || parent[v] < 0) continue;
    chain.clear();
    dgap::NodeId u = static_cast<dgap::NodeId>(v);
    while (depth[u] == -1 && parent[u] >= 0 && chain.size() <= n) {
      chain.push_back(u);
      u = parent[u];
    }
    const std::int64_t base = depth[u] >= 0 && chain.size() <= n ? depth[u] : -3;
    for (std::size_t i = chain.size(); i-- > 0;)
      depth[chain[i]] = base < 0 ? -2 : base + static_cast<std::int64_t>(chain.size() - i);
  }
  return depth;
}

double l1(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

double max_abs(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s = std::max(s, std::fabs(a[i] - b[i]));
  return s;
}

struct Oracle {
  dgap::NodeId source = 0;
  std::vector<double> pr;
  std::vector<dgap::NodeId> cc;
  std::vector<std::int64_t> depth;
  std::vector<double> bc;
};

struct Loaded {
  std::unique_ptr<dgap::pmem::PmemPool> pool;
  std::unique_ptr<dgap::core::DgapStore> store;

  void reset() {  // the store lives in the pool: drop it first
    store.reset();
    pool.reset();
  }
};

}  // namespace

void run_analyze(const RunArgs& args, Record& r, bool overflow) {
  const double scale = analyze_scale(args.size, overflow);
  const std::string cold_path = args.scratch_dir + "/overflow.cold";
  dgap::EdgeStream stream;
  Loaded st;
  run_setups(args, r, [&] {
    SetupTimes t;
    st.reset();  // drop the previous set-up before building the next
    if (overflow) std::remove(cold_path.c_str());
    const auto t0 = Clock::now();
    {
      Span s("graph.generate");
      stream = generate_stream("orkut", scale, args.seed);
    }
    t.generate_s = seconds_since(t0);
    const dgap::NodeId nv = stream.max_vertex_bound();
    dgap::core::DgapOptions o = store_options(nv, stream.num_edges(), 1);
    const std::uint64_t slots = dgap::ceil_pow2(
        2 * (static_cast<std::uint64_t>(nv) + stream.num_edges()));
    std::uint64_t pool_bytes = std::max<std::uint64_t>(256ull << 20, slots * 64);
    if (overflow) {
      o.dram_cache_bytes = slots * sizeof(dgap::core::Slot) / 4;
      o.cold_tier = true;
      o.cold_tier_path = cold_path;
    }
    {
      Span s("core.create");
      st.pool = dgap::pmem::PmemPool::create({.path = "", .size = pool_bytes});
      st.store = dgap::core::DgapStore::create(*st.pool, o);
    }
    const auto tp = Clock::now();
    constexpr std::size_t kChunk = 8192;
    const auto all = stream.all();
    for (std::size_t i = 0; i < all.size(); i += kChunk) {
      Span s("core.insert_batch");
      st.store->insert_batch(all.subspan(i, std::min(kChunk, all.size() - i)));
    }
    t.preload_s = seconds_since(tp);
    t.total_s = seconds_since(t0);
    if (overflow) {
      Span s("tier.enforce_budget");
      const auto te = Clock::now();
      st.store->set_cold_budget_bytes(
          std::max<std::uint64_t>(st.store->resident_bytes() / 2, 1));
      st.store->cold_enforce_budget();
      t.enforce_s = seconds_since(te);
    }
    return t;
  });

  // Oracle: the same kernels over an uncharged static CSR of the stream.
  auto csr_pool = dgap::pmem::PmemPool::create(
      {.path = "", .size = std::max<std::uint64_t>(64ull << 20,
                                                    stream.num_edges() * 16)});
  const auto csr = dgap::baselines::PmemCsr::build(*csr_pool, stream);
  Oracle want;
  want.source = dgap::algorithms::max_degree_vertex(*csr);
  want.pr = dgap::algorithms::pagerank(*csr);
  want.cc = dgap::algorithms::connected_components(*csr);
  if (!overflow) {
    want.depth = dgap::algorithms::serial_bfs_depths(*csr, want.source);
    want.bc = dgap::algorithms::betweenness_centrality(*csr, want.source);
  }
  // Corrupt one oracle on request (tests prove each check fires).
  if (args.inject == "pr") want.pr[want.source] += 1;
  if (args.inject == "cc") want.cc[want.source] += 1;
  if (args.inject == "bfs") want.depth[want.source] += 1;
  if (args.inject == "bc") want.bc[want.source] += 1;
  const double graph_edges = static_cast<double>(stream.num_edges());

  auto check = [&](bool ok, const char* what) {
    if (!ok) r.fail(std::string(overflow ? "overflow" : "analyze") + ": " +
                    what + " diverged from the CSR oracle");
  };

  std::uint64_t round_id = 0;
  run_phases(args, r, [&](double seconds, bool) {
    PhaseOut out;
    std::vector<double> round_ms, capture_us, pr_s, cc_s, bfs_s, bc_s;
    const Probe before = Probe::take(*st.store);
    const auto phase_start = Clock::now();
    do {
      ++round_id;
      if (overflow) {
        // Every round starts from the enforced budget (untimed), so rounds
        // see the same residency instead of the previous round's churn.
        Span s("tier.enforce_budget", round_id);
        st.store->cold_enforce_budget();
      }
      Span round("bench.round", round_id);
      const auto t0 = Clock::now();
      dgap::core::Snapshot cut;
      {
        Span s("snapshot.capture", round_id);
        cut = st.store->consistent_view();
      }
      capture_us.push_back(seconds_since(t0) * 1e6);
      auto timed = [&](const char* name, std::vector<double>& into, auto&& fn) {
        Span s(name, round_id);
        const auto k0 = Clock::now();
        auto res = fn();
        into.push_back(seconds_since(k0));
        return res;
      };
      const auto pr = timed("algorithms.pr", pr_s,
                            [&] { return dgap::algorithms::pagerank(cut); });
      const auto cc = timed("algorithms.cc", cc_s, [&] {
        return dgap::algorithms::connected_components(cut);
      });
      std::vector<dgap::NodeId> parent;
      std::vector<double> bc;
      if (!overflow) {
        parent = timed("algorithms.bfs", bfs_s, [&] {
          return dgap::algorithms::bfs(cut, want.source);
        });
        bc = timed("algorithms.bc", bc_s, [&] {
          return dgap::algorithms::betweenness_centrality(cut, want.source);
        });
      }
      round_ms.push_back(seconds_since(t0) * 1e3);

      const int kernels = overflow ? 2 : 4;
      r.attempted += kernels;
      check(dgap::algorithms::verify_pagerank(pr, kTolerance) &&
                l1(pr, want.pr) <= kTolerance,
            "PR");
      check(cc == want.cc, "CC labels");
      if (!overflow) {
        check(depths_from_parents(parent, want.source) == want.depth,
              "BFS depths");
        check(dgap::algorithms::verify_bc(bc) &&
                  max_abs(bc, want.bc) <= kTolerance,
              "BC");
      }
    } while (seconds_since(phase_start) < seconds || round_ms.size() < 2);
    out.layers.add(before, Probe::take(*st.store));

    out.p50_ms = median(round_ms);
    // A process measures ~35 analyze rounds (samples.rounds): p75 is the
    // highest percentile with about ten rounds beyond it.
    out.tail_ms = percentile(round_ms, 0.75);
    out.meps = graph_edges / (out.p50_ms / 1e3) / 1e6;
    out.latency_samples = out.rounds = round_ms.size();
    out.timings["algorithms.pr_s"] = median(pr_s);
    out.timings["algorithms.cc_s"] = median(cc_s);
    out.timings["algorithms.bfs_s"] = median(bfs_s);
    out.timings["algorithms.bc_s"] = median(bc_s);
    out.counters["snapshot.capture_us_p50"] = percentile(capture_us, 0.50);
    out.counters["snapshot.capture_us_p99"] = percentile(capture_us, 0.99);
    return out;
  });

  if (args.trace) {
    // Compute floor: the same kernels over the uncharged CSR (as in fig7).
    const int reps = 3;
    std::vector<double> pr_s, cc_s, bfs_s, bc_s;
    for (int i = 0; i < reps; ++i) {
      auto time = [](std::vector<double>& into, auto&& fn) {
        const auto k0 = Clock::now();
        (void)fn();
        into.push_back(seconds_since(k0));
      };
      time(pr_s, [&] { return dgap::algorithms::pagerank(*csr); });
      time(cc_s, [&] { return dgap::algorithms::connected_components(*csr); });
      if (!overflow) {
        time(bfs_s, [&] { return dgap::algorithms::bfs(*csr, want.source); });
        time(bc_s, [&] {
          return dgap::algorithms::betweenness_centrality(*csr, want.source);
        });
      }
    }
    const char* kernels[] = {"pr", "cc", "bfs", "bc"};
    const std::vector<double>* floors[] = {&pr_s, &cc_s, &bfs_s, &bc_s};
    for (int k = 0; k < 4; ++k) {
      const std::string base = std::string("algorithms.") + kernels[k];
      const double floor_s = median(*floors[k]);
      r.metrics[base + "_csr_s"] = floor_s;
      r.metrics[base + "_vs_csr"] =
          floor_s > 0 ? r.metrics[base + "_s"] / floor_s : 0.0;
    }
  }
  st.reset();
  if (overflow) std::remove(cold_path.c_str());
}

}  // namespace perfbench
