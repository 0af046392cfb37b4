// Figure 7: PageRank and Connected Components runtime, normalized to CSR
// on PM, single analysis thread.
//
// Expected shape (paper §4.3): DGAP within ~1.3-1.4x of CSR — clearly ahead
// of BAL / LLAMA / XPGraph on these whole-graph kernels, and usually ahead
// of GraphOne-FD despite GraphOne analyzing from DRAM, because the mutable
// CSR keeps cache locality that an adjacency list lacks.
// --dram-view adds the DRAM-view section: PR and CC run over ONE snapshot
// twice — raw, and over the DeltaMirror built from the same cut — with
// results verified identical and the view's build time and speedup
// reported.
// --dram-cache=MB adds the DRAM hot-tier section: PR and CC run cache-off
// vs cache-on under a read-charged media model (--pm-read-ns per line),
// with the uncharged static CSR as the DRAM-speed floor; the hit rate and
// the fraction of the PM-vs-CSR gap closed are reported, and cache-on
// results are verified identical to cache-off.
// --live-ingest adds the HTAP section: async producers flood the second
// half of the stream while the analysis thread snapshots + runs PageRank
// in a loop; both sides' throughput is reported (pre-refactor, ingest
// minting new vertex ids stalled behind a held snapshot).
// --cold-tier turns --pool-mb into DGAP's PHYSICAL pmem budget (the pool's
// virtual span is oversized; the SSD tier demotes to stay within budget)
// and adds the cold-tier section: PR and CC over a store whose enforced
// budget is half its resident footprint, verified bit-identical to the
// unconstrained run, with the slowdown factor reported.
#include <iostream>
#include <map>

#include "src/algorithms/cc.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/bench_common/harness.hpp"
#include "src/common/table.hpp"
#include "src/graph/datasets.hpp"
#include "src/pmem/alloc.hpp"

using namespace dgap;
using namespace dgap::bench;

namespace {
int run(const Cli& cli, BenchConfig& cfg);
}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  BenchConfig cfg;
  try {
    cfg = parse_common(
        cli, /*default_scale=*/0.1,
        {"orkut", "livejournal", "citpatents", "twitter", "friendster",
         "protein"});
  } catch (const std::exception& ex) {
    std::cerr << cli.program() << ": " << ex.what() << "\n";
    return 2;
  }
  try {
    return run(cli, cfg);
  } catch (const pmem::PoolCapacityError& ex) {
    // The graph outgrew a fixed-size pool: fail with the actionable
    // message instead of a bare bad_alloc (check.sh asserts on this).
    std::cerr << cli.program() << ": " << ex.what() << "\n";
    return 3;
  }
}

namespace {
int run(const Cli& cli, BenchConfig& cfg) {
  // Analysis benches: the latency model only affects loading (our reads are
  // not charged); default it off so the binaries finish quickly.
  cfg.latency = cli.get_bool("latency", false);
  configure_latency(cfg.latency);
  print_banner(
      "Figure 7: PR and CC time normalized to CSR on PM (1 thread)", cfg);
  const ObsSession obs(cfg);

  // Load each dataset once; the kernel loops and the sections below reuse
  // the streams.
  std::map<std::string, EdgeStream> streams;
  for (const auto& name : cfg.datasets)
    streams.emplace(name, load_dataset(name, cfg.scale));

  for (const char* kernel : {"PR", "CC"}) {
    std::cout << "\n--- " << kernel << " ---\n";
    TablePrinter table({"Graph", "CSR(s)", "DGAP", "BAL", "LLAMA",
                        "GraphOne-FD", "XPGraph"});
    for (const auto& name : cfg.datasets) {
      const EdgeStream& stream = streams.at(name);
      // With --cold-tier, the baselines get the same oversized span as
      // DGAP (they have no tier; only DGAP is capacity-constrained).
      auto csr_pool = fresh_pool_for(cfg.pool_mb, cfg.tuning);
      auto csr = make_csr(*csr_pool, stream);
      const bool is_pr = std::string(kernel) == "PR";
      const double base = is_pr ? csr->time_pagerank(1) : csr->time_cc(1);
      std::vector<std::string> row = {name, TablePrinter::fmt(base, 3)};
      for (const auto& sys : kDynamicSystems) {
        if (!cfg.only_system.empty() && sys != cfg.only_system) {
          row.push_back("-");
          continue;
        }
        auto pool = fresh_pool_for(cfg.pool_mb, cfg.tuning);
        auto store = make_store(sys, *pool, stream.num_vertices(),
                                stream.num_edges(), 1, cfg.tuning);
        for (const Edge& e : stream.edges()) store->insert(e.src, e.dst);
        store->finalize();
        const double t = std::string(kernel) == "PR"
                             ? store->time_pagerank(1)
                             : store->time_cc(1);
        row.push_back(TablePrinter::fmt(t / base));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  // --- DRAM view (--dram-view): kernels over one cut ------------------------
  if (cfg.dram_view &&
      (cfg.only_system.empty() || cfg.only_system == "dgap")) {
    const bool ok = print_dram_view_section(
        cfg, "PR", "CC",
        [&](const std::string& name) -> const EdgeStream& {
          return streams.at(name);
        },
        [](const auto& g, NodeId) { return algorithms::pagerank(g); },
        [](const auto& g, NodeId) {
          return algorithms::connected_components(g);
        },
        std::cout);
    if (!ok) {
      std::cerr << "dram-view: kernel results diverge from the raw "
                   "snapshot\n";
      return 1;
    }
  }

  // --- DRAM hot tier (--dram-cache=MB): read-charged PR+CC ------------------
  if (cfg.tuning.dram_cache_mb != 0 &&
      (cfg.only_system.empty() || cfg.only_system == "dgap")) {
    const bool ok = print_dram_cache_section(
        cfg, "PR", "CC",
        [&](const std::string& name) -> const EdgeStream& {
          return streams.at(name);
        },
        [](const auto& g, NodeId) { return algorithms::pagerank(g); },
        [](const auto& g, NodeId) {
          return algorithms::connected_components(g);
        },
        std::cout);
    if (!ok) {
      std::cerr << "dram-cache: kernel results diverge from the uncached "
                   "path\n";
      return 1;
    }
  }

  // --- SSD cold tier (--cold-tier): capacity-constrained PR+CC -------------
  if (cfg.tuning.cold_tier &&
      (cfg.only_system.empty() || cfg.only_system == "dgap")) {
    const bool ok = print_cold_tier_section(
        cfg, obs, "PR", "CC",
        [&](const std::string& name) -> const EdgeStream& {
          return streams.at(name);
        },
        [](const auto& g, NodeId) { return algorithms::pagerank(g); },
        [](const auto& g, NodeId) {
          return algorithms::connected_components(g);
        },
        std::cout);
    if (!ok) {
      std::cerr << "cold-tier: kernel results diverge from the "
                   "unconstrained path\n";
      return 1;
    }
  }

  // --- analysis concurrent with ingest (--live-ingest) ---------------------
  if (cfg.live_ingest &&
      (cfg.only_system.empty() || cfg.only_system == "dgap")) {
    const bool live_ok = print_live_ingest_section(
        cfg,
        [&](const std::string& name) -> const EdgeStream& {
          return streams.at(name);
        },
        std::cout);
    if (!live_ok) return 1;  // incremental kernels diverged from full
  }
  return 0;
}
}  // namespace
