// Figure 8: BFS and Betweenness Centrality runtime, normalized to CSR on
// PM, single analysis thread.
//
// Expected shape (paper §4.3): unlike the whole-graph kernels, GraphOne-FD
// and XPGraph *win* BFS (adjacency lists in DRAM fit its random vertex
// access), DGAP stays within ~1.1-1.4x of CSR and far ahead of LLAMA; for
// the heavier BC, DGAP catches back up to the DRAM-based systems.
// --dram-view adds the DRAM-view section: BFS and BC run over ONE snapshot
// twice (raw, and over the DeltaMirror built from the same cut), results
// verified identical, view build time and speedup reported.
// --dram-cache=MB adds the DRAM hot-tier section: BFS and BC cache-off vs
// cache-on under a read-charged media model, hit rate and gap-closed
// reported, cache-on results verified identical.
#include <iostream>
#include <map>

#include "src/algorithms/bc.hpp"
#include "src/algorithms/bfs.hpp"
#include "src/bench_common/harness.hpp"
#include "src/common/table.hpp"
#include "src/graph/datasets.hpp"

using namespace dgap;
using namespace dgap::bench;

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
  cfg.latency = cli.get_bool("latency", false);
  configure_latency(cfg.latency);
  print_banner(
      "Figure 8: BFS and BC time normalized to CSR on PM (1 thread)", cfg);

  for (const char* kernel : {"BFS", "BC"}) {
    std::cout << "\n--- " << kernel << " ---\n";
    TablePrinter table({"Graph", "CSR(s)", "DGAP", "BAL", "LLAMA",
                        "GraphOne-FD", "XPGraph"});
    for (const auto& name : cfg.datasets) {
      EdgeStream stream = load_dataset(name, cfg.scale);
      auto csr_pool = fresh_pool(cfg.pool_mb);
      auto csr = make_csr(*csr_pool, stream);
      const NodeId source = csr->pick_source();
      const double base = std::string(kernel) == "BFS"
                              ? csr->time_bfs(1, source)
                              : csr->time_bc(1, source);
      std::vector<std::string> row = {name, TablePrinter::fmt(base, 3)};
      for (const auto& sys : kDynamicSystems) {
        if (!cfg.only_system.empty() && sys != cfg.only_system) {
          row.push_back("-");
          continue;
        }
        auto pool = fresh_pool(cfg.pool_mb);
        auto store = make_store(sys, *pool, stream.num_vertices(),
                                stream.num_edges(), 1);
        for (const Edge& e : stream.edges()) store->insert(e.src, e.dst);
        store->finalize();
        const double t = std::string(kernel) == "BFS"
                             ? store->time_bfs(1, source)
                             : store->time_bc(1, source);
        row.push_back(TablePrinter::fmt(t / base));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  // --- DRAM view (--dram-view): kernels over one cut ------------------------
  if (cfg.dram_view &&
      (cfg.only_system.empty() || cfg.only_system == "dgap")) {
    std::map<std::string, EdgeStream> view_streams;  // loaded on demand
    const bool ok = print_dram_view_section(
        cfg, "BFS", "BC",
        [&](const std::string& name) -> const EdgeStream& {
          auto it = view_streams.find(name);
          if (it == view_streams.end())
            it = view_streams.emplace(name, load_dataset(name, cfg.scale))
                     .first;
          return it->second;
        },
        [](const auto& g, NodeId source) {
          return algorithms::bfs(g, source);
        },
        [](const auto& g, NodeId source) {
          return algorithms::betweenness_centrality(g, source);
        },
        std::cout);
    if (!ok) {
      std::cerr << "dram-view: kernel results diverge from the raw "
                   "snapshot\n";
      return 1;
    }
  }

  // --- DRAM hot tier (--dram-cache=MB): read-charged BFS+BC -----------------
  if (cfg.tuning.dram_cache_mb != 0 &&
      (cfg.only_system.empty() || cfg.only_system == "dgap")) {
    std::map<std::string, EdgeStream> tier_streams;  // loaded on demand
    const bool ok = print_dram_cache_section(
        cfg, "BFS", "BC",
        [&](const std::string& name) -> const EdgeStream& {
          auto it = tier_streams.find(name);
          if (it == tier_streams.end())
            it = tier_streams.emplace(name, load_dataset(name, cfg.scale))
                     .first;
          return it->second;
        },
        [](const auto& g, NodeId source) {
          return algorithms::bfs(g, source);
        },
        [](const auto& g, NodeId source) {
          return algorithms::betweenness_centrality(g, source);
        },
        std::cout);
    if (!ok) {
      std::cerr << "dram-cache: kernel results diverge from the uncached "
                   "path\n";
      return 1;
    }
  }
  return 0;
}
