// Table 4: execution time (seconds) of all four kernels on all six systems
// with 1 and 16 analysis threads.
//
// Expected shape (paper §4.3.1): everything scales with threads except CC
// (its convergence loop limits parallel speedup for every framework); DGAP
// stays closest to CSR except BFS, where the DRAM adjacency systems win.
// NOTE: 2 hardware threads here; T16 shows trend only.
// --live-ingest adds the HTAP section: async producers flood the second
// half of the stream while the analysis thread snapshots + runs PageRank
// in a loop (the epoch-versioned snapshot refactor makes both sides
// proceed without blocking each other).
// --dram-cache=MB adds a dgap-cache row (DRAM hot tier on) and fills the
// hit% column with the tier's hit rate over the row's kernel traffic.
#include <iostream>
#include <map>

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
        cli, /*default_scale=*/0.05,
        {"orkut", "livejournal", "citpatents", "twitter", "friendster",
         "protein"});
  } catch (const std::exception& ex) {
    std::cerr << cli.program() << ": " << ex.what() << "\n";
    return 2;
  }
  cfg.latency = cli.get_bool("latency", false);
  configure_latency(cfg.latency);
  print_banner("Table 4: kernel runtime (s) at T1 and T16", cfg);
  const ObsSession obs(cfg);

  std::vector<int> thread_counts = {1, 16};
  if (cli.has("threads")) {
    thread_counts.clear();
    for (const auto& t : split_csv(cli.get("threads")))
      thread_counts.push_back(std::stoi(t));
  }

  const std::vector<std::string> kernels = {"PR", "BFS", "BC", "CC"};
  for (const auto& name : cfg.datasets) {
    EdgeStream stream = load_dataset(name, cfg.scale);

    // Load every system once per graph; reuse across kernels/threads.
    auto csr_pool = fresh_pool(cfg.pool_mb);
    auto csr = make_csr(*csr_pool, stream);
    const NodeId source = csr->pick_source();

    std::vector<std::unique_ptr<pmem::PmemPool>> pools;
    std::vector<std::pair<std::string, std::unique_ptr<IStore>>> stores;
    stores.emplace_back("CSR", nullptr);  // handled via csr
    for (const auto& sys : kDynamicSystems) {
      if (!cfg.only_system.empty() && sys != cfg.only_system) continue;
      pools.push_back(fresh_pool(cfg.pool_mb));
      auto store = make_store(sys, *pools.back(), stream.num_vertices(),
                              stream.num_edges(), 1);
      for (const Edge& e : stream.edges()) store->insert(e.src, e.dst);
      store->finalize();
      stores.emplace_back(sys, std::move(store));
    }
    // --dram-cache=MB: one extra DGAP row with the DRAM hot tier on; its
    // hit rate lands in the hit% column (every other row prints "-").
    if (cfg.tuning.dram_cache_mb != 0 &&
        (cfg.only_system.empty() || cfg.only_system == "dgap")) {
      pools.push_back(fresh_pool(cfg.pool_mb));
      auto store = make_store("dgap", *pools.back(), stream.num_vertices(),
                              stream.num_edges(), 1, cfg.tuning);
      for (const Edge& e : stream.edges()) store->insert(e.src, e.dst);
      stores.emplace_back("dgap-cache", std::move(store));
    }

    std::cout << "\n--- " << name << " ---\n";
    TablePrinter table({"System", "PR.T1", "PR.T16", "BFS.T1", "BFS.T16",
                        "BC.T1", "BC.T16", "CC.T1", "CC.T16", "hit%"});
    for (auto& [sys, store] : stores) {
      IStore* s = store ? store.get() : csr.get();
      std::vector<std::string> row = {sys};
      for (const auto& kernel : kernels) {
        for (const int threads : thread_counts) {
          double t = 0;
          if (kernel == "PR") t = s->time_pagerank(threads);
          if (kernel == "BFS") t = s->time_bfs(threads, source);
          if (kernel == "BC") t = s->time_bc(threads, source);
          if (kernel == "CC") t = s->time_cc(threads);
          row.push_back(TablePrinter::fmt(t, 3));
        }
      }
      // Read the tier counters AFTER the kernels so the column reflects
      // this row's analysis traffic.
      const tier::CacheStats cs = s->cache_stats();
      row.push_back(cs.hits + cs.misses > 0
                        ? TablePrinter::fmt(100.0 * cs.hit_rate(), 1)
                        : "-");
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  // --- analysis concurrent with ingest (--live-ingest) ---------------------
  if (cfg.live_ingest &&
      (cfg.only_system.empty() || cfg.only_system == "dgap")) {
    std::map<std::string, EdgeStream> live_streams;  // loaded on demand
    const bool live_ok = print_live_ingest_section(
        cfg,
        [&](const std::string& name) -> const EdgeStream& {
          auto it = live_streams.find(name);
          if (it == live_streams.end())
            it = live_streams.emplace(name, load_dataset(name, cfg.scale))
                     .first;
          return it->second;
        },
        std::cout);
    if (!live_ok) return 1;  // incremental kernels diverged from full
  }
  return 0;
}
