// Side-by-side comparison of all six graph systems on one workload — a
// miniature of the paper's whole evaluation in a single run: load the same
// shuffled stream everywhere, print insert throughput, then run the four
// GAPBS kernels and print runtimes (normalized to CSR).
//
// Run:  ./examples/compare_stores [--dataset orkut] [--scale 0.05]
//                                 [--ingest-profile balanced]
#include <iostream>

#include "src/bench_common/harness.hpp"
#include "src/common/table.hpp"
#include "src/graph/datasets.hpp"

using namespace dgap;
using namespace dgap::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string dataset = cli.get("dataset", "orkut");
  const double scale = cli.get_double("scale", 0.05);
  const bool latency = cli.get_bool("latency", true);
  StoreTuning tuning;
  try {
    if (cli.has("ingest-profile"))
      tuning.profile = parse_ingest_profile(cli.get("ingest-profile", ""));
  } catch (const std::exception& ex) {
    std::cerr << ex.what() << "\n";
    return 2;
  }
  configure_latency(latency);

  EdgeStream stream = load_dataset(dataset, scale);
  std::cout << "dataset " << dataset << " @ scale " << scale << ": "
            << stream.num_vertices() << " vertices, " << stream.num_edges()
            << " directed edges (PM latency model "
            << (latency ? "on" : "off") << ")\n\n";

  auto csr_pool = fresh_pool(512);
  auto csr = make_csr(*csr_pool, stream);
  const NodeId source = csr->pick_source();
  const double csr_pr = csr->time_pagerank(2);
  const double csr_bfs = csr->time_bfs(2, source);
  const double csr_bc = csr->time_bc(2, source);
  const double csr_cc = csr->time_cc(2);

  TablePrinter table({"System", "Insert MEPS", "PR xCSR", "BFS xCSR",
                      "BC xCSR", "CC xCSR"});
  table.add_row({"CSR(static)", "-", "1.00", "1.00", "1.00", "1.00"});
  for (const auto& sys : kDynamicSystems) {
    auto pool = fresh_pool(512);
    auto store = make_store(sys, *pool, stream.num_vertices(),
                            stream.num_edges(), 1, tuning);
    const InsertResult ins = time_inserts(
        stream, [&](NodeId u, NodeId v) { store->insert(u, v); });
    store->finalize();
    table.add_row({sys, TablePrinter::fmt(ins.meps),
                   TablePrinter::fmt(store->time_pagerank(2) / csr_pr),
                   TablePrinter::fmt(store->time_bfs(2, source) / csr_bfs),
                   TablePrinter::fmt(store->time_bc(2, source) / csr_bc),
                   TablePrinter::fmt(store->time_cc(2) / csr_cc)});
  }

  table.print(std::cout);
  std::cout << "\nLower xCSR is better (CSR is the static analysis "
               "optimum); higher MEPS is better.\n";
  return 0;
}
