// Figure 6: dynamic graph insertion throughput (MEPS), single writer
// thread, all five dynamic systems across the six paper graphs.
//
// Method (paper §4.1/§4.2): shuffled edge stream, first 10% inserted as
// warm-up, remaining 90% timed. Higher is better. Expected shape: DGAP best
// or near-best everywhere; GraphOne-FD slowest on big graphs; LLAMA hurt by
// snapshot conversion cost; XPGraph close to DGAP.
//
// --batch=a,b,c sweeps ingestion batch sizes (one table per size); batch 1
// is the per-edge path, larger sizes drive every system's native
// insert_batch. When larger sizes are requested the per-edge reference is
// always measured too and a DGAP speedup-vs-per-edge summary is printed,
// so `--batch=256` directly reports the batching gain. Expected: DGAP
// gains grow with batch size as more of a batch shares a home section —
// the batch path collapses per-edge section locking and per-edge
// flush+fence epochs into per-group ones.
//
// --async-writers=a,b sweeps the asynchronous ingestion subsystem
// (src/ingest): one producer submits chunks to per-section-group staging
// queues, K background absorbers drain them through insert_batch, and the
// timed body includes the final drain (equal total work vs sync). The
// absorbers coalesce staged submissions into larger absorption batches, so
// async end-to-end throughput should meet or beat the synchronous
// insert_batch path at the same submit-chunk size; the producer-side
// (submit-only) throughput is reported separately.
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
        cli, /*default_scale=*/0.2,
        {"orkut", "livejournal", "citpatents", "twitter", "friendster",
         "protein"});
  } catch (const std::exception& ex) {
    std::cerr << cli.program() << ": " << ex.what() << "\n";
    return 2;
  }
  configure_latency(cfg.latency);
  print_banner("Figure 6: insertion throughput (MEPS), 1 writer thread",
               cfg);
  const ObsSession obs(cfg);

  // Batched runs are always compared against the per-edge path.
  std::vector<std::size_t> batches = cfg.batches;
  if (std::find(batches.begin(), batches.end(), std::size_t{1}) ==
      batches.end())
    batches.insert(batches.begin(), 1);
  // The async sweep compares against the synchronous batch path at the same
  // submit-chunk size, so make sure at least one batched size is measured.
  if (!cfg.async_writers.empty() && batches.size() == 1)
    batches.push_back(256);

  // Load each dataset once; the batch sweep reuses the same stream.
  std::map<std::string, EdgeStream> streams;
  for (const auto& name : cfg.datasets)
    streams.emplace(name, load_dataset(name, cfg.scale));

  std::map<std::pair<std::string, std::size_t>, double> dgap_meps;
  for (const std::size_t batch : batches) {
    if (batches.size() > 1) std::cout << "\n--- batch=" << batch << " ---\n";
    TablePrinter table(
        {"Graph", "DGAP", "BAL", "LLAMA", "GraphOne-FD", "XPGraph"});
    for (const auto& name : cfg.datasets) {
      const EdgeStream& stream = streams.at(name);
      std::vector<std::string> row = {name};
      for (const auto& sys : kDynamicSystems) {
        if (!cfg.only_system.empty() && sys != cfg.only_system) {
          row.push_back("-");
          continue;
        }
        auto pool = fresh_pool(cfg.pool_mb);
        auto store = make_store(sys, *pool, stream.num_vertices(),
                                stream.num_edges(), 1, cfg.tuning);
        const InsertResult r =
            batch <= 1
                ? time_inserts(stream, [&](NodeId u, NodeId v) {
                    store->insert(u, v);
                  })
                : time_inserts_batched(
                      stream, batch, [&](std::span<const Edge> part) {
                        store->insert_batch(part);
                      });
        if (sys == "dgap") dgap_meps[{name, batch}] = r.meps;
        row.push_back(TablePrinter::fmt(r.meps));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  if (batches.size() > 1 &&
      (cfg.only_system.empty() || cfg.only_system == "dgap")) {
    std::cout << "\n--- DGAP speedup vs per-edge path ---\n";
    std::vector<std::string> header = {"Graph"};
    for (const std::size_t b : batches)
      if (b > 1) header.push_back("batch=" + std::to_string(b));
    TablePrinter speedup(header);
    for (const auto& name : cfg.datasets) {
      std::vector<std::string> row = {name};
      const double base = dgap_meps[{name, 1}];
      for (const std::size_t b : batches) {
        if (b <= 1) continue;
        row.push_back(base > 0
                          ? TablePrinter::fmt(dgap_meps[{name, b}] / base)
                          : "-");
      }
      speedup.add_row(std::move(row));
    }
    speedup.print(std::cout);
  }

  // --- asynchronous ingestion sweep (--async-writers=a,b) -------------------
  std::vector<std::size_t> async_batches;
  for (const std::size_t b : batches)
    if (b > 1) async_batches.push_back(b);
  for (const int absorbers : cfg.async_writers) {
    for (const std::size_t batch : async_batches) {
      std::cout << "\n--- async: absorbers=" << absorbers
                << " submit-batch=" << batch << " (end-to-end MEPS) ---\n";
      TablePrinter table(
          {"Graph", "DGAP", "BAL", "LLAMA", "GraphOne-FD", "XPGraph"});
      std::map<std::string, AsyncInsertResult> dgap_async;
      std::map<std::string, double> dgap_avg_absorb;
      for (const auto& name : cfg.datasets) {
        const EdgeStream& stream = streams.at(name);
        std::vector<std::string> row = {name};
        for (const auto& sys : kDynamicSystems) {
          if (!cfg.only_system.empty() && sys != cfg.only_system) {
            row.push_back("-");
            continue;
          }
          auto pool = fresh_pool(cfg.pool_mb);
          // writer_threads = absorber count: the absorbers are the only
          // threads that touch the store.
          auto store = make_store(sys, *pool, stream.num_vertices(),
                                  stream.num_edges(), absorbers, cfg.tuning);
          auto ingestor = store->make_async(async_options(cfg, absorbers));
          const AsyncInsertResult r =
              time_inserts_async(stream, /*producers=*/1, batch, *ingestor);
          if (sys == "dgap") {
            dgap_async[name] = r;
            const ingest::IngestStats st = ingestor->stats();
            dgap_avg_absorb[name] =
                st.absorb_batches > 0
                    ? static_cast<double>(st.absorbed_edges) /
                          static_cast<double>(st.absorb_batches)
                    : 0.0;
          }
          row.push_back(TablePrinter::fmt(r.meps));
        }
        table.add_row(std::move(row));
      }
      table.print(std::cout);

      if (cfg.only_system.empty() || cfg.only_system == "dgap") {
        std::cout << "\n--- DGAP async (absorbers=" << absorbers
                  << (cfg.autotune ? ", autotune" : "")
                  << ") vs sync insert_batch, batch=" << batch << " ---\n";
        TablePrinter cmp({"Graph", "sync MEPS", "async MEPS", "speedup",
                          "submit-side MEPS", "avg absorb batch"});
        for (const auto& name : cfg.datasets) {
          const double sync = dgap_meps[{name, batch}];
          const AsyncInsertResult& r = dgap_async[name];
          cmp.add_row({name, TablePrinter::fmt(sync),
                       TablePrinter::fmt(r.meps),
                       sync > 0 ? TablePrinter::fmt(r.meps / sync) : "-",
                       TablePrinter::fmt(r.submit_meps),
                       TablePrinter::fmt(dgap_avg_absorb[name])});
        }
        cmp.print(std::cout);
      }
    }
  }
  return 0;
}
