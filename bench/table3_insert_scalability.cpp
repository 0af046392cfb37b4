// Table 3: insertion throughput (MEPS) with 1, 8 and 16 writer threads for
// every system and graph.
//
// Expected shape (paper §4.2.1): DGAP scales with threads and is best or
// near-best; BAL occasionally wins thanks to per-vertex locks; XPGraph wins
// on the three small graphs whose entire edge set fits in its circular log.
// NOTE: thread counts above the host's hardware threads oversubscribe, so
// absolute scaling tops out at the core count.
//
// --async-writers=a,b adds an async-ingestion sweep: the T thread counts
// become producer counts submitting to the staging queues while K
// background absorbers drain into each store (src/ingest).
#include <iostream>
#include <map>
#include <mutex>

#include "src/bench_common/harness.hpp"
#include "src/common/spinlock.hpp"
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
  configure_latency(cfg.latency);
  print_banner("Table 3: insert scalability (MEPS) across writer threads",
               cfg);
  const ObsSession obs(cfg);

  std::vector<int> thread_counts = {1, 8, 16};
  if (cli.has("threads")) {
    thread_counts.clear();
    for (const auto& t : split_csv(cli.get("threads")))
      thread_counts.push_back(std::stoi(t));
  }

  // Load each dataset once; the batch/thread/async sweeps reuse the stream.
  std::map<std::string, EdgeStream> streams;
  for (const auto& name : cfg.datasets)
    streams.emplace(name, load_dataset(name, cfg.scale));

  for (const std::size_t batch : cfg.batches) {
    for (const int threads : thread_counts) {
      std::cout << "\n--- T" << threads;
      if (cfg.batches.size() > 1 || batch > 1) std::cout << " batch=" << batch;
      std::cout << " ---\n";
      TablePrinter table(
          {"Graph", "DGAP", "BAL", "LLAMA", "GO-FD", "XPGrp"});
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
                                  stream.num_edges(), threads, cfg.tuning);
          // LLAMA, GraphOne and our XPGraph model serialize internal batch
          // conversion; their stores are not thread-safe for concurrent
          // writers (the paper drives them through their own ingest
          // threads). We serialize their inserts with a lock, which matches
          // their single-ingest design; DGAP/BAL take concurrent writers
          // directly.
          const bool single_ingest =
              sys == "llama" || sys == "graphone" || sys == "xpgraph";
          InsertResult r;
          if (batch <= 1) {
            if (single_ingest) {
              SpinLock mu;
              r = time_inserts_mt(stream, threads, [&](NodeId u, NodeId v) {
                std::lock_guard<SpinLock> g(mu);
                store->insert(u, v);
              });
            } else {
              r = time_inserts_mt(stream, threads, [&](NodeId u, NodeId v) {
                store->insert(u, v);
              });
            }
          } else {
            if (single_ingest) {
              SpinLock mu;
              r = time_inserts_mt_batched(
                  stream, threads, batch, [&](std::span<const Edge> part) {
                    std::lock_guard<SpinLock> g(mu);
                    store->insert_batch(part);
                  });
            } else {
              r = time_inserts_mt_batched(
                  stream, threads, batch, [&](std::span<const Edge> part) {
                    store->insert_batch(part);
                  });
            }
          }
          row.push_back(TablePrinter::fmt(r.meps));
        }
        table.add_row(std::move(row));
      }
      table.print(std::cout);
    }
  }

  // --- asynchronous ingestion sweep (--async-writers=a,b) -------------------
  // Producers (the T counts above) only submit to staging queues; K
  // background absorbers do the actual store writes, so single-ingest
  // systems need no caller-side lock here — the ingestor serializes their
  // sink internally.
  // Submit chunks below 256 are clamped (per-edge items would measure
  // queue overhead, not the store); dedup so --batch=64,128 does not run
  // the same async sweep twice.
  std::vector<std::size_t> submit_batches;
  for (const std::size_t batch : cfg.batches)
    submit_batches.push_back(std::max<std::size_t>(batch, 256));
  std::sort(submit_batches.begin(), submit_batches.end());
  submit_batches.erase(
      std::unique(submit_batches.begin(), submit_batches.end()),
      submit_batches.end());
  for (const int absorbers : cfg.async_writers) {
    for (const std::size_t submit_batch : submit_batches) {
      for (const int threads : thread_counts) {
        std::cout << "\n--- async P" << threads << " absorbers=" << absorbers
                  << " submit-batch=" << submit_batch << " ---\n";
        TablePrinter table(
            {"Graph", "DGAP", "BAL", "LLAMA", "GO-FD", "XPGrp"});
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
                                    stream.num_edges(), absorbers, cfg.tuning);
            auto ingestor = store->make_async(async_options(cfg, absorbers));
            const AsyncInsertResult r =
                time_inserts_async(stream, threads, submit_batch, *ingestor);
            row.push_back(TablePrinter::fmt(r.meps));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout);
      }
    }
  }
  return 0;
}
