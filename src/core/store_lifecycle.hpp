// Pool + store lifecycle as one reusable unit.
//
// Every DGAP deployment pairs a pmem pool with the store living inside it:
// create = make the pool, initialize a fresh store, mark running;
// open   = map the pool, validate, run recovery (fast path after a clean
//          shutdown, scan + undo-log replay after a crash);
// close  = graceful shutdown image + NORMAL_SHUTDOWN, then unmap.
//
// The pairing is factored here once so call sites (quickstart, benches,
// tests) do not repeat it.
#pragma once

#include <memory>

#include "src/core/dgap_store.hpp"
#include "src/core/options.hpp"
#include "src/pmem/pool.hpp"

namespace dgap::core {

// One pool with one DgapStore inside it. Destruction order (store before
// pool) is guaranteed by member order; destroying the handle without
// shutdown() means the next open takes the crash-recovery path.
struct StoreHandle {
  std::unique_ptr<pmem::PmemPool> pool;
  std::unique_ptr<DgapStore> store;

  explicit operator bool() const { return store != nullptr; }
};

// Create a fresh pool and initialize a store inside it.
StoreHandle create_store(const pmem::PoolOptions& pool_opts,
                         const DgapOptions& store_opts);

// Open an existing file-backed pool and attach (recovery runs as needed).
StoreHandle open_store(const pmem::PoolOptions& pool_opts,
                       const DgapOptions& store_opts);

// Graceful close: persist the shutdown image, set NORMAL_SHUTDOWN, release
// the store then the pool. Safe on an empty handle.
void shutdown_store(StoreHandle& handle);

}  // namespace dgap::core
