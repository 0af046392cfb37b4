#include "src/core/store_lifecycle.hpp"

namespace dgap::core {

StoreHandle create_store(const pmem::PoolOptions& pool_opts,
                         const DgapOptions& store_opts) {
  StoreHandle h;
  h.pool = pmem::PmemPool::create(pool_opts);
  h.store = DgapStore::create(*h.pool, store_opts);
  return h;
}

StoreHandle open_store(const pmem::PoolOptions& pool_opts,
                       const DgapOptions& store_opts) {
  StoreHandle h;
  h.pool = pmem::PmemPool::open(pool_opts);
  h.store = DgapStore::open(*h.pool, store_opts);
  return h;
}

void shutdown_store(StoreHandle& handle) {
  if (handle.store) {
    handle.store->shutdown();
    handle.store.reset();
  }
  handle.pool.reset();
}

}  // namespace dgap::core
