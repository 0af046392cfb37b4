#include "src/pmem/alloc.hpp"

#include <atomic>
#include <mutex>
#include <new>

#include "src/pmem/pool.hpp"

namespace dgap::pmem {

namespace {
// Mirror of the header layout offsets we need; kept in sync with
// PmemPool::Header via the accessors below.
struct HeaderView {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t normal_shutdown;
  std::uint64_t pool_size;
  std::uint64_t alloc_bump;
  std::uint64_t root_off;
};
}  // namespace

PmemAllocator::PmemAllocator(PmemPool& pool) : pool_(pool) {}

int PmemAllocator::class_of(std::uint64_t size) {
  if (size > class_size(kNumClasses - 1)) return -1;  // oversized: bump only
  const std::uint64_t p = ceil_pow2(std::max<std::uint64_t>(size, 64));
  return log2_floor(p) - kMinClassLog;
}

std::uint64_t PmemAllocator::alloc(std::uint64_t size, std::uint64_t align) {
  if (size == 0) size = 1;
  std::lock_guard<SpinLock> g(mu_);

  const int cls = class_of(size);
  if (cls >= 0 && !free_lists_[cls].empty() && align <= kCacheLineSize) {
    const std::uint64_t off = free_lists_[cls].back();
    free_lists_[cls].pop_back();
    return off;
  }

  auto* h = pool_.at<HeaderView>(0);
  // Blocks with a size class are rounded up so free() can recycle them.
  const std::uint64_t alloc_size = cls >= 0 ? class_size(cls) : size;
  const std::uint64_t off = round_up(h->alloc_bump, align);
  if (off + alloc_size > pool_.size()) throw PoolCapacityError{};
  // Atomic store: resident_bytes() reads the bump without this lock.
  std::atomic_ref<std::uint64_t>(h->alloc_bump)
      .store(off + alloc_size, std::memory_order_relaxed);
  pool_.persist(&h->alloc_bump, sizeof(h->alloc_bump));
  return off;
}

void PmemAllocator::free(std::uint64_t off, std::uint64_t size) {
  const int cls = class_of(size);
  if (cls < 0) return;  // oversized blocks are not recycled
  std::lock_guard<SpinLock> g(mu_);
  free_lists_[cls].push_back(off);
}

std::uint64_t PmemAllocator::used_bytes() const {
  return pool_.at<HeaderView>(0)->alloc_bump - PmemPool::kHeaderSize;
}

std::uint64_t PmemAllocator::available_bytes() const {
  return pool_.size() - pool_.at<HeaderView>(0)->alloc_bump;
}

}  // namespace dgap::pmem
