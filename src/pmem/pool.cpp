#include "src/pmem/pool.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <system_error>

#include "src/common/spinlock.hpp"
#include "src/pmem/alloc.hpp"
#include "src/pmem/latency_model.hpp"
#include "src/pmem/stats.hpp"

namespace dgap::pmem {

namespace {
constexpr std::uint64_t kMagic = 0x4447'4150'504f'4f4cULL;  // "DGAPPOOL"
constexpr std::uint32_t kVersion = 1;

// Shadow-mode writeback stripes. Real CLWB of one cache line from two cores
// is serialized by cache coherence; the emulated writeback (a memcpy from
// the volatile front to the durable image) is not, so two threads flushing
// structures that share a line (e.g. elog regions of adjacent sections)
// could let a stale copy overwrite a completed one. Striped locks restore
// the per-line ordering; only shadow-mode (test) pools pay for them.
constexpr std::size_t kShadowStripes = 64;
SpinLock g_shadow_stripes[kShadowStripes];

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}
}  // namespace

struct PmemPool::Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t normal_shutdown;
  std::uint64_t pool_size;
  std::uint64_t alloc_bump;  // next free offset (allocator persistent state)
  std::uint64_t root_off;
};

void PmemPool::map(const PoolOptions& opts, bool create_new) {
  size_ = round_up(opts.size, 4096);
  shadow_ = opts.shadow;
  anonymous_ = opts.path.empty();
  path_ = opts.path;

  if (anonymous_) {
    durable_ = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (durable_ == MAP_FAILED) throw_errno("mmap(anonymous pool)");
  } else {
    const int flags = create_new ? (O_RDWR | O_CREAT | O_TRUNC) : O_RDWR;
    fd_ = ::open(opts.path.c_str(), flags, 0644);
    if (fd_ < 0) throw_errno("open(" + opts.path + ")");
    if (create_new) {
      if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0)
        throw_errno("ftruncate(" + opts.path + ")");
    } else {
      struct stat st {};
      if (::fstat(fd_, &st) != 0) throw_errno("fstat(" + opts.path + ")");
      size_ = static_cast<std::uint64_t>(st.st_size);
      if (size_ < kHeaderSize)
        throw std::runtime_error("pool file too small: " + opts.path);
    }
    durable_ = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_,
                      0);
    if (durable_ == MAP_FAILED) throw_errno("mmap(" + opts.path + ")");
  }

  if (shadow_) {
    front_ = std::aligned_alloc(4096, size_);
    if (front_ == nullptr) throw std::bad_alloc();
    std::memcpy(front_, durable_, size_);
  } else {
    front_ = durable_;
  }
}

std::unique_ptr<PmemPool> PmemPool::create(const PoolOptions& opts) {
  static_assert(sizeof(Header) <= kHeaderSize);
  if (opts.size < kHeaderSize * 2)
    throw std::invalid_argument("pool size too small");
  std::unique_ptr<PmemPool> pool(new PmemPool);
  pool->map(opts, /*create_new=*/true);

  Header* h = pool->header();
  std::memset(h, 0, sizeof(Header));
  h->magic = kMagic;
  h->version = kVersion;
  h->normal_shutdown = 1;  // a fresh pool counts as cleanly shut down
  h->pool_size = pool->size_;
  h->alloc_bump = kHeaderSize;
  h->root_off = 0;
  pool->persist(h, sizeof(Header));

  pool->allocator_ = std::make_unique<PmemAllocator>(*pool);
  return pool;
}

std::unique_ptr<PmemPool> PmemPool::open(const PoolOptions& opts) {
  if (opts.path.empty())
    throw std::invalid_argument("cannot open an anonymous pool");
  std::unique_ptr<PmemPool> pool(new PmemPool);
  pool->map(opts, /*create_new=*/false);

  const Header* h = pool->header();
  if (h->magic != kMagic) throw std::runtime_error("bad pool magic");
  if (h->version != kVersion) throw std::runtime_error("bad pool version");
  if (h->pool_size != pool->size_)
    throw std::runtime_error("pool size mismatch");

  pool->allocator_ = std::make_unique<PmemAllocator>(*pool);
  return pool;
}

PmemPool::~PmemPool() {
  if (shadow_ && front_ != nullptr) std::free(front_);
  if (durable_ != nullptr && durable_ != MAP_FAILED) ::munmap(durable_, size_);
  if (fd_ >= 0) ::close(fd_);
}

void PmemPool::flush(const void* addr, std::size_t len) {
  if (len == 0) return;
  if (DGAP_UNLIKELY(crash_armed_)) {
    if (crash_countdown_ == 0) {
      crash_armed_ = false;
      throw CrashInjected{};
    }
    --crash_countdown_;
  }
  const std::uint64_t lines = lines_spanned(addr, len);
  stats().on_flush(lines, len);
  latency_model().on_flush(addr, lines);

  if (shadow_) {
    // Copy the covered lines from the volatile front to the durable image —
    // the emulated CLWB writeback.
    std::uintptr_t first = line_of(addr);
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(front_);
    for (std::uint64_t i = 0; i < lines; ++i, first += kCacheLineSize) {
      const std::uint64_t off = first - base;
      if (off >= size_) break;
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(kCacheLineSize,
                                                           size_ - off));
      std::lock_guard<SpinLock> g(
          g_shadow_stripes[(first / kCacheLineSize) % kShadowStripes]);
      std::memcpy(static_cast<char*>(durable_) + off,
                  static_cast<char*>(front_) + off, n);
    }
  }
}

void PmemPool::fence() {
  stats().on_fence();
  latency_model().on_fence();
#if defined(__x86_64__)
  if (!shadow_) __atomic_thread_fence(__ATOMIC_SEQ_CST);
#endif
}

void PmemPool::persist(const void* addr, std::size_t len) {
  flush(addr, len);
  fence();
}

void PmemPool::memcpy_persist(void* dst, const void* src, std::size_t len) {
  std::memcpy(dst, src, len);
  persist(dst, len);
}

void PmemPool::simulate_crash() {
  if (!shadow_)
    throw std::logic_error("simulate_crash requires a shadow-mode pool");
  std::memcpy(front_, durable_, size_);
}

void PmemPool::arm_crash_after(std::uint64_t flushes) {
  if (!shadow_)
    throw std::logic_error("crash injection requires a shadow-mode pool");
  crash_armed_ = true;
  crash_countdown_ = flushes;
}

void PmemPool::disarm_crash() { crash_armed_ = false; }

void PmemPool::mark_running() {
  header()->normal_shutdown = 0;
  persist(&header()->normal_shutdown, sizeof(std::uint32_t));
}

void PmemPool::mark_clean_shutdown() {
  header()->normal_shutdown = 1;
  persist(&header()->normal_shutdown, sizeof(std::uint32_t));
}

bool PmemPool::was_clean_shutdown() const {
  return header()->normal_shutdown != 0;
}

void PmemPool::release_physical(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t pg_lo = round_up(off, 4096);
  const std::uint64_t pg_hi = ((off + len) / 4096) * 4096;
  if (!shadow_ && pg_hi > pg_lo && pg_hi <= size_) {
    const std::size_t n = static_cast<std::size_t>(pg_hi - pg_lo);
    if (anonymous_) {
      ::madvise(static_cast<char*>(durable_) + pg_lo, n, MADV_DONTNEED);
    } else {
#ifdef FALLOC_FL_PUNCH_HOLE
      ::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  static_cast<off_t>(pg_lo), static_cast<off_t>(n));
#endif
    }
  }
  punched_.fetch_add(len, std::memory_order_relaxed);
}

void PmemPool::reclaim_physical(std::uint64_t, std::uint64_t len) {
  punched_.fetch_sub(len, std::memory_order_relaxed);
}

std::uint64_t PmemPool::resident_bytes() const {
  // Lock-free readers (cold-tier read promotion) race allocations.
  const std::uint64_t used =
      std::atomic_ref<std::uint64_t>(header()->alloc_bump)
          .load(std::memory_order_relaxed);
  const std::uint64_t p = punched_.load(std::memory_order_relaxed);
  return used > p ? used - p : 0;
}

void PmemPool::set_root(std::uint64_t off) {
  header()->root_off = off;
  persist(&header()->root_off, sizeof(std::uint64_t));
}

std::uint64_t PmemPool::root() const { return header()->root_off; }

}  // namespace dgap::pmem
