// PmemPool: the persistent-memory substrate (PMDK `libpmem` stand-in).
//
// A pool is a fixed-size byte region addressed by offset. Three backends:
//
//   * file-backed mmap (durable across process restarts, like a DAX file),
//   * anonymous mapping (volatile; fast unit tests and microbenches),
//   * *shadow mode*: client stores land in a volatile front buffer and only
//     explicitly persisted cache lines are copied to the durable backing.
//     `simulate_crash()` throws away everything not yet persisted. This is
//     stricter than real hardware (ADR would still drain its queues), so
//     recovery code proven correct here is correct on the real thing.
//
// All flush/fence traffic is counted in pmem::stats() and charged to the
// pmem::latency_model(), which is how the reproduction measures write
// amplification and emulates Optane's asymmetric write cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>

#include "src/common/platform.hpp"

namespace dgap::pmem {

class PmemAllocator;

struct PoolOptions {
  std::string path;   // empty => anonymous volatile mapping
  std::uint64_t size = 64ull << 20;
  bool shadow = false;  // strict crash-simulation mode
};

class PmemPool {
 public:
  // Create a brand-new pool (truncates an existing file).
  static std::unique_ptr<PmemPool> create(const PoolOptions& opts);
  // Open an existing file-backed pool; header is validated.
  static std::unique_ptr<PmemPool> open(const PoolOptions& opts);

  ~PmemPool();
  PmemPool(const PmemPool&) = delete;
  PmemPool& operator=(const PmemPool&) = delete;

  [[nodiscard]] void* base() const { return front_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  // Backing file path ("" for anonymous pools).
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool anonymous() const { return anonymous_; }

  // --- physical space accounting (SSD cold tier) ---------------------------
  static constexpr std::uint64_t kPageBytes = 4096;
  // Return the physical pages backing [off, off+len) to the OS. The range is
  // rounded *inward* to whole kPageBytes pages; file-backed pools punch a
  // hole (FALLOC_FL_PUNCH_HOLE, the file stays the same length), anonymous
  // pools MADV_DONTNEED — both read back as zeros. Shadow pools only
  // account: the front/durable buffers keep their bytes so the
  // crash-simulation contract is unaffected (callers only release ranges
  // whose logical content lives in another tier). Only the whole pages are
  // charged to the punched counter, so resident_bytes() never counts a
  // sub-page tail as freed. Best-effort: a failed punch still accounts.
  void release_physical(std::uint64_t off, std::uint64_t len);
  // Undo the accounting for a released range that is about to be rewritten
  // (promotion; same inward rounding); the pages fault back in on the first
  // store.
  void reclaim_physical(std::uint64_t off, std::uint64_t len);
  // Bytes the pool is believed to keep resident: the allocator bump minus
  // released ranges. An estimate (virtual pages count from allocation, not
  // first touch), but it moves exactly with release/reclaim pairs, which is
  // what the cold tier's budget enforcement needs.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  // Offset <-> pointer translation. Offset 0 is the pool header and is never
  // handed out by the allocator, so 0 doubles as a "null" offset.
  template <typename T = void>
  [[nodiscard]] T* at(std::uint64_t off) const {
    return reinterpret_cast<T*>(static_cast<char*>(front_) + off);
  }
  [[nodiscard]] std::uint64_t offset_of(const void* p) const {
    return static_cast<std::uint64_t>(static_cast<const char*>(p) -
                                      static_cast<const char*>(front_));
  }
  [[nodiscard]] bool contains(const void* p) const {
    const char* c = static_cast<const char*>(p);
    return c >= static_cast<const char*>(front_) &&
           c < static_cast<const char*>(front_) + size_;
  }

  // CLWB emulation: write back the cache lines covering [addr, addr+len).
  void flush(const void* addr, std::size_t len);
  // SFENCE emulation: order preceding flushes.
  void fence();
  // flush + fence, the common "make this durable now" operation.
  void persist(const void* addr, std::size_t len);

  // memcpy followed by persist of the destination.
  void memcpy_persist(void* dst, const void* src, std::size_t len);

  // Store a single value and persist its line(s).
  template <typename T>
  void store_persist(T* dst, const T& v) {
    *dst = v;
    persist(dst, sizeof(T));
  }

  // --- crash simulation (shadow mode only) ---------------------------------
  [[nodiscard]] bool shadow() const { return shadow_; }
  // Discard every store that was not persisted; pool content reverts to the
  // durable image. Caller must then re-run its recovery path.
  void simulate_crash();

  // Thrown by flush() when an armed crash point fires. Client state is then
  // untrusted; discard it, call simulate_crash(), and re-open/recover.
  struct CrashInjected : std::exception {
    [[nodiscard]] const char* what() const noexcept override {
      return "pmem crash point fired";
    }
  };
  // Arm a deterministic crash: the (n+1)-th subsequent flush throws
  // CrashInjected *before* writing back, i.e. that flush never becomes
  // durable. Shadow mode only. `disarm_crash()` cancels.
  void arm_crash_after(std::uint64_t flushes);
  void disarm_crash();

  // --- persistent header state ---------------------------------------------
  // NORMAL_SHUTDOWN flag (paper §3.1.1/3.1.5).
  void mark_running();          // clears the flag, persisted
  void mark_clean_shutdown();   // sets the flag, persisted
  [[nodiscard]] bool was_clean_shutdown() const;

  // Root object offset: where the client's top-level persistent struct sits.
  void set_root(std::uint64_t off);
  [[nodiscard]] std::uint64_t root() const;

  [[nodiscard]] PmemAllocator& allocator() { return *allocator_; }

  // First usable byte after the header (= allocator arena start).
  static constexpr std::uint64_t kHeaderSize = 4096;

 private:
  friend class PmemAllocator;
  struct Header;
  PmemPool() = default;

  Header* header() const { return at<Header>(0); }
  void map(const PoolOptions& opts, bool create_new);

  void* front_ = nullptr;    // what clients read/write
  void* durable_ = nullptr;  // mmap backing (== front_ unless shadow mode)
  std::uint64_t size_ = 0;
  std::string path_;
  std::atomic<std::uint64_t> punched_{0};  // released-but-allocated bytes
  bool shadow_ = false;
  bool anonymous_ = false;
  int fd_ = -1;
  bool crash_armed_ = false;
  std::uint64_t crash_countdown_ = 0;
  std::unique_ptr<PmemAllocator> allocator_;
};

}  // namespace dgap::pmem
