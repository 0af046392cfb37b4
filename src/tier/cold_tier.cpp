#include "src/tier/cold_tier.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>

namespace dgap::tier {

namespace {

constexpr std::uint64_t kColdMagic = 0x4447'4150'434f'4c44ULL;  // "DGAPCOLD"
constexpr std::uint64_t kColdVersion = 1;

struct Super {
  std::uint64_t magic;
  std::uint64_t version;
  std::uint64_t layout_id;
  std::uint64_t num_sections;
  std::uint64_t section_bytes;
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), "cold_tier: " + what);
}

std::uint64_t round_up_4k(std::uint64_t v) { return (v + 4095) & ~4095ull; }

// Positional transfer of exactly `len` bytes: retries EINTR and short I/O.
void full_io(int fd, bool is_write, std::uint64_t off, void* buf,
             std::size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t rc = is_write ? ::pwrite(fd, p, len, static_cast<off_t>(off))
                                : ::pread(fd, p, len, static_cast<off_t>(off));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno(is_write ? "pwrite" : "pread");
    }
    if (rc == 0) {
      errno = EIO;
      throw_errno("short io (eof)");
    }
    p += rc;
    off += static_cast<std::uint64_t>(rc);
    len -= static_cast<std::size_t>(rc);
  }
}

}  // namespace

ColdTier::ColdTier(const ColdTierConfig& cfg)
    : path_(cfg.path),
      num_sections_(cfg.num_sections),
      section_bytes_(cfg.section_bytes) {
  if (num_sections_ == 0 || section_bytes_ == 0)
    throw std::invalid_argument("cold_tier: empty geometry");

  if (path_.empty()) {
    char tmpl[] = "/tmp/dgap-cold-XXXXXX";
    fd_ = ::mkstemp(tmpl);
    if (fd_ < 0) throw_errno("mkstemp");
    ::unlink(tmpl);  // volatile pools get a nameless scratch file
    path_ = "<anon>";
  } else {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) throw_errno("open(" + path_ + ")");
  }

  alloc_rates();

  images_base_ = round_up_4k(4096 + 8 * num_sections_);

  // Adopt a matching existing file (recovery path) or (re)initialize.
  Super sb{};
  const ssize_t got = ::pread(fd_, &sb, sizeof(sb), 0);
  if (got == static_cast<ssize_t>(sizeof(sb)) && sb.magic == kColdMagic &&
      sb.version == kColdVersion && sb.layout_id == cfg.layout_id &&
      sb.num_sections == num_sections_ &&
      sb.section_bytes == section_bytes_) {
    adopted_existing_ = true;
  } else {
    init_file(cfg.layout_id);
  }
}

ColdTier::~ColdTier() {
  if (fd_ >= 0) ::close(fd_);
}

void ColdTier::alloc_rates() {
  read_rate_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(num_sections_);
  churn_rate_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(num_sections_);
  for (std::uint64_t s = 0; s < num_sections_; ++s) {
    read_rate_[s].store(0, std::memory_order_relaxed);
    churn_rate_[s].store(0, std::memory_order_relaxed);
  }
}

void ColdTier::init_file(std::uint64_t layout_id) {
  // Drop any stale content, then re-extend sparsely: the generation table
  // and every image read back as zeros until written.
  if (::ftruncate(fd_, 0) != 0) throw_errno("ftruncate(0)");
  const auto full =
      static_cast<off_t>(images_base_ + num_sections_ * section_bytes_);
  if (::ftruncate(fd_, full) != 0) throw_errno("ftruncate(full)");
  Super sb{kColdMagic, kColdVersion, layout_id, num_sections_,
           section_bytes_};
  full_io(fd_, true, 0, &sb, sizeof(sb));
  if (::fdatasync(fd_) != 0) throw_errno("fdatasync");
  adopted_existing_ = false;
}

void ColdTier::reconfigure(std::uint64_t layout_id,
                           std::uint64_t num_sections,
                           std::uint64_t section_bytes) {
  num_sections_ = num_sections;
  section_bytes_ = section_bytes;
  images_base_ = round_up_4k(4096 + 8 * num_sections_);
  alloc_rates();
  init_file(layout_id);
  cold_sections_.store(0, std::memory_order_relaxed);
}

void ColdTier::write_section(std::uint64_t sec, const void* src,
                             std::uint64_t gen) {
  full_io(fd_, true, image_off(sec), const_cast<void*>(src),
          static_cast<std::size_t>(section_bytes_));
  full_io(fd_, true, gen_off(sec), &gen, sizeof(gen));
  if (::fdatasync(fd_) != 0) throw_errno("fdatasync");
}

void ColdTier::read_section(std::uint64_t sec, void* dst) {
  full_io(fd_, false, image_off(sec), dst,
          static_cast<std::size_t>(section_bytes_));
}

std::uint64_t ColdTier::read_slot_word(std::uint64_t sec,
                                       std::uint64_t slot_idx) {
  std::uint64_t w = 0;
  full_io(fd_, false, image_off(sec) + slot_idx * 8, &w, sizeof(w));
  return w;
}

std::uint64_t ColdTier::file_gen(std::uint64_t sec) {
  std::uint64_t g = 0;
  full_io(fd_, false, gen_off(sec), &g, sizeof(g));
  return g;
}

void ColdTier::decay_rates() {
  for (std::uint64_t s = 0; s < num_sections_; ++s) {
    const std::uint32_t r = read_rate_[s].load(std::memory_order_relaxed);
    if (r != 0) read_rate_[s].store(r / 2, std::memory_order_relaxed);
    const std::uint32_t c = churn_rate_[s].load(std::memory_order_relaxed);
    if (c != 0) churn_rate_[s].store(c / 2, std::memory_order_relaxed);
  }
}

ColdStats ColdTier::stats() const {
  ColdStats s;
  s.demotions = demotions_.load(std::memory_order_relaxed);
  s.promotions = promotions_.load(std::memory_order_relaxed);
  s.cold_reads = cold_reads_.load(std::memory_order_relaxed);
  s.cold_read_bytes = cold_read_bytes_.load(std::memory_order_relaxed);
  s.demoted_bytes = demoted_bytes_.load(std::memory_order_relaxed);
  s.promoted_bytes = promoted_bytes_.load(std::memory_order_relaxed);
  s.read_retries = read_retries_.load(std::memory_order_relaxed);
  s.read_reuses = read_reuses_.load(std::memory_order_relaxed);
  s.promote_vetoes = promote_vetoes_.load(std::memory_order_relaxed);
  s.cold_sections = cold_sections_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dgap::tier
