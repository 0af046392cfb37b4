// ColdTier: the SSD tier *below* the pmem pool — the bottom half of the
// tiering story whose top half is the PR-6 DRAM SectionCache above it.
//
// Whole sections (edge-array slot range + their elog tail) are demoted from
// the pool to a section-aligned backing file when they are read-cold and
// write-quiet (per-section read/churn EWMAs, same admission idiom the DRAM
// tier uses), and promoted back on access. This class owns the mechanics:
// the backing file and its format, the pread/pwrite/fdatasync transport,
// per-section generation stamps, the EWMAs, and the cold_* stat cells. The
// *protocol* — which pmem bytes move when, under which locks and reader
// gates, when the persisted residency word flips, and when a read may
// promote — lives in DgapStore (src/core/cold_ops.cpp), because it is
// inseparable from the store's locking and crash-consistency rules.
//
// File format (little-endian, sparse):
//   [0, 4096)                      superblock {magic, version, layout_id,
//                                  num_sections, section_bytes}
//   [4096, 4096 + 8*num_sections)  generation table, one u64 per section
//   [images_base + s*section_bytes ...)  section images, page-aligned base
//
// A section image is only trusted when the *pmem* residency word says cold
// AND the generations match; the image is made durable (write + fdatasync)
// strictly before the residency word flips, so a torn demotion is simply
// ignored and pmem stays authoritative.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/obs/latency_histogram.hpp"

namespace dgap::tier {

struct ColdTierConfig {
  // Backing file. Empty => an unlinked temp file (fine for volatile pools;
  // durable pools should pass a stable path, by convention pool path +
  // ".cold").
  std::string path;
  std::uint64_t layout_id = 0;  // identifies the layout (root layout_off)
  std::uint64_t num_sections = 0;
  std::uint64_t section_bytes = 0;  // slot-image bytes per section
};

struct ColdStats {
  std::uint64_t demotions = 0;
  std::uint64_t promotions = 0;
  std::uint64_t cold_reads = 0;       // frozen reads served from the file
  std::uint64_t cold_read_bytes = 0;
  std::uint64_t demoted_bytes = 0;    // pmem bytes released, cumulative
  std::uint64_t promoted_bytes = 0;   // pmem bytes reclaimed, cumulative
  std::uint64_t read_retries = 0;     // gen-revalidation retries (churn)
  std::uint64_t read_reuses = 0;      // cold reads served by a reused image
  std::uint64_t promote_vetoes = 0;   // read promotions the placement refused
  std::uint64_t cold_sections = 0;    // currently demoted
};

class ColdTier {
 public:
  explicit ColdTier(const ColdTierConfig& cfg);
  ~ColdTier();
  ColdTier(const ColdTier&) = delete;
  ColdTier& operator=(const ColdTier&) = delete;

  // True when the existing file's superblock matches this layout (same
  // layout_id/geometry) — its generation table is then still meaningful.
  [[nodiscard]] bool adopted_existing() const { return adopted_existing_; }

  // Drop every image and re-stamp the superblock for a new layout (resize
  // flip). Only legal when no section of the *new* layout is cold yet.
  void reconfigure(std::uint64_t layout_id, std::uint64_t num_sections,
                   std::uint64_t section_bytes);

  [[nodiscard]] std::uint64_t num_sections() const { return num_sections_; }
  [[nodiscard]] std::uint64_t section_bytes() const { return section_bytes_; }

  // --- section image I/O ---------------------------------------------------
  // Write a section image + its generation stamp and make both durable.
  // Callers serialize demotions (rebalance_mu_).
  void write_section(std::uint64_t sec, const void* src, std::uint64_t gen);
  // Read a full image into dst (concurrent-safe; positional reads).
  void read_section(std::uint64_t sec, void* dst);
  // Read one 8-byte slot of a section image (rebalance boundary probes).
  std::uint64_t read_slot_word(std::uint64_t sec, std::uint64_t slot_idx);
  [[nodiscard]] std::uint64_t file_gen(std::uint64_t sec);

  // --- placement EWMAs (PR-6 admission idiom) ------------------------------
  void note_read(std::uint64_t sec) {
    rate_bump(read_rate_[sec]);
  }
  void note_write(std::uint64_t sec) {
    rate_bump(churn_rate_[sec]);
  }
  [[nodiscard]] std::uint32_t read_rate(std::uint64_t sec) const {
    return read_rate_[sec].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t churn_rate(std::uint64_t sec) const {
    return churn_rate_[sec].load(std::memory_order_relaxed);
  }
  // Exponential decay sweep; the budget-enforcement pass calls this so
  // "cold" means cold *lately*, not cold since startup.
  void decay_rates();

  // --- stats ---------------------------------------------------------------
  void count_demotion(std::uint64_t bytes) {
    demotions_.fetch_add(1, std::memory_order_relaxed);
    demoted_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    cold_sections_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_promotion(std::uint64_t bytes) {
    promotions_.fetch_add(1, std::memory_order_relaxed);
    promoted_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    cold_sections_.fetch_sub(1, std::memory_order_relaxed);
  }
  void count_cold_read(std::uint64_t bytes) {
    cold_reads_.fetch_add(1, std::memory_order_relaxed);
    cold_read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void count_read_retry() {
    read_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_read_reuse() {
    read_reuses_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_promote_veto() {
    promote_vetoes_.fetch_add(1, std::memory_order_relaxed);
  }
  void set_cold_sections(std::uint64_t n) {
    cold_sections_.store(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cold_sections() const {
    return cold_sections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] ColdStats stats() const;

  obs::LatencyHistogram& demote_hist() { return demote_hist_; }
  obs::LatencyHistogram& promote_hist() { return promote_hist_; }

 private:
  static void rate_bump(std::atomic<std::uint32_t>& cell) {
    std::uint32_t v = cell.load(std::memory_order_relaxed);
    if (v < (1u << 30)) cell.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t image_off(std::uint64_t sec) const {
    return images_base_ + sec * section_bytes_;
  }
  [[nodiscard]] std::uint64_t gen_off(std::uint64_t sec) const {
    return 4096 + sec * 8;
  }
  void init_file(std::uint64_t layout_id);
  void alloc_rates();

  int fd_ = -1;
  std::string path_;
  std::uint64_t num_sections_ = 0;
  std::uint64_t section_bytes_ = 0;
  std::uint64_t images_base_ = 0;
  bool adopted_existing_ = false;

  std::unique_ptr<std::atomic<std::uint32_t>[]> read_rate_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> churn_rate_;

  std::atomic<std::uint64_t> demotions_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> cold_reads_{0};
  std::atomic<std::uint64_t> cold_read_bytes_{0};
  std::atomic<std::uint64_t> demoted_bytes_{0};
  std::atomic<std::uint64_t> promoted_bytes_{0};
  std::atomic<std::uint64_t> read_retries_{0};
  std::atomic<std::uint64_t> read_reuses_{0};
  std::atomic<std::uint64_t> promote_vetoes_{0};
  std::atomic<std::uint64_t> cold_sections_{0};
  obs::LatencyHistogram demote_hist_;
  obs::LatencyHistogram promote_hist_;

  friend class ColdTierTestPeer;
};

}  // namespace dgap::tier
