// Log-bucketed latency histogram: 64 power-of-two buckets, relaxed-atomic
// record, mergeable across threads.
//
// Bucket 0 holds exact zeros; bucket i (i >= 1) holds values in
// [2^(i-1), 2^i). With nanosecond inputs bucket 63 covers everything from
// ~4.6 seconds up, so the range never saturates in practice. Recording is
// a single bit_width plus two relaxed fetch_adds — cheap enough for every
// hot path that is at least per-batch granular (absorb, freeze, rebalance,
// cache populate); it is deliberately NOT used per edge.
//
// snapshot() returns a plain-value HistogramSnapshot that supports
// subtraction (per-round deltas), addition (per-thread merges), and
// percentile extraction with linear interpolation inside a bucket.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

namespace dgap::obs {

inline constexpr int kHistBuckets = 64;

// Plain-value copy of a histogram; safe to pass around, diff, and merge.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBuckets> counts{};
  std::uint64_t count = 0;  // total samples
  std::uint64_t sum = 0;    // sum of recorded values (ns)

  HistogramSnapshot& operator+=(const HistogramSnapshot& o) {
    for (int i = 0; i < kHistBuckets; ++i) counts[i] += o.counts[i];
    count += o.count;
    sum += o.sum;
    return *this;
  }

  // Delta between two snapshots of the same (monotonically recording)
  // histogram: rhs must be the earlier snapshot.
  HistogramSnapshot operator-(const HistogramSnapshot& earlier) const {
    HistogramSnapshot d;
    for (int i = 0; i < kHistBuckets; ++i)
      d.counts[i] = counts[i] - earlier.counts[i];
    d.count = count - earlier.count;
    d.sum = sum - earlier.sum;
    return d;
  }

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }

  // Value (ns) at quantile q in [0,1], interpolated linearly within the
  // containing bucket. Returns 0 for an empty histogram.
  double percentile(double q) const {
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double rank = q * static_cast<double>(count);
    double cum = 0.0;
    for (int i = 0; i < kHistBuckets; ++i) {
      if (counts[i] == 0) continue;
      const double next = cum + static_cast<double>(counts[i]);
      if (next >= rank) {
        if (i == 0) return 0.0;  // bucket 0 is exactly zero
        const double lo = static_cast<double>(1ull << (i - 1));
        const double hi = i >= 63 ? lo * 2.0
                                  : static_cast<double>(1ull << i);
        const double frac =
            (rank - cum) / static_cast<double>(counts[i]);
        return lo + (hi - lo) * frac;
      }
      cum = next;
    }
    // All mass consumed (q == 1 with rounding): top of highest non-empty
    // bucket.
    for (int i = kHistBuckets - 1; i >= 0; --i)
      if (counts[i] != 0)
        return i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1)) * 2.0;
    return 0.0;
  }
};

class LatencyHistogram {
 public:
  static int bucket_for(std::uint64_t v) {
    if (v == 0) return 0;
    const int w = std::bit_width(v);  // v in [2^(w-1), 2^w)
    return w < kHistBuckets ? w : kHistBuckets - 1;
  }

  void record(std::uint64_t v) {
    counts_[static_cast<std::size_t>(bucket_for(v))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    for (int i = 0; i < kHistBuckets; ++i) {
      s.counts[i] =
          counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
      s.count += s.counts[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace dgap::obs
