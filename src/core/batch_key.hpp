// Sort-key layout of the batched absorption path (batch_insert.cpp).
//
// One 64-bit integer sort groups a batch by home section, clusters each
// source's edges for range-coalesced flushes, and keeps per-source
// chronological order via the index tiebreak:
//
//   bits 63..40  home section   (kHomeBits = 24)
//   bits 39..16  source low 24  (kSrcBits  = 24; sources sharing their low
//                               bits merely share a cluster — the
//                               absorption loop compares real source ids)
//   bits 15..0   batch index    (kIdxBits  = 16; bounds one chunk)
//
// The home field is NOT self-guarding: at kMaxKeySections or more sections
// a home id overflows into nothing (the shift discards the high bits) and
// two different sections silently collide — a run could then be absorbed
// under the wrong section's lock. update_batch_internal checks the live
// section count against kMaxKeySections and falls back to the per-edge
// path beyond it (2^24 sections x 512 slots x 4 B is a 32 GB edge array;
// the fallback is correctness insurance, not a hot path).
#pragma once

#include <cstdint>

#include "src/graph/types.hpp"

namespace dgap::core::batchkey {

inline constexpr int kHomeBits = 24;
inline constexpr int kSrcBits = 24;
inline constexpr int kIdxBits = 16;
static_assert(kHomeBits + kSrcBits + kIdxBits == 64);

// First section count the key can no longer represent.
inline constexpr std::uint64_t kMaxKeySections = 1ull << kHomeBits;

inline constexpr std::uint64_t kSrcMask = (1ull << kSrcBits) - 1;
inline constexpr std::uint64_t kIdxMask = (1ull << kIdxBits) - 1;

constexpr std::uint64_t make_key(std::uint64_t home, NodeId src,
                                 std::uint32_t idx) {
  return (home << (kSrcBits + kIdxBits)) |
         ((static_cast<std::uint64_t>(src) & kSrcMask) << kIdxBits) | idx;
}
constexpr std::uint64_t key_home(std::uint64_t key) {
  return key >> (kSrcBits + kIdxBits);
}
// Section+source cluster (sorting adjacency); see the caveat above.
constexpr std::uint64_t key_group(std::uint64_t key) {
  return key >> kIdxBits;
}
constexpr std::uint32_t key_idx(std::uint64_t key) {
  return static_cast<std::uint32_t>(key & kIdxMask);
}

}  // namespace dgap::core::batchkey
