// Persistent structures of a DGAP store inside a PmemPool.
//
// Pool root object is DgapRoot. The edge array + per-section edge logs live
// behind an indirection (`layout_off`) so a resize can build the new arrays
// completely, persist them, and then switch with a single atomic 8-byte
// store (crash lands on either the old or the new layout, never between).
#pragma once

#include <cstdint>

#include "src/core/encoding.hpp"

namespace dgap::core {

struct DgapLayout {
  std::uint64_t edge_array_off;  // capacity_slots * sizeof(Slot)
  std::uint64_t capacity_slots;
  std::uint64_t num_segments;   // power of two
  std::uint64_t segment_slots;  // capacity_slots / num_segments
  std::uint64_t elog_region_off;  // num_segments * elog_entries * 12 B
  std::uint64_t elog_entries;     // entries per section
  // SSD cold tier (src/tier/cold_tier.hpp): num_segments residency words,
  // one per section. Word format: bit 63 = section is demoted to the cold
  // file, bits 0..62 = demotion generation stamp (monotone per section;
  // echoed in the cold file so a stale image is never trusted). A word is
  // flipped to "cold" only *after* the section image is durable on the SSD,
  // so recovery can treat the bitmap as authoritative and a torn demotion
  // simply reads as still-resident in pmem. Always allocated (zeroed = all
  // resident) so a pool created with the tier off can reopen with it on.
  std::uint64_t residency_off;
};

struct DgapRoot {
  std::uint64_t magic;
  std::uint64_t layout_off;     // active DgapLayout (atomic flip on resize)
  std::uint64_t num_vertices;   // grows via insert_vertex
  std::uint64_t ulog_region_off;  // max_writer_threads stride-spaced UlogAreas
  std::uint32_t num_ulogs;
  std::uint32_t ulog_data_bytes;  // ULOG_SZ
  std::uint32_t elog_bytes;       // ELOG_SZ (echo of create-time options;
                                  // resizes under ingest_heavy may grow the
                                  // live layout's elog_entries past it)
  std::uint32_t flags;            // low byte: IngestProfile (options.hpp);
                                  // geometry is durable, so open() adopts
                                  // this over the caller's requested profile
  std::uint64_t shutdown_image_off;  // 0 = none / stale
  std::uint64_t shutdown_image_bytes;
  std::uint64_t tx_anchor_off;  // PmemTx journal anchor (ablation mode)
};

// Root magic doubles as the format version: "DGAPSTO5" — bumped from
// "DGAPSTO4" when edge-array slots shrank from 64 to 32 bits (from
// "DGAPSTO3" before that, when the shard-identity fields left DgapRoot; from
// "DGAPSTO2" when the cold-tier residency map grew DgapLayout; and from
// "DGAPSTOR" when the shard-identity fields grew DgapRoot), so a pool
// written by an old layout is rejected at open instead of misread.
inline constexpr std::uint64_t kDgapMagic = 0x4447'4150'5354'4f35ULL;

// Residency-word helpers (DgapLayout::residency_off).
inline constexpr std::uint64_t kResidencyColdBit = 1ull << 63;
inline constexpr bool residency_is_cold(std::uint64_t word) {
  return (word & kResidencyColdBit) != 0;
}
inline constexpr std::uint64_t residency_gen(std::uint64_t word) {
  return word & ~kResidencyColdBit;
}

// Per-writer-thread undo log: a persistent descriptor of the in-flight
// structural operation plus a data area backing up destination bytes about
// to be overwritten. See src/core/rebalance.cpp for the protocol; recovery
// in src/core/recovery.cpp replays it after a crash.
struct UlogDescriptor {
  // Operation states. Persisted transitions order the protocol.
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kRunMove = 1;   // copying one vertex run
  static constexpr std::uint64_t kRunZero = 2;   // zeroing vacated slots
  static constexpr std::uint64_t kRunMark = 3;   // marking elog entries consumed
  static constexpr std::uint64_t kElogClear = 4;  // clearing window elogs
  static constexpr std::uint64_t kShift = 5;     // ablation: nearby shift

  std::uint64_t state;
  // Rebalance window in slots, for recovery re-issue.
  std::uint64_t win_begin;
  std::uint64_t win_end;
  // In-flight run (kRunMove / kRunZero / kRunMark).
  std::int64_t run_vertex;
  std::uint64_t old_start;    // slot of the pivot before the move
  std::uint64_t new_start;    // planned slot of the pivot
  std::uint64_t old_arr_len;  // pivot + array edges before the move
  std::uint64_t new_len;      // pivot + array edges + spliced elog edges
  std::uint64_t chunk_cursor;  // slots already copied (tail-first if moving
                               // right, head-first if moving left)
  // Vacated region to zero (kRunZero) — also re-zeroed on recovery.
  std::uint64_t zero_begin;
  std::uint64_t zero_end;
  // Backup area state: [undo_slot, undo_slot + undo_slots) of the edge
  // array is saved in the data area when undo_valid == 1.
  std::uint64_t undo_slot;
  std::uint64_t undo_slots;
  std::uint64_t undo_valid;
  std::uint64_t reserved[2];
  // Data area of ulog_data_bytes follows immediately after this struct.
};

inline constexpr std::uint64_t ulog_stride(std::uint32_t data_bytes) {
  return ((sizeof(UlogDescriptor) + data_bytes + 63) / 64) * 64;
}

}  // namespace dgap::core
