// Core graph value types shared across every store and kernel.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

namespace dgap {

// Vertex identifier. The paper stores 32-bit destination IDs on PM, and so
// does DgapStore's edge array (src/core/encoding.hpp, which caps ids at
// kMaxVertexId); the API uses 64-bit ids so every store shares one type.
using NodeId = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;

struct Edge {
  NodeId src;
  NodeId dst;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// Destination-ID payload size the paper charges per edge (§3, "each DGAP
// edge takes 4 bytes"). Used as the denominator of write amplification.
inline constexpr std::uint64_t kEdgePayloadBytes = 4;

// Neighbor-emit helper used by every store's for_each_out: callbacks may
// return void (visit all) or bool (true = stop early, the GAPBS bottom-up
// BFS pattern). Returns true when iteration should stop.
template <typename F, typename... Args>
constexpr bool emit_stop(F&& fn, Args&&... args) {
  if constexpr (std::is_void_v<std::invoke_result_t<F&, Args...>>) {
    fn(std::forward<Args>(args)...);
    return false;
  } else {
    return static_cast<bool>(fn(std::forward<Args>(args)...));
  }
}

}  // namespace dgap
