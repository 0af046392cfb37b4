// Worklist for incremental PageRank's frontier phase: a deduplicating
// vertex set (dense byte bitmap + insertion-ordered vector). The bitmap
// makes push idempotent — the delta-seeded kernel pushes the same vertex
// from many edges — and the vector preserves a deterministic processing
// order.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/algorithms/graph_view.hpp"

namespace dgap::algorithms {

class Frontier {
 public:
  explicit Frontier(NodeId n) : in_(static_cast<std::size_t>(n), 0) {}

  void push(NodeId v) {
    std::uint8_t& flag = in_[static_cast<std::size_t>(v)];
    if (flag == 0) {
      flag = 1;
      items_.push_back(v);
    }
  }
  [[nodiscard]] bool contains(NodeId v) const {
    return in_[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const std::vector<NodeId>& items() const { return items_; }

  // Reset to empty without dropping the bitmap allocation (the kernels
  // ping-pong two frontiers across rounds).
  void clear() {
    for (const NodeId v : items_) in_[static_cast<std::size_t>(v)] = 0;
    items_.clear();
  }
  void swap(Frontier& other) noexcept {
    in_.swap(other.in_);
    items_.swap(other.items_);
  }

 private:
  std::vector<std::uint8_t> in_;
  std::vector<NodeId> items_;
};

}  // namespace dgap::algorithms
