// PageRank, GAPBS-style pull iteration (paper Table 1: 20 fixed
// iterations, Link Analysis kernel).
//
// score_new(v) = (1-d)/N + d * sum_{u in N(v)} contrib(u),
// contrib(u) = score(u) / deg(u). Graphs are symmetric so pulling over
// out-neighbors equals pulling over in-neighbors.
//
// Parallelism goes through par:: (scheduler or OpenMP — src/sched/
// parallel.hpp). Both reductions use reduce_blocks, whose per-block
// partials combine in block order: the floating-point results are
// bit-identical across execution modes and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "src/algorithms/graph_view.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::algorithms {

struct PageRankParams {
  int iterations = 20;  // the paper's fixed count
  double damping = 0.85;
  // > 0: stop early once an iteration's total L1 score change drops below
  // this (GAPBS's -t mode; `iterations` becomes an upper bound). 0 keeps
  // the paper's fixed-iteration behavior, bit for bit — the incremental
  // kernels converge to a residual target, so their from-scratch baseline
  // must be able to as well.
  double tolerance = 0;
};

// Contributions pass: contrib[v] = score[v] / deg(v) for every vertex with
// out-edges. Returns the dangling (deg == 0) mass, which the pull pass
// redistributes uniformly, as in GAPBS's handling of sink vertices.
template <GraphView G>
double pagerank_contributions(const G& g, const std::vector<double>& score,
                              std::vector<double>& contrib) {
  return par::reduce_blocks(
      g.num_nodes(), 2048, 0.0,
      [&](std::int64_t b, std::int64_t e) {
        double part = 0.0;
        for (NodeId v = b; v < e; ++v) {
          const std::int64_t deg = g.out_degree(v);
          if (deg > 0)
            contrib[v] = score[v] / static_cast<double>(deg);
          else
            part += score[v];
        }
        return part;
      },
      [](double a, double b) { return a + b; });
}

// One Jacobi pull sweep over every vertex, updating `score` in place
// (`contrib` is scratch of the same size). Returns the sweep's total L1
// score change. pagerank() and the certification sweeps of
// incremental_pagerank() (incremental/pagerank_incr.hpp) both iterate
// exactly this, so their results agree bit for bit at any thread count.
template <GraphView G>
double pagerank_sweep(const G& g, double damping, std::vector<double>& score,
                      std::vector<double>& contrib) {
  const NodeId n = g.num_nodes();
  const double nd = static_cast<double>(n);
  const double base = (1.0 - damping) / nd;
  const double dangling_share =
      damping * pagerank_contributions(g, score, contrib) / nd;
  return par::reduce_blocks(
      n, 256, 0.0,
      [&](std::int64_t b, std::int64_t e) {
        double part = 0.0;
        for (NodeId v = b; v < e; ++v) {
          double incoming = 0.0;
          g.for_each_out(v, [&](NodeId u) { incoming += contrib[u]; });
          const double next = base + dangling_share + damping * incoming;
          part += next > score[v] ? next - score[v] : score[v] - next;
          score[v] = next;
        }
        return part;
      },
      [](double a, double b) { return a + b; });
}

template <GraphView G>
std::vector<double> pagerank(const G& g, const PageRankParams& params = {}) {
  const NodeId n = g.num_nodes();
  if (n == 0) return {};
  std::vector<double> score(static_cast<std::size_t>(n),
                            1.0 / static_cast<double>(n));
  std::vector<double> contrib(static_cast<std::size_t>(n), 0.0);
  for (int iter = 0; iter < params.iterations; ++iter) {
    const double change = pagerank_sweep(g, params.damping, score, contrib);
    if (params.tolerance > 0 && change < params.tolerance) break;
  }
  return score;
}

}  // namespace dgap::algorithms
