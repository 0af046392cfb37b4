// Incremental PageRank between snapshot epochs: delta-seeded frontier
// propagation, closed out by full sweeps to the SAME stopping criterion as
// the tolerance-stopped full kernel.
//
// Phase 1 (localization): starting from the previous cut's converged
// scores, only the vertices whose pull inputs changed are recomputed — the
// delta's changed vertices and their out-neighbors. Each recompute is the
// same pull update the full kernel applies; when a vertex's score moves by
// more than tolerance/N its out-neighbors join the next frontier, so
// corrections propagate exactly as far as they matter on the symmetric
// graphs the benches ingest. This phase is a heuristic, not a proof: the
// pull operator's true dependents of a changed vertex are its IN-edge
// sources, which the store cannot enumerate, and out-neighbor propagation
// only coincides with that on a symmetric view (a delete that has absorbed
// one direction of a pair breaks the coincidence mid-round).
//
// Phase 2 (closing loop): full Jacobi sweeps — each bit-identical to one
// iteration of the full kernel — run until one sweep's total L1 change
// drops below tolerance. Plain Jacobi (x <- sweep(x)) continues while each
// sweep's change is at most sigma = (1 - sqrt(1 - d^2)) / d times the
// previous one's, d = damping. On a symmetric view the sweep's linear part
// has its spectrum in [-d, d], where Chebyshev semi-iteration contracts the
// error by sigma per sweep against Jacobi's d. So once a sweep contracts
// slower than that, the loop restarts on the Chebyshev three-term
// recurrence from the current scores x_0:
//
//   y_k = sweep(x_k),  x_{k+1} = x_{k-1} + w_{k+1} (y_k - x_{k-1}),
//   w_1 = 1,  w_2 = 1 / (1 - d^2/2),  w_{k+1} = 1 / (1 - d^2 w_k / 4).
//
// The sweep works in place, so x_k is kept aside for the extrapolation
// beside x_{k-1}; both vectors are allocated only once Chebyshev engages.
// Delete rounds are the slow ones: degrees count tombstoned slots
// (snapshot.hpp), so a delete moves the fixpoint's total mass and leaves
// an error along the dominant mode, which Jacobi contracts only by d per
// sweep. There Chebyshev about halves the sweeps (27 -> 14 in
// incremental_test); insert-only rounds certify within a few sweeps and
// rarely leave Jacobi.
//
// The certificate is the full kernel's own stopping criterion, and the
// vector returned is always a sweep OUTPUT y whose change ||y - x||_1 is
// below tolerance, never an extrapolated x. The sweep is an L1 contraction
// by d for ANY input, negative extrapolated entries and asymmetric views
// included, so ||y - x*||_1 <= d * tolerance / (1 - d), and the accuracy
// contract holds UNCONDITIONALLY: both results sit within
// tolerance/(1-damping) of the same fixpoint, hence
// ||incremental - full||_1 <= 2 * tolerance / (1 - damping). The bench and
// tests verify that bound every round. Should the loop spend its
// max_iterations sweeps without a certificate (the spectrum argument fails
// on a strongly asymmetric view), plain Jacobi sweeps finish from wherever
// it stopped. Near the seed (small deltas) phase 1 leaves the scores almost
// converged and phase 2 terminates in one or two sweeps, versus the dozens
// a cold start needs — that gap is the speedup.
//
// Fallback: without a usable seed (prev scores don't match the delta's
// older cut — e.g. the very first round) the kernel runs the sweeps from
// whatever scores exist and reports full_fallback. Vertex growth and
// deletions do NOT force the fallback: the per-call O(V) contribution pass
// recomputes degrees and dangling mass from the newer view, and new
// vertices arrive on the frontier like any changed vertex.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/algorithms/graph_view.hpp"
#include "src/algorithms/incremental/frontier.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::algorithms {

struct IncrementalPageRankParams {
  double damping = 0.85;
  // Residual target, shared with the full baseline it is verified against.
  double tolerance = 1e-4;
  // Upper bound on frontier rounds, on closing-loop sweeps and on the plain
  // Jacobi sweeps that follow a closing loop out of budget (each gets its
  // own budget of this many rounds).
  int max_iterations = 50;
};

struct IncrementalPageRankResult {
  std::vector<double> scores;
  int iterations = 0;
  // Total vertex activations processed (sum of frontier sizes, plus n per
  // full sweep) — the work metric the bench reports.
  std::uint64_t active_vertices = 0;
  bool full_fallback = false;
};

template <GraphView G>
IncrementalPageRankResult incremental_pagerank(
    const G& g, const core::SnapshotDelta& delta,
    const std::vector<double>& prev,
    const IncrementalPageRankParams& params = {}) {
  const NodeId n = g.num_nodes();
  IncrementalPageRankResult r;
  if (n == 0) return r;
  const double nd = static_cast<double>(n);
  const double base = (1.0 - params.damping) / nd;

  std::vector<double> contrib(static_cast<std::size_t>(n), 0.0);
  // Full pull sweeps (pagerank.hpp's own) until one sweep's total L1
  // change drops below tolerance: the shared stopping criterion that makes
  // incremental and full comparable.
  const auto sweep_to_tolerance = [&](std::vector<double>& score) {
    for (int s = 0; s < params.max_iterations; ++s) {
      const double change =
          pagerank_sweep(g, params.damping, score, contrib);
      ++r.iterations;
      r.active_vertices += static_cast<std::uint64_t>(n);
      if (change < params.tolerance) break;
    }
  };

  const bool seed_ok =
      static_cast<NodeId>(prev.size()) == delta.nodes_before &&
      n == delta.nodes_after;

  if (!seed_ok) {
    r.full_fallback = true;
    r.scores.assign(static_cast<std::size_t>(n), 1.0 / nd);
    const std::size_t keep = std::min(prev.size(), r.scores.size());
    for (std::size_t i = 0; i < keep; ++i) r.scores[i] = prev[i];
    sweep_to_tolerance(r.scores);
    return r;
  }

  // Frontier phase. Extend the seed for vertices born since the older cut:
  // they start at the no-incoming-mass value `base` and are corrected on
  // the first round (every new vertex with edges is in delta.changed).
  r.scores = prev;
  r.scores.resize(static_cast<std::size_t>(n), base);
  std::vector<double>& score = r.scores;

  // Fresh contributions and dangling mass from the NEWER view — degrees and
  // the dangling set may have changed, and the full kernel this verifies
  // against sees exactly these. One division per vertex here keeps the
  // frontier pulls division-free (they read contrib[], not score/degree).
  const double dangling = pagerank_contributions(g, score, contrib);
  const double dangling_share = params.damping * dangling / nd;
  const double eps = params.tolerance / nd;

  // Frontier work budget: the phase only pays off while it touches a small
  // fraction of the edge set — real deltas are degree-biased (hot vertices
  // attract most new edges), so an unbounded frontier can pull several
  // sweeps' worth of edges while "localizing". Past a quarter-sweep of edge
  // work the certification sweeps get the scores to tolerance at streaming
  // cost anyway, so the phase seeds only under budget and bails the moment
  // its cumulative pulled-edge count crosses it.
  const std::uint64_t edge_budget = g.num_edges_directed() / 4 + 1;
  std::uint64_t edge_work = 0;
  for (const NodeId v : delta.changed)
    edge_work += static_cast<std::uint64_t>(g.out_degree(v));

  Frontier cur(n);
  Frontier nxt(n);
  if (edge_work <= edge_budget) {
    for (const NodeId v : delta.changed) {
      cur.push(v);
      g.for_each_out(v, [&](NodeId u) {
        if (u < n) cur.push(u);
      });
    }
  }

  int rounds = 0;
  while (!cur.empty() && rounds < params.max_iterations &&
         edge_work <= edge_budget) {
    double residual = 0.0;
    for (const NodeId v : cur.items()) {
      double incoming = 0.0;
      g.for_each_out(v, [&](NodeId u) { incoming += contrib[u]; });
      const double next = base + dangling_share + params.damping * incoming;
      const double diff = next > score[v] ? next - score[v] : score[v] - next;
      residual += diff;
      score[v] = next;
      const std::int64_t deg = g.out_degree(v);
      edge_work += static_cast<std::uint64_t>(deg);
      // Gauss-Seidel: the updated contribution is visible to vertices later
      // in this same round, which shortens the correction chains.
      if (deg > 0) contrib[v] = next / static_cast<double>(deg);
      if (diff > eps) {
        g.for_each_out(v, [&](NodeId u) {
          if (u < n) nxt.push(u);
        });
      }
    }
    r.active_vertices += cur.size();
    ++r.iterations;
    ++rounds;
    cur.clear();
    cur.swap(nxt);
    if (residual < params.tolerance) break;
  }

  // Closing loop (see header comment): Jacobi, then Chebyshev once a sweep
  // contracts slower than Chebyshev's rate; returns on the first sweep
  // whose change certifies the tolerance.
  const double d = params.damping;
  const double sigma = (1.0 - std::sqrt(1.0 - d * d)) / d;
  std::vector<double> older;  // x_{k-1}; empty while the loop is Jacobi
  std::vector<double> saved;  // x_k, which the in-place sweep overwrites
  int steps = 0;              // Chebyshev steps taken since the restart
  double omega = 1.0;         // w_k of the last Chebyshev step
  double last = 0.0;          // previous Jacobi sweep's change
  for (int s = 0; s < params.max_iterations; ++s) {
    const double change = pagerank_sweep(g, d, score, contrib);
    ++r.iterations;
    r.active_vertices += static_cast<std::uint64_t>(n);
    if (change < params.tolerance) return r;
    if (older.empty()) {
      if (last == 0.0 || change <= sigma * last) {
        last = change;
        continue;
      }
      older = score;  // restart the recurrence at x_0 = this sweep's output
      continue;
    }
    if (++steps == 1) {  // w_1 = 1: x_1 is the sweep output itself
      saved = score;
      continue;
    }
    omega = steps == 2 ? 1.0 / (1.0 - d * d / 2.0)
                       : 1.0 / (1.0 - d * d * omega / 4.0);
    par::for_blocks(n, 2048, [&](std::int64_t b, std::int64_t e) {
      for (NodeId v = b; v < e; ++v) {
        const double x = older[v] + omega * (score[v] - older[v]);
        older[v] = saved[v];
        saved[v] = x;
        score[v] = x;
      }
    });
  }

  // Out of budget without a certificate: plain Jacobi to the same
  // stopping criterion.
  sweep_to_tolerance(score);
  return r;
}

}  // namespace dgap::algorithms
