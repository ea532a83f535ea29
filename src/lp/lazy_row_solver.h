// Row generation ("lazy constraints") on top of any LP engine.
//
// The EBF has a Steiner row for every pair of sinks — Theta(m^2) rows, most
// of which are slack at the optimum (Section 4.6 of the paper argues they
// can be reduced). We therefore solve a relaxation containing only a seed
// subset, ask a caller-provided separation oracle for rows the current point
// violates, add them, and repeat. Because every added row is a valid
// constraint of the full problem, the final point (violating nothing) is
// optimal for the full problem.

#ifndef LUBT_LP_LAZY_ROW_SOLVER_H_
#define LUBT_LP_LAZY_ROW_SOLVER_H_

#include <functional>
#include <span>
#include <vector>

#include "lp/model.h"

namespace lubt {

/// Separation oracle: given the current primal point, return rows of the
/// full problem that the point violates (empty when none).
using RowOracle =
    std::function<std::vector<SparseRow>(std::span<const double> x)>;

/// Statistics about a lazy solve.
struct LazySolveStats {
  int rounds = 0;           ///< LP solves performed
  int rows_added = 0;       ///< rows appended by the oracle over all rounds
  int final_rows = 0;       ///< rows in the last relaxation
  int lp_iterations = 0;    ///< engine iterations over all rounds
  int warm_rounds = 0;      ///< rounds whose solve consumed a warm start
  int cold_retries = 0;     ///< warm rounds that failed and re-ran cold
  int symbolic_reuses = 0;  ///< rounds that reused the symbolic analysis
  int regularizations = 0;  ///< Cholesky regularization retries, all rounds
  /// Per-phase wall-time breakdown: seconds spent inside the LP engine vs
  /// inside the separation oracle, summed over all rounds. The two phases
  /// account for essentially the whole solve (row appends are O(nnz) copies),
  /// so bench/lp_scaling reports them side by side to show where each
  /// instance size spends its time.
  double lp_seconds = 0.0;
  double separation_seconds = 0.0;
};

/// Solve min c'x s.t. all rows of `model` plus all rows the oracle can emit.
/// `model` is mutated: violated rows are appended to it.
///
/// The first round starts from `options.warm_start` when the caller sets
/// one (an ECO edit's previous optimum, a projected candidate tree). With
/// the interior-point engine (and `options.warm_start_lazy_rounds`, the
/// default), each later round starts from the previous round's primal/dual
/// iterate when the append was modest (violated rows <= 1/4 of the grown
/// model) — rows are only ever appended, so the ge-row order of earlier
/// rounds is a stable prefix and the dual prefix transfers directly. A warm
/// round that fails numerically is retried cold before giving up (counted
/// in LazySolveStats::cold_retries); the retry reuses the round's symbolic
/// analysis.
LpSolution SolveWithLazyRows(LpModel& model, const RowOracle& oracle,
                             const LpSolverOptions& options = {},
                             int max_rounds = 50,
                             LazySolveStats* stats = nullptr);

}  // namespace lubt

#endif  // LUBT_LP_LAZY_ROW_SOLVER_H_
