#include "lp/lazy_row_solver.h"

#include <utility>

#include "lp/sparse_chol.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lubt {

LpSolution SolveWithLazyRows(LpModel& model, const RowOracle& oracle,
                             const LpSolverOptions& options, int max_rounds,
                             LazySolveStats* stats) {
  LazySolveStats local;
  LpSolution solution;

  // Per-solve interior-point state threaded across rounds: the previous
  // round's iterate seeds the next round. Round 0 keeps the caller's
  // options.warm_start. Rounds share one normal-equations factor (the
  // caller's, else this stack-local one), so a cold retry of a round reuses
  // its symbolic analysis; a round after an append re-analyzes.
  const bool thread_rounds = options.engine == LpEngine::kInteriorPoint &&
                             options.warm_start_lazy_rounds;
  SparseNormalFactor local_factor;
  LpWarmStart warm;
  LpSolverOptions round_options = options;
  if (round_options.ipm_context == nullptr) {
    round_options.ipm_context = &local_factor;
  }

  for (int round = 0; round < max_rounds; ++round) {
    ++local.rounds;
    if (round > 0) {
      round_options.warm_start =
          thread_rounds && !warm.x.empty() ? &warm : nullptr;
    }
    Timer lp_timer;
    solution = SolveLp(model, round_options);
    local.lp_iterations += solution.iterations;
    if (!solution.ok() && round_options.warm_start != nullptr) {
      // A warm point carried across appended rows can (rarely) start the
      // iteration in a bad region; retry the round cold before giving up.
      LUBT_LOG_DEBUG << "lazy round " << round
                     << ": warm solve failed (" << solution.status.message()
                     << "), retrying cold";
      ++local.cold_retries;
      round_options.warm_start = nullptr;
      solution = SolveLp(model, round_options);
      local.lp_iterations += solution.iterations;
    } else if (solution.warm_started) {
      ++local.warm_rounds;
    }
    local.lp_seconds += lp_timer.Seconds();
    if (solution.symbolic_reused) ++local.symbolic_reuses;
    local.regularizations += solution.regularizations;
    if (!solution.ok()) break;

    Timer sep_timer;
    std::vector<SparseRow> violated = oracle(solution.x);
    local.separation_seconds += sep_timer.Seconds();
    LUBT_LOG_DEBUG << "lazy round " << round << ": obj=" << solution.objective
                   << " violated=" << violated.size();
    if (violated.empty()) break;
    if (thread_rounds) {
      // Warm-start the next round only when the model grows modestly: after
      // a large append the previous iterate carries little information about
      // the new optimum and a cold start converges faster.
      if (violated.size() * 4 <=
          static_cast<std::size_t>(model.NumRows()) + violated.size()) {
        warm.x = solution.x;
        warm.ge_dual = solution.ge_dual;
      } else {
        warm.x.clear();
        warm.ge_dual.clear();
      }
    }
    model.ReserveRows(model.Rows().size() + violated.size());
    for (SparseRow& row : violated) {
      model.AddRow(std::move(row));
      ++local.rows_added;
    }
    if (round + 1 == max_rounds) {
      solution.status =
          Status::NumericalFailure("lazy row generation did not converge");
    }
  }
  local.final_rows = model.NumRows();
  if (stats != nullptr) *stats = local;
  solution.iterations = local.lp_iterations;
  return solution;
}

}  // namespace lubt
