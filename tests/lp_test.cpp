// LP solver tests: simplex and interior-point engines, cross-checked
// against each other and against hand-solved problems; presolve; lazy rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cts/metrics.h"
#include "ebf/formulation.h"
#include "ebf/solver.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "lp/interior_point.h"
#include "lp/lazy_row_solver.h"
#include "lp/model.h"
#include "lp/presolve.h"
#include "lp/sparse_chol.h"
#include "topo/nn_merge.h"
#include "util/rng.h"

namespace lubt {
namespace {

LpSolverOptions Simplex() {
  LpSolverOptions o;
  o.engine = LpEngine::kSimplex;
  return o;
}

LpSolverOptions Ipm() {
  LpSolverOptions o;
  o.engine = LpEngine::kInteriorPoint;
  return o;
}

void AddGe(LpModel& m, std::vector<std::int32_t> idx, std::vector<double> val,
           double rhs) {
  m.AddRow(idx, val, rhs, kLpInf);
}

// min x+y st x+y >= 2, x >= 0.5 -> objective 2.
LpModel TinyModel() {
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 1.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);
  AddGe(m, {0}, {1.0}, 0.5);
  return m;
}

class LpEngineTest : public ::testing::TestWithParam<LpEngine> {
 protected:
  LpSolverOptions Options() const {
    LpSolverOptions o;
    o.engine = GetParam();
    return o;
  }
};

TEST_P(LpEngineTest, TinyProblem) {
  LpModel m = TinyModel();
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
  EXPECT_LE(m.MaxInfeasibility(s.x), 1e-6);
}

TEST_P(LpEngineTest, ClassicTextbookMax) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  (min of negative).
  // Optimum: x=2, y=6, obj=36.
  LpModel m(2);
  m.SetObjective(0, -3.0);
  m.SetObjective(1, -5.0);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, -kLpInf,
           4.0);
  m.AddRow(std::vector<std::int32_t>{1}, std::vector<double>{2.0}, -kLpInf,
           12.0);
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{3.0, 2.0},
           -kLpInf, 18.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, -36.0, 1e-6);
  EXPECT_NEAR(s.x[0], 2.0, 1e-5);
  EXPECT_NEAR(s.x[1], 6.0, 1e-5);
}

TEST_P(LpEngineTest, RangedRow) {
  // min x st 3 <= x + y <= 5, y <= 1 (as -y >= -1 via range).
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{1.0, 1.0}, 3.0,
           5.0);
  m.AddRow(std::vector<std::int32_t>{1}, std::vector<double>{1.0}, -kLpInf,
           1.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST_P(LpEngineTest, EqualityRow) {
  // min x + 2y st x + y = 4, x - y <= 0 -> x = y = 2, obj 6.
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 2.0);
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{1.0, 1.0}, 4.0,
           4.0);
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{1.0, -1.0},
           -kLpInf, 0.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, 6.0, 1e-5);
}

TEST_P(LpEngineTest, InfeasibleDetected) {
  // x >= 3 and x <= 1.
  LpModel m(1);
  m.SetObjective(0, 1.0);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, 3.0,
           kLpInf);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, -kLpInf,
           1.0);
  const LpSolution s = SolveLp(m, Options());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status.code(), StatusCode::kInfeasible) << s.status;
}

TEST_P(LpEngineTest, UnboundedDetected) {
  // min -x st x >= 1 : unbounded below.
  LpModel m(1);
  m.SetObjective(0, -1.0);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, 1.0,
           kLpInf);
  const LpSolution s = SolveLp(m, Options());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status.code(), StatusCode::kUnbounded) << s.status;
}

TEST_P(LpEngineTest, DegenerateProblem) {
  // Multiple redundant constraints through the optimum.
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 1.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);
  AddGe(m, {0, 1}, {2.0, 2.0}, 4.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, 1.0);
  AddGe(m, {0}, {1.0}, 1.0);
  AddGe(m, {1}, {1.0}, 1.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST_P(LpEngineTest, ZeroObjectiveFeasibility) {
  // Pure feasibility question.
  LpModel m(2);
  AddGe(m, {0, 1}, {1.0, 2.0}, 3.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_LE(m.MaxInfeasibility(s.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Engines, LpEngineTest,
                         ::testing::Values(LpEngine::kSimplex,
                                           LpEngine::kInteriorPoint),
                         [](const auto& info) {
                           return std::string(LpEngineName(info.param)) ==
                                          "simplex"
                                      ? "Simplex"
                                      : "InteriorPoint";
                         });

// ---- Cross-validation on random feasible problems ------------------------

class LpCrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(LpCrossCheckTest, SimplexAndIpmAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  const int n = 3 + static_cast<int>(rng.UniformInt(6));
  const int rows = 4 + static_cast<int>(rng.UniformInt(8));
  LpModel m(n);
  for (int c = 0; c < n; ++c) m.SetObjective(c, rng.Uniform(0.2, 3.0));
  // Feasible by construction: rows a'x >= a'x0 * f with f <= 1, x0 > 0.
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (double& v : x0) v = rng.Uniform(0.5, 2.0);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::int32_t> idx;
    std::vector<double> val;
    double act = 0.0;
    for (int c = 0; c < n; ++c) {
      if (rng.Bernoulli(0.6)) {
        idx.push_back(c);
        const double a = rng.Uniform(0.1, 2.0);
        val.push_back(a);
        act += a * x0[static_cast<std::size_t>(c)];
      }
    }
    if (idx.empty()) continue;
    m.AddRow(idx, val, act * rng.Uniform(0.3, 1.0), kLpInf);
  }
  const LpSolution a = SolveLp(m, Simplex());
  const LpSolution b = SolveLp(m, Ipm());
  ASSERT_TRUE(a.ok()) << a.status;
  ASSERT_TRUE(b.ok()) << b.status;
  EXPECT_NEAR(a.objective, b.objective,
              1e-5 * (1.0 + std::abs(a.objective)));
  EXPECT_LE(m.MaxInfeasibility(a.x), 1e-6);
  EXPECT_LE(m.MaxInfeasibility(b.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpCrossCheckTest, ::testing::Range(1, 26));

// ---- Presolve --------------------------------------------------------------

TEST(PresolveTest, DropsTrivialRows) {
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 1.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, -1.0);  // implied by x >= 0
  AddGe(m, {0, 1}, {1.0, 1.0}, 0.0);   // implied by x >= 0
  AddGe(m, {0}, {1.0}, 2.0);           // real
  PresolveStats stats;
  const LpModel reduced = Presolve(m, &stats);
  EXPECT_EQ(stats.trivial_rows_dropped, 2);
  EXPECT_EQ(reduced.NumRows(), 1);
  const LpSolution s = SolveLp(reduced, Simplex());
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
}

TEST(PresolveTest, MergesDuplicateRows) {
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 1.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, 3.0);  // tighter duplicate
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{1.0, 1.0},
           -kLpInf, 9.0);
  PresolveStats stats;
  const LpModel reduced = Presolve(m, &stats);
  EXPECT_EQ(stats.duplicate_rows_merged, 2);
  EXPECT_EQ(reduced.NumRows(), 1);
  const LpSolution s = SolveLp(reduced, Simplex());
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 3.0, 1e-8);
}

TEST(PresolveTest, PreservesInfeasibility) {
  LpModel m(1);
  m.SetObjective(0, 1.0);
  AddGe(m, {0}, {1.0}, 5.0);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, -kLpInf,
           1.0);
  const LpModel reduced = Presolve(m);
  const LpSolution s = SolveLp(reduced, Simplex());
  EXPECT_EQ(s.status.code(), StatusCode::kInfeasible);
}

// ---- Lazy row generation ----------------------------------------------------

TEST(LazyRowTest, ConvergesToFullModelOptimum) {
  // Full problem: x_i + x_j >= d_ij for all pairs of 4 variables; start with
  // no Steiner-like rows and let the oracle add them.
  const double d[4][4] = {{0, 3, 4, 5}, {3, 0, 2, 6}, {4, 2, 0, 1},
                          {5, 6, 1, 0}};
  LpModel full(4);
  LpModel lazy(4);
  for (int c = 0; c < 4; ++c) {
    full.SetObjective(c, 1.0);
    lazy.SetObjective(c, 1.0);
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      full.AddRow(std::vector<std::int32_t>{i, j},
                  std::vector<double>{1.0, 1.0}, d[i][j], kLpInf);
    }
  }
  const LpSolution ref = SolveLp(full, Simplex());
  ASSERT_TRUE(ref.ok());

  const RowOracle oracle = [&](std::span<const double> x) {
    std::vector<SparseRow> out;
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        if (x[static_cast<std::size_t>(i)] + x[static_cast<std::size_t>(j)] <
            d[i][j] - 1e-9) {
          SparseRow row;
          row.index = {i, j};
          row.value = {1.0, 1.0};
          row.lo = d[i][j];
          out.push_back(std::move(row));
        }
      }
    }
    return out;
  };
  LazySolveStats stats;
  const LpSolution s = SolveWithLazyRows(lazy, oracle, Simplex(), 20, &stats);
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, ref.objective, 1e-7);
  EXPECT_GE(stats.rounds, 2);
  EXPECT_LE(full.MaxInfeasibility(s.x), 1e-7);
}

TEST(LazyRowTest, EmptyOracleIsOneShot) {
  LpModel m = TinyModel();
  const RowOracle oracle = [](std::span<const double>) {
    return std::vector<SparseRow>{};
  };
  LazySolveStats stats;
  const LpSolution s = SolveWithLazyRows(m, oracle, Simplex(), 20, &stats);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(stats.rows_added, 0);
}

// ---- Sparse normal equations & warm starts ---------------------------------

// Sparse feasible model: every row touches a short contiguous column window
// (band structure, like EBF path rows), feasible around x0 > 0.
LpModel RandomBandedModel(Rng& rng, int n, int rows) {
  LpModel m(n);
  for (int c = 0; c < n; ++c) m.SetObjective(c, rng.Uniform(0.2, 2.0));
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (double& v : x0) v = rng.Uniform(0.5, 2.0);
  for (int r = 0; r < rows; ++r) {
    const int width = 2 + static_cast<int>(rng.UniformInt(5));
    const int start = static_cast<int>(rng.UniformInt(
        static_cast<std::uint64_t>(n - width)));
    std::vector<std::int32_t> idx;
    std::vector<double> val;
    double act = 0.0;
    for (int c = start; c < start + width; ++c) {
      idx.push_back(c);
      const double a = rng.Uniform(0.2, 1.5);
      val.push_back(a);
      act += a * x0[static_cast<std::size_t>(c)];
    }
    m.AddRow(idx, val, act * rng.Uniform(0.3, 0.95), kLpInf);
  }
  return m;
}

class SparseNormalTest : public ::testing::TestWithParam<int> {};

// The interior point's sparse normal equations against the dense-tableau
// simplex, an engine that shares no numerics with it.
TEST_P(SparseNormalTest, SparseMatchesDenseOnBandedModels) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int n = 64 + static_cast<int>(rng.UniformInt(64));
  LpModel m = RandomBandedModel(rng, n, 3 * n);
  const LpSolution dense = SolveLp(m, Simplex());
  const LpSolution sparse = SolveLp(m, Ipm());
  ASSERT_TRUE(dense.ok()) << dense.status;
  ASSERT_TRUE(sparse.ok()) << sparse.status;
  EXPECT_NEAR(dense.objective, sparse.objective,
              1e-6 * (1.0 + std::abs(dense.objective)));
  EXPECT_LE(m.MaxInfeasibility(dense.x), 1e-6);
  EXPECT_LE(m.MaxInfeasibility(sparse.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseNormalTest, ::testing::Range(1, 9));

// Models of a few columns: the sparse factor is the only normal-equations
// path, so degenerate shapes must solve to the simplex optimum too.
void ExpectIpmMatchesSimplex(const LpModel& m) {
  const LpSolution ipm = SolveLp(m, Ipm());
  const LpSolution simplex = SolveLp(m, Simplex());
  ASSERT_TRUE(ipm.ok()) << ipm.status;
  ASSERT_TRUE(simplex.ok()) << simplex.status;
  EXPECT_NEAR(ipm.objective, simplex.objective,
              1e-7 * std::max(1.0, std::abs(simplex.objective)));
  EXPECT_LE(m.MaxInfeasibility(ipm.x), 1e-6);
}

TEST(TinyModelTest, OneColumn) {
  LpModel m(1);
  m.SetObjective(0, 3.0);
  AddGe(m, {0}, {2.0}, 1.0);
  ExpectIpmMatchesSimplex(m);
}

TEST(TinyModelTest, TwoAndThreeColumns) {
  ExpectIpmMatchesSimplex(TinyModel());
  LpModel m(3);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 2.0);
  m.SetObjective(2, 1.5);
  AddGe(m, {0, 1}, {1.0, 1.0}, 1.0);
  AddGe(m, {1, 2}, {1.0, 1.0}, 2.0);
  AddGe(m, {0, 1, 2}, {1.0, 0.5, 1.0}, 2.5);
  ExpectIpmMatchesSimplex(m);
}

TEST(TinyModelTest, ColumnInNoRow) {
  LpModel m(3);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 1.0);
  m.SetObjective(2, 0.5);  // column 2 appears in no row: optimum x2 = 0
  AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);
  AddGe(m, {0}, {1.0}, 0.5);
  ExpectIpmMatchesSimplex(m);
}

TEST(TinyModelTest, DuplicateRows) {
  LpModel m = TinyModel();
  AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);  // exact copy of row 0
  AddGe(m, {0}, {1.0}, 0.5);          // exact copy of row 1
  AddGe(m, {0, 1}, {2.0, 2.0}, 4.0);  // scaled copy of row 0
  ExpectIpmMatchesSimplex(m);
}

TEST(TinyModelTest, EqualityRangedRow) {
  LpModel m(3);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 2.0);
  m.SetObjective(2, 1.0);
  m.AddRow(std::vector<std::int32_t>{0, 1, 2},
           std::vector<double>{1.0, 1.0, 1.0}, 3.0, 3.0);  // l = u
  AddGe(m, {1, 2}, {1.0, -1.0}, 0.5);
  ExpectIpmMatchesSimplex(m);
}

TEST(WarmStartTest, WarmResolveMatchesColdAndSavesIterations) {
  Rng rng(23);
  LpModel m = RandomBandedModel(rng, 96, 300);
  const LpSolution cold = SolveLp(m, Ipm());
  ASSERT_TRUE(cold.ok()) << cold.status;
  ASSERT_EQ(cold.ge_dual.size(), m.Compiled().rhs.size());

  LpWarmStart warm;
  warm.x = cold.x;
  warm.ge_dual = cold.ge_dual;
  LpSolverOptions o = Ipm();
  o.warm_start = &warm;
  const LpSolution hot = SolveLp(m, o);
  ASSERT_TRUE(hot.ok()) << hot.status;
  EXPECT_TRUE(hot.warm_started);
  EXPECT_NEAR(hot.objective, cold.objective,
              1e-6 * (1.0 + std::abs(cold.objective)));
  EXPECT_LT(hot.iterations, cold.iterations);
}

TEST(WarmStartTest, SizeMismatchedWarmStartIsIgnored) {
  LpModel m = TinyModel();
  LpWarmStart warm;
  warm.x = {1.0};  // wrong size: model has 2 columns
  LpSolverOptions o = Ipm();
  o.warm_start = &warm;
  const LpSolution s = SolveLp(m, o);
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST(SymbolicReuseTest, UnchangedStructureReusesAndAnyAppendReanalyzes) {
  Rng rng(31);
  LpModel m = RandomBandedModel(rng, 80, 240);
  SparseNormalFactor factor;
  LpSolverOptions o = Ipm();
  o.ipm_context = &factor;
  const LpSolution first = SolveLp(m, o);
  ASSERT_TRUE(first.ok()) << first.status;
  EXPECT_FALSE(first.symbolic_reused);

  // A moved row bound keeps the structure: the analysis is reused, and the
  // solve is bitwise the one a fresh analysis gives.
  m.SetRowBounds(0, 0.5 * m.Row(0).lo, m.Row(0).hi);
  const LpSolution second = SolveLp(m, o);
  ASSERT_TRUE(second.ok()) << second.status;
  EXPECT_TRUE(second.symbolic_reused);
  const LpSolution second_fresh = SolveLp(m, Ipm());
  ASSERT_TRUE(second_fresh.ok()) << second_fresh.status;
  EXPECT_FALSE(second_fresh.symbolic_reused);
  EXPECT_EQ(second.x, second_fresh.x);

  // Any appended row re-analyzes, even a copy of an existing row whose
  // column pairs all lie inside the analyzed pattern.
  SparseRow dup = m.Row(3);
  dup.lo *= 0.5;
  m.AddRow(std::move(dup));
  const LpSolution third = SolveLp(m, o);
  ASSERT_TRUE(third.ok()) << third.status;
  EXPECT_FALSE(third.symbolic_reused);
  EXPECT_NEAR(third.objective, second.objective,
              1e-6 * (1.0 + std::abs(second.objective)));

  // A row pairing the two extreme columns leaves the banded pattern.
  std::vector<std::int32_t> idx{0, 79};
  std::vector<double> val{1.0, 1.0};
  m.AddRow(idx, val, 0.1, kLpInf);
  const LpSolution fourth = SolveLp(m, o);
  ASSERT_TRUE(fourth.ok()) << fourth.status;
  EXPECT_FALSE(fourth.symbolic_reused);
  const LpSolution fourth_fresh = SolveLp(m, Ipm());
  ASSERT_TRUE(fourth_fresh.ok()) << fourth_fresh.status;
  EXPECT_EQ(fourth.x, fourth_fresh.x);
}

// ---- Supernodal numeric kernel ---------------------------------------------
//
// Both numeric kernels (IpmFactorMode) run on one shared symbolic analysis.
// These tests pin the contract the interior-point engine relies on: the
// supernodal kernel solves the same normal equations as the simplicial
// oracle on random instances, stays equivalent across repeated
// refactorizations with changed scalings (the warm Newton loop) and after
// the re-analysis a row append forces, and is bitwise deterministic in the
// worker count.

void RandomScalings(Rng& rng, const CompiledLpModel& a, std::vector<double>* w,
                    std::vector<double>* d) {
  w->resize(static_cast<std::size_t>(a.num_rows));
  for (double& v : *w) v = rng.Uniform(0.1, 2.0);
  d->resize(static_cast<std::size_t>(a.num_cols));
  for (double& v : *d) v = rng.Uniform(1e-4, 1.0);
}

std::vector<double> FactorAndSolve(SparseNormalFactor& f,
                                   const CompiledLpModel& a,
                                   const std::vector<double>& w,
                                   const std::vector<double>& d) {
  EXPECT_TRUE(f.Factor(a, w, d));
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + static_cast<double>(i % 3);
  }
  f.Solve(x);
  return x;
}

void ExpectClose(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-8 * (1.0 + std::abs(a[i]))) << "component " << i;
  }
}

class SupernodalFactorTest : public ::testing::TestWithParam<int> {};

TEST_P(SupernodalFactorTest, MatchesSimplicialOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  const int n = 48 + static_cast<int>(rng.UniformInt(160));
  LpModel m = RandomBandedModel(rng, n, 3 * n);
  const CompiledLpModel& a = m.Compiled();

  SparseNormalFactor simp;
  simp.Analyze(a);
  simp.SetMode(IpmFactorMode::kSimplicial, 1);
  SparseNormalFactor sup;
  sup.Analyze(a);
  sup.SetMode(IpmFactorMode::kSupernodal, 1);
  ASSERT_GT(sup.NumSupernodes(), 0);
  ASSERT_GE(sup.PanelNnz(), sup.FillNnz());

  std::vector<double> w;
  std::vector<double> d;
  RandomScalings(rng, a, &w, &d);
  ExpectClose(FactorAndSolve(simp, a, w, d), FactorAndSolve(sup, a, w, d));
}

TEST_P(SupernodalFactorTest, WorkerCountIsBitwiseIrrelevant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 5);
  const int n = 64 + static_cast<int>(rng.UniformInt(128));
  LpModel m = RandomBandedModel(rng, n, 3 * n);
  const CompiledLpModel& a = m.Compiled();

  SparseNormalFactor serial;
  serial.Analyze(a);
  serial.SetMode(IpmFactorMode::kSupernodal, 1);
  SparseNormalFactor threaded;
  threaded.Analyze(a);
  threaded.SetMode(IpmFactorMode::kSupernodal, 4);

  std::vector<double> w;
  std::vector<double> d;
  RandomScalings(rng, a, &w, &d);
  const std::vector<double> x1 = FactorAndSolve(serial, a, w, d);
  const std::vector<double> x4 = FactorAndSolve(threaded, a, w, d);
  ASSERT_EQ(x1.size(), x4.size());
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_EQ(x1[i], x4[i]) << "component " << i;  // bitwise, not approximate
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupernodalFactorTest, ::testing::Range(1, 9));

TEST(SupernodalFactorTest, RepeatedRefactorsOnOneAnalysisStayEquivalent) {
  // The Newton loop refactors with new scalings on a fixed analysis; a mode
  // switch between Factor calls must also be safe (both kernels share the
  // cached symbolic structures).
  Rng rng(57);
  LpModel m = RandomBandedModel(rng, 100, 300);
  const CompiledLpModel& a = m.Compiled();

  SparseNormalFactor simp;
  simp.Analyze(a);
  simp.SetMode(IpmFactorMode::kSimplicial, 1);
  SparseNormalFactor sup;
  sup.Analyze(a);
  sup.SetMode(IpmFactorMode::kSupernodal, 2);
  SparseNormalFactor flip;  // alternates kernels across rounds
  flip.Analyze(a);

  for (int round = 0; round < 4; ++round) {
    std::vector<double> w;
    std::vector<double> d;
    RandomScalings(rng, a, &w, &d);
    const std::vector<double> ref = FactorAndSolve(simp, a, w, d);
    ExpectClose(ref, FactorAndSolve(sup, a, w, d));
    flip.SetMode(round % 2 == 0 ? IpmFactorMode::kSupernodal
                                : IpmFactorMode::kSimplicial,
                 1 + round % 3);
    ExpectClose(ref, FactorAndSolve(flip, a, w, d));
  }
}

TEST(SupernodalFactorTest, AppendedRowsReanalyzeAndModesAgree) {
  // Both kernels reuse an analysis only for an unchanged structure; any
  // appended row (inside the analyzed pattern or not) needs Analyze again,
  // after which the kernels must still agree.
  Rng rng(63);
  LpModel m = RandomBandedModel(rng, 80, 240);
  SparseNormalFactor simp;
  simp.Analyze(m.Compiled());
  simp.SetMode(IpmFactorMode::kSimplicial, 1);
  SparseNormalFactor sup;
  sup.Analyze(m.Compiled());
  sup.SetMode(IpmFactorMode::kSupernodal, 2);
  EXPECT_TRUE(simp.Reusable(m.Compiled()));
  EXPECT_TRUE(sup.Reusable(m.Compiled()));

  SparseRow dup = m.Row(3);  // same support => same pattern
  dup.lo *= 0.5;
  m.AddRow(std::move(dup));
  std::vector<std::int32_t> idx{0, 79};  // outside the banded pattern
  std::vector<double> val{1.0, 1.0};
  for (int append = 0; append < 2; ++append) {
    const CompiledLpModel& a = m.Compiled();
    EXPECT_FALSE(simp.Reusable(a));
    EXPECT_FALSE(sup.Reusable(a));
    simp.Analyze(a);
    sup.Analyze(a);
    EXPECT_TRUE(sup.Reusable(a));
    std::vector<double> w;
    std::vector<double> d;
    RandomScalings(rng, a, &w, &d);
    ExpectClose(FactorAndSolve(simp, a, w, d), FactorAndSolve(sup, a, w, d));
    m.AddRow(idx, val, 0.1, kLpInf);
  }
}

TEST(SupernodalFactorTest, EngineObjectiveMatchesAcrossModes) {
  // End to end through the interior-point engine: overriding the factor
  // mode must not move the optimum, on a banded model and on a tiny one.
  Rng rng(91);
  LpModel m = RandomBandedModel(rng, 120, 360);
  LpSolverOptions simp = Ipm();
  simp.factor_mode = IpmFactorMode::kSimplicial;
  LpSolverOptions sup = Ipm();
  sup.factor_mode = IpmFactorMode::kSupernodal;
  sup.factor_jobs = 2;
  const LpSolution a = SolveLp(m, simp);
  const LpSolution b = SolveLp(m, sup);
  ASSERT_TRUE(a.ok()) << a.status;
  ASSERT_TRUE(b.ok()) << b.status;
  EXPECT_NEAR(a.objective, b.objective, 1e-6 * (1.0 + std::abs(a.objective)));

  for (const LpSolverOptions& o : {simp, sup}) {
    const LpSolution small = SolveLp(TinyModel(), o);
    ASSERT_TRUE(small.ok()) << small.status;
    EXPECT_NEAR(small.objective, 2.0, 1e-6);
  }
}

TEST(LazyRowTest, WarmLazyRoundsMatchColdOnInteriorPoint) {
  // Full problem: banded rows; the lazy model starts with a prefix and the
  // oracle separates the rest. Run once warm (default) and once cold.
  Rng rng(41);
  const int n = 96;
  LpModel full = RandomBandedModel(rng, n, 4 * n);
  const int seed_rows = full.NumRows() / 8;

  const RowOracle oracle = [&](std::span<const double> x) {
    std::vector<SparseRow> out;
    for (const SparseRow& row : full.Rows()) {
      if (row.Activity(x) < row.lo - 1e-9) out.push_back(row);
    }
    return out;
  };

  LpSolution sol[2];
  LazySolveStats stats[2];
  for (const bool warm : {false, true}) {
    LpModel lazy(n);
    for (int c = 0; c < n; ++c) {
      lazy.SetObjective(c, full.Objective()[static_cast<std::size_t>(c)]);
    }
    for (int r = 0; r < seed_rows; ++r) lazy.AddRow(full.Row(r));
    LpSolverOptions o = Ipm();
    o.warm_start_lazy_rounds = warm;
    sol[warm ? 1 : 0] =
        SolveWithLazyRows(lazy, oracle, o, 50, &stats[warm ? 1 : 0]);
    ASSERT_TRUE(sol[warm ? 1 : 0].ok()) << sol[warm ? 1 : 0].status;
  }
  EXPECT_EQ(stats[0].warm_rounds, 0);
  EXPECT_NEAR(sol[0].objective, sol[1].objective,
              1e-6 * (1.0 + std::abs(sol[0].objective)));
  if (stats[1].rounds > 1) {
    EXPECT_GT(stats[1].warm_rounds, 0);
    // Warm rounds start next to the previous optimum: the total iteration
    // count across rounds must not regress versus cold starts.
    EXPECT_LE(stats[1].lp_iterations, stats[0].lp_iterations);
  }
  EXPECT_LE(full.MaxInfeasibility(sol[1].x), 1e-6);
}

TEST(LazyRowTest, CallerWarmStartSeedsRoundZero) {
  // A caller-provided options.warm_start seeds round 0 even with round
  // threading off; later rounds then start cold. A start whose size does
  // not match the model is ignored by the engine.
  Rng rng(43);
  const int n = 96;
  LpModel full = RandomBandedModel(rng, n, 4 * n);
  const int seed_rows = full.NumRows() / 8;
  const auto seed_model = [&] {
    LpModel lazy(n);
    for (int c = 0; c < n; ++c) {
      lazy.SetObjective(c, full.Objective()[static_cast<std::size_t>(c)]);
    }
    for (int r = 0; r < seed_rows; ++r) lazy.AddRow(full.Row(r));
    return lazy;
  };
  const RowOracle oracle = [&](std::span<const double> x) {
    std::vector<SparseRow> out;
    for (const SparseRow& row : full.Rows()) {
      if (row.Activity(x) < row.lo - 1e-9) out.push_back(row);
    }
    return out;
  };
  LpSolverOptions o = Ipm();
  o.warm_start_lazy_rounds = false;

  LpModel cold_model = seed_model();
  LazySolveStats cold_stats;
  const LpSolution cold =
      SolveWithLazyRows(cold_model, oracle, o, 50, &cold_stats);
  ASSERT_TRUE(cold.ok()) << cold.status;
  EXPECT_EQ(cold_stats.warm_rounds, 0);

  // The prior solve: the seed relaxation itself, so (x, ge_dual) match the
  // round-0 model exactly.
  const LpSolution prior = SolveLp(seed_model(), o);
  ASSERT_TRUE(prior.ok()) << prior.status;
  LpWarmStart warm{prior.x, prior.ge_dual};
  LpSolverOptions seeded = o;
  seeded.warm_start = &warm;
  LpModel warm_model = seed_model();
  LazySolveStats warm_stats;
  const LpSolution sol =
      SolveWithLazyRows(warm_model, oracle, seeded, 50, &warm_stats);
  ASSERT_TRUE(sol.ok()) << sol.status;
  EXPECT_EQ(warm_stats.warm_rounds, 1);
  EXPECT_EQ(warm_stats.cold_retries, 0);
  EXPECT_NEAR(sol.objective, cold.objective,
              1e-6 * (1.0 + std::abs(cold.objective)));
  EXPECT_LE(full.MaxInfeasibility(sol.x), 1e-6);

  LpWarmStart mismatched{std::vector<double>(n + 1, 1.0), {}};
  seeded.warm_start = &mismatched;
  LpModel mismatched_model = seed_model();
  LazySolveStats mismatched_stats;
  const LpSolution ignored = SolveWithLazyRows(mismatched_model, oracle,
                                               seeded, 50, &mismatched_stats);
  ASSERT_TRUE(ignored.ok()) << ignored.status;
  EXPECT_EQ(mismatched_stats.warm_rounds, 0);
  EXPECT_NEAR(ignored.objective, cold.objective,
              1e-6 * (1.0 + std::abs(cold.objective)));
}

// ---- Model sanity ------------------------------------------------------------

TEST(LpModelTest, ActivityAndInfeasibility) {
  LpModel m = TinyModel();
  const std::vector<double> x{1.0, 0.5};
  EXPECT_DOUBLE_EQ(m.Row(0).Activity(x), 1.5);
  EXPECT_DOUBLE_EQ(m.MaxInfeasibility(x), 0.5);  // row 0 short by 0.5
  EXPECT_DOUBLE_EQ(m.ObjectiveValue(x), 1.5);
}

TEST(LpModelTest, SetRowBounds) {
  LpModel m = TinyModel();
  m.SetRowBounds(0, 4.0, kLpInf);
  const LpSolution s = SolveLp(m, Simplex());
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 4.0, 1e-8);
}

// ---------------------------------------------------------------------- //
// Symbolic-analysis oracle: the sort-based analysis SparseNormalFactor used
// before the stamp merge (every row pair pushed as a key, sorted, deduped;
// pattern rebuilt after the etree postorder; scatter positions found by
// binary search), kept here as the reference the production analysis must
// reproduce entry for entry.

struct RefAnalysis {
  std::vector<std::int32_t> perm;
  std::vector<std::int32_t> inv_perm;
  std::vector<std::int64_t> up_ptr;
  std::vector<std::int32_t> up_row;
  std::vector<std::int64_t> diag_pos;
  std::vector<std::int64_t> scatter_pos;
  bool post_identity = true;
};

void RefBuildPattern(const CompiledLpModel& a, RefAnalysis* r) {
  const int n = a.num_cols;
  const std::int64_t nn = n;
  std::vector<std::int64_t> keys;
  for (std::int64_t j = 0; j < nn; ++j) keys.push_back(j * nn + j);
  for (int i = 0; i < a.num_rows; ++i) {
    const std::int64_t begin = a.row_ptr[static_cast<std::size_t>(i)];
    const std::int64_t end = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (std::int64_t pa = begin; pa < end; ++pa) {
      const std::int64_t ca = r->inv_perm[static_cast<std::size_t>(
          a.col[static_cast<std::size_t>(pa)])];
      for (std::int64_t pb = begin; pb <= pa; ++pb) {
        const std::int64_t cb = r->inv_perm[static_cast<std::size_t>(
            a.col[static_cast<std::size_t>(pb)])];
        keys.push_back(std::max(ca, cb) * nn + std::min(ca, cb));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  r->up_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  r->up_row.resize(keys.size());
  for (std::size_t p = 0; p < keys.size(); ++p) {
    r->up_row[p] = static_cast<std::int32_t>(keys[p] % nn);
    ++r->up_ptr[static_cast<std::size_t>(keys[p] / nn) + 1];
  }
  for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
    r->up_ptr[j + 1] += r->up_ptr[j];
  }
  r->diag_pos.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
    r->diag_pos[j] =
        r->up_ptr[static_cast<std::size_t>(r->inv_perm[j]) + 1] - 1;
  }
}

std::int64_t RefFindEntry(const RefAnalysis& r, std::int32_t row,
                          std::int32_t col) {
  const auto begin = r.up_row.begin() + r.up_ptr[static_cast<std::size_t>(col)];
  const auto end =
      r.up_row.begin() + r.up_ptr[static_cast<std::size_t>(col) + 1];
  const auto it = std::lower_bound(begin, end, row);
  if (it == end || *it != row) return -1;
  return it - r.up_row.begin();
}

// Liu's etree and the children-ascending postorder, as in Analyze.
std::vector<std::int32_t> RefPostOrder(const RefAnalysis& r, int n) {
  std::vector<std::int32_t> parent(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> ancestor(static_cast<std::size_t>(n), -1);
  for (int k = 0; k < n; ++k) {
    for (std::int64_t p = r.up_ptr[static_cast<std::size_t>(k)];
         p < r.up_ptr[static_cast<std::size_t>(k) + 1]; ++p) {
      std::int32_t i = r.up_row[static_cast<std::size_t>(p)];
      while (i != -1 && i < k) {
        const std::int32_t next = ancestor[static_cast<std::size_t>(i)];
        ancestor[static_cast<std::size_t>(i)] = k;
        if (next == -1) parent[static_cast<std::size_t>(i)] = k;
        i = next;
      }
    }
  }
  std::vector<std::vector<std::int32_t>> children(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    if (parent[static_cast<std::size_t>(j)] >= 0) {
      children[static_cast<std::size_t>(parent[static_cast<std::size_t>(j)])]
          .push_back(j);
    }
  }
  std::vector<std::int32_t> post;
  std::vector<std::pair<std::int32_t, std::size_t>> stack;
  for (int root = 0; root < n; ++root) {
    if (parent[static_cast<std::size_t>(root)] >= 0) continue;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto& kids = children[static_cast<std::size_t>(v)];
      if (next < kids.size()) {
        const std::int32_t c = kids[next++];
        stack.push_back({c, 0});
      } else {
        post.push_back(v);
        stack.pop_back();
      }
    }
  }
  return post;
}

RefAnalysis RefAnalyze(const CompiledLpModel& a) {
  const int n = a.num_cols;
  RefAnalysis r;
  r.perm = MinDegreeOrder(a);
  r.inv_perm.assign(static_cast<std::size_t>(n), 0);
  for (int k = 0; k < n; ++k) {
    r.inv_perm[static_cast<std::size_t>(r.perm[static_cast<std::size_t>(k)])] =
        k;
  }
  RefBuildPattern(a, &r);
  const std::vector<std::int32_t> post = RefPostOrder(r, n);
  for (int k = 0; k < n; ++k) {
    r.post_identity = r.post_identity && post[static_cast<std::size_t>(k)] == k;
  }
  if (!r.post_identity) {
    std::vector<std::int32_t> composed(static_cast<std::size_t>(n), 0);
    for (int k = 0; k < n; ++k) {
      composed[static_cast<std::size_t>(k)] = r.perm[static_cast<std::size_t>(
          post[static_cast<std::size_t>(k)])];
    }
    r.perm = std::move(composed);
    for (int k = 0; k < n; ++k) {
      r.inv_perm[static_cast<std::size_t>(
          r.perm[static_cast<std::size_t>(k)])] = k;
    }
    RefBuildPattern(a, &r);
  }
  for (int i = 0; i < a.num_rows; ++i) {
    const std::int64_t begin = a.row_ptr[static_cast<std::size_t>(i)];
    const std::int64_t end = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (std::int64_t pa = begin; pa < end; ++pa) {
      const std::int32_t ca = r.inv_perm[static_cast<std::size_t>(
          a.col[static_cast<std::size_t>(pa)])];
      for (std::int64_t pb = begin; pb <= pa; ++pb) {
        const std::int32_t cb = r.inv_perm[static_cast<std::size_t>(
            a.col[static_cast<std::size_t>(pb)])];
        r.scatter_pos.push_back(
            RefFindEntry(r, std::min(ca, cb), std::max(ca, cb)));
      }
    }
  }
  return r;
}

template <typename T, typename U>
void ExpectSameEntries(std::span<const T> got, const std::vector<U>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(static_cast<std::int64_t>(got[k]),
              static_cast<std::int64_t>(want[k]))
        << what << "[" << k << "]";
  }
}

// Analyze `m` and demand the reference's ordering, pattern, diagonal
// positions and scatter map entry for entry. Returns whether the etree
// postorder was the identity (so callers can check both cases are hit).
bool ExpectAnalysisMatchesReference(const LpModel& m) {
  const CompiledLpModel& a = m.Compiled();
  SparseNormalFactor f;
  f.Analyze(a);
  const RefAnalysis ref = RefAnalyze(a);
  const SparseNormalFactor::AnalysisView view = f.ViewForTest();
  ExpectSameEntries(view.perm, ref.perm, "perm");
  ExpectSameEntries(view.up_ptr, ref.up_ptr, "up_ptr");
  ExpectSameEntries(view.up_row, ref.up_row, "up_row");
  ExpectSameEntries(view.diag_pos, ref.diag_pos, "diag_pos");
  ExpectSameEntries(view.scatter_pos, ref.scatter_pos, "scatter_pos");
  return ref.post_identity;
}

// The final model of a lazy EBF solve (seed rows plus every separated
// Steiner row), or the full kAll model when `lazy` is false.
LpModel EbfModel(int num_sinks, std::uint64_t seed, bool lazy) {
  const BBox die(Point{0.0, 0.0}, Point{1000.0, 1000.0});
  const SinkSet set = RandomSinkSet(num_sinks, die, seed, true);
  const Topology topo = NnMergeTopology(set.sinks, set.source);
  const double radius = Radius(set.sinks, set.source);
  EbfProblem problem;
  problem.topo = &topo;
  problem.sinks = set.sinks;
  problem.source = set.source;
  problem.bounds.assign(set.sinks.size(),
                        DelayBounds{0.9 * radius, 1.2 * radius});
  Result<EbfFormulation> built = EbfFormulation::Build(
      problem, lazy ? SteinerRowPolicy::kSeed : SteinerRowPolicy::kAll);
  EXPECT_TRUE(built.ok()) << built.status();
  EbfFormulation& form = *built;
  if (lazy) {
    const EbfSolveOptions opt;
    const RowOracle oracle = [&](std::span<const double> x) {
      return form.FindViolatedSteinerRows(x, opt.separation_tol,
                                          opt.max_rows_per_round);
    };
    const LpSolution sol = SolveWithLazyRows(form.MutableModel(), oracle,
                                             opt.lp, opt.max_lazy_rounds);
    EXPECT_TRUE(sol.ok()) << sol.status;
  }
  return form.Model();
}

TEST(AnalysisOracleTest, LazyGrownAndFullEbfModels) {
  int relabelled = 0;
  for (const auto& [sinks, lazy] :
       {std::pair{64, true}, std::pair{256, true}, std::pair{24, false}}) {
    SCOPED_TRACE(::testing::Message() << sinks << " sinks, lazy " << lazy);
    if (!ExpectAnalysisMatchesReference(EbfModel(sinks, 17, lazy))) {
      ++relabelled;
    }
  }
  EXPECT_GT(relabelled, 0);  // the postorder relabel path is exercised
}

TEST(AnalysisOracleTest, TinyAndDegenerateShapes) {
  std::vector<LpModel> models;
  {  // one column
    LpModel m(1);
    AddGe(m, {0}, {2.0}, 1.0);
    models.push_back(m);
  }
  models.push_back(TinyModel());
  {  // three columns, overlapping rows
    LpModel m(3);
    AddGe(m, {0, 1}, {1.0, 1.0}, 1.0);
    AddGe(m, {1, 2}, {1.0, 1.0}, 2.0);
    AddGe(m, {0, 1, 2}, {1.0, 0.5, 1.0}, 2.5);
    models.push_back(m);
  }
  {  // column 2 in no row
    LpModel m(3);
    AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);
    AddGe(m, {0}, {1.0}, 0.5);
    models.push_back(m);
  }
  {  // duplicate rows
    LpModel m = TinyModel();
    AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);
    AddGe(m, {0}, {1.0}, 0.5);
    AddGe(m, {0, 1}, {2.0, 2.0}, 4.0);
    models.push_back(m);
  }
  {  // equality row (two ge rows) beside a ranged one
    LpModel m(3);
    m.AddRow(std::vector<std::int32_t>{0, 1, 2},
             std::vector<double>{1.0, 1.0, 1.0}, 3.0, 3.0);
    AddGe(m, {1, 2}, {1.0, -1.0}, 0.5);
    models.push_back(m);
  }
  {  // singleton rows only, plus an empty-row column
    LpModel m(5);
    for (std::int32_t c = 0; c < 4; ++c) AddGe(m, {c}, {1.0 + c}, 1.0);
    AddGe(m, {3}, {2.0}, 1.5);
    models.push_back(m);
  }
  {  // a chain whose min-degree order needs a postorder relabel
    LpModel m(9);
    AddGe(m, {0, 8}, {1.0, 1.0}, 1.0);
    AddGe(m, {1, 8}, {1.0, 1.0}, 1.0);
    AddGe(m, {2, 3}, {1.0, 1.0}, 1.0);
    AddGe(m, {3, 4, 7}, {1.0, 1.0, 1.0}, 1.0);
    AddGe(m, {5, 6}, {1.0, 1.0}, 1.0);
    AddGe(m, {6, 7, 8}, {1.0, 1.0, 1.0}, 1.0);
    models.push_back(m);
  }
  Rng rng(41);
  for (int t = 0; t < 6; ++t) models.push_back(RandomBandedModel(rng, 60, 150));
  int identity = 0;
  int relabelled = 0;
  for (std::size_t k = 0; k < models.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "model " << k);
    (ExpectAnalysisMatchesReference(models[k]) ? identity : relabelled)++;
  }
  // Both the identity-postorder and the relabel path are covered.
  EXPECT_GT(identity, 0);
  EXPECT_GT(relabelled, 0);
}

}  // namespace
}  // namespace lubt
