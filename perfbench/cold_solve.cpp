// cold-solve: sinks -> verified embedded tree, one instance per operation.
//
// Operation: NnMergeTopology -> SolveEbf -> EmbedTree -> VerifyEmbedding on
// 512-sink uniform instances with window [0.9r, 1.2r], single-threaded
// (factor_jobs = separation_jobs = 1, the defaults). The LP does nearly
// all the work here.
//
// The instance cycle is fixed: a 512-sink instance's solve time depends on
// its geometry (4, 5 or 6 lazy rounds; 0.47-1.10 s over 40 seeds), so a
// cycle drawn from the workload seed moved p50 by 8-14% from seed to seed.
// The workload seed orders each pass over the cycle, and a run is a fixed
// number of whole passes, so every run times the same instance mix.
//
// Traced run: the operation is rebuilt from SolveEbf's public parts
// (EbfFormulation::Build(kSeed) + SolveWithLazyRows with a timed oracle +
// EdgeLengths) and its objective must equal SolveEbf's bitwise. The oracle
// wrapper also captures each round's compiled model, outside any span;
// after the operation the benchmark replays ordering, symbolic analysis,
// numeric factorization and triangular solves on those very matrices.

#include <cstring>

#include "bench.h"
#include "cts/metrics.h"
#include "ebf/formulation.h"
#include "ebf/solver.h"
#include "embed/placer.h"
#include "embed/verifier.h"
#include "lp/lazy_row_solver.h"
#include "lp/sparse_chol.h"
#include "topo/nn_merge.h"

namespace perfbench {
namespace {

using namespace lubt;

constexpr int kSinks = 512;
constexpr int kInstances = 5;
// One pass over the cycle on the reference machine (0.9 s per solve).
constexpr double kNominalPassSeconds = 4.5;
constexpr std::uint64_t kFirstInstanceSeed = 1201;
constexpr double kWindowLo = 0.9;
constexpr double kWindowHi = 1.2;
constexpr int kFactorRepeats = 5;

struct Instance {
  SinkSet set;
  std::vector<DelayBounds> bounds;
  double reference_objective = 0.0;
};

EbfProblem MakeProblem(const Instance& inst, const Topology& topo) {
  EbfProblem problem;
  problem.topo = &topo;
  problem.sinks = inst.set.sinks;
  problem.source = inst.set.source;
  problem.bounds = inst.bounds;
  return problem;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct OpOutcome {
  bool ok = false;
  std::string error;
  double objective = 0.0;
};

// Embed the solved lengths and verify the tree against the windows.
std::string EmbedAndVerify(const Topology& topo, const EbfProblem& problem,
                           const std::vector<double>& edge_len,
                           Tracer* tracer, long long op) {
  Result<Embedding> embedding = [&] {
    ScopedSpan span(tracer, "embed.place", op);
    return EmbedTree(topo, problem.sinks, problem.source, edge_len);
  }();
  if (!embedding.ok()) return "embed: " + embedding.status().ToString();
  ScopedSpan span(tracer, "embed.verify", op);
  const VerificationReport report =
      VerifyEmbedding(topo, problem.sinks, problem.source, edge_len,
                      embedding->location, problem.bounds);
  if (!report.ok()) return "verify: " + report.status.ToString();
  return "";
}

// The untraced operation: the public pipeline exactly as a user calls it.
OpOutcome SolveOnce(const Instance& inst) {
  Tracer off(false);
  OpOutcome out;
  const Topology topo = NnMergeTopology(inst.set.sinks, inst.set.source);
  const EbfProblem problem = MakeProblem(inst, topo);
  const EbfSolveResult solved = SolveEbf(problem);
  if (!solved.ok()) {
    out.error = "solve: " + solved.status.ToString();
    return out;
  }
  out.error = EmbedAndVerify(topo, problem, solved.edge_len, &off, -1);
  out.ok = out.error.empty();
  out.objective = solved.objective;
  return out;
}

struct TracedOutcome {
  OpOutcome op;
  LazySolveStats stats;
  int separation_calls = 0;
  std::vector<CompiledLpModel> rounds;  // captured when requested
  double capture_seconds = 0.0;
};

// The traced operation: SolveEbf rebuilt from its public parts with the
// same options, spans around every layer call.
TracedOutcome SolveTraced(const Instance& inst, Tracer* tracer, long long op,
                          bool capture) {
  TracedOutcome out;
  ScopedSpan op_span(tracer, "op", op);
  const Topology topo = [&] {
    ScopedSpan span(tracer, "topo.build", op);
    return NnMergeTopology(inst.set.sinks, inst.set.source);
  }();
  const EbfProblem problem = MakeProblem(inst, topo);
  Result<EbfFormulation> built = [&] {
    ScopedSpan span(tracer, "ebf.build", op);
    return EbfFormulation::Build(problem, SteinerRowPolicy::kSeed);
  }();
  if (!built.ok()) {
    out.op.error = "build: " + built.status().ToString();
    return out;
  }
  EbfFormulation& form = *built;
  const EbfSolveOptions options;
  const SeparationOptions sep{options.separation, options.separation_jobs};
  const RowOracle oracle = [&](std::span<const double> x) {
    if (capture) {
      const Clock::time_point start = Clock::now();
      out.rounds.push_back(form.Model().Compiled());
      out.capture_seconds += SecondsSince(start);
    }
    ScopedSpan span(tracer, "ebf.separation", op);
    ++out.separation_calls;
    return form.FindViolatedSteinerRows(x, options.separation_tol,
                                        options.max_rows_per_round, sep);
  };
  const LpSolution lp = [&] {
    ScopedSpan span(tracer, "lp.lazy", op);
    return SolveWithLazyRows(form.MutableModel(), oracle, options.lp,
                             options.max_lazy_rounds, &out.stats);
  }();
  if (!lp.ok()) {
    out.op.error = "lazy solve: " + lp.status.ToString();
    return out;
  }
  std::vector<double> edge_len;
  {
    ScopedSpan span(tracer, "ebf.edge_lengths", op);
    edge_len = form.EdgeLengths(lp.x);
    out.op.objective = lp.objective * form.Scale();
    (void)ComputeTreeStats(topo, edge_len);
  }
  out.op.error = EmbedAndVerify(topo, problem, edge_len, tracer, op);
  out.op.ok = out.op.error.empty();
  return out;
}

struct LpReplay {
  double order_ms = 0.0;
  double analyze_ms = 0.0;
  double factor_ms = 0.0;
  double trisolve_ms = 0.0;
  double pattern_nnz = 0.0;
  double fill_nnz = 0.0;
  double supernodes = 0.0;
};

// Replay the sparse normal-equations phases on the compiled models one
// real solve produced: ordering and analysis of every round's matrix,
// numeric factorization and solves of the final round's.
LpReplay ReplayLp(const std::vector<CompiledLpModel>& rounds) {
  LpReplay out;
  for (const CompiledLpModel& a : rounds) {
    Clock::time_point start = Clock::now();
    const std::vector<std::int32_t> order = MinDegreeOrder(a);
    out.order_ms += SecondsSince(start) * 1e3;
    SparseNormalFactor factor;
    start = Clock::now();
    factor.Analyze(a);
    out.analyze_ms += SecondsSince(start) * 1e3;
    (void)order;
  }
  if (rounds.empty()) return out;
  const CompiledLpModel& last = rounds.back();
  SparseNormalFactor factor;
  factor.Analyze(last);
  const std::vector<double> row_weight(static_cast<std::size_t>(last.num_rows),
                                       1.0);
  const std::vector<double> diag(static_cast<std::size_t>(last.num_cols),
                                 1.0);
  std::vector<double> factor_ms;
  std::vector<double> solve_ms;
  for (int rep = 0; rep < kFactorRepeats; ++rep) {
    Clock::time_point start = Clock::now();
    if (!factor.Factor(last, row_weight, diag)) break;
    factor_ms.push_back(SecondsSince(start) * 1e3);
    std::vector<double> rhs(static_cast<std::size_t>(last.num_cols), 1.0);
    start = Clock::now();
    factor.Solve(rhs);
    solve_ms.push_back(SecondsSince(start) * 1e3);
  }
  out.factor_ms = Median(factor_ms);
  out.trisolve_ms = Median(solve_ms);
  out.pattern_nnz = static_cast<double>(factor.PatternNnz());
  out.fill_nnz = static_cast<double>(factor.FillNnz());
  out.supernodes = static_cast<double>(factor.NumSupernodes());
  return out;
}

std::string Describe(int instance, const std::string& what) {
  return "instance " + std::to_string(instance) + ": " + what;
}

}  // namespace

void RunColdSolve(const RunConfig& config, Tracer* tracer,
                  WorkloadResult* out) {
  // Set-up: generate every instance of the cycle and cold-solve it once;
  // that solve's objective is what each later operation must reproduce.
  CpuRotation rotation;
  SetupTimer setup;
  std::vector<Instance> instances(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    rotation.Next();
    const Clock::time_point start = Clock::now();
    Instance& inst = instances[static_cast<std::size_t>(i)];
    inst.set = UniformInstance(kSinks, kFirstInstanceSeed +
                                           static_cast<std::uint64_t>(i));
    const double radius = Radius(inst.set.sinks, inst.set.source);
    inst.bounds.assign(inst.set.sinks.size(),
                       DelayBounds{kWindowLo * radius, kWindowHi * radius});
    const Topology topo = NnMergeTopology(inst.set.sinks, inst.set.source);
    const EbfSolveResult solved = SolveEbf(MakeProblem(inst, topo));
    setup.AddUnit(SecondsSince(start));
    out->Check(solved.ok(),
               Describe(i, "set-up solve: " + solved.status.ToString()));
    if (!solved.ok()) return;
    inst.reference_objective = solved.objective;
  }

  Rng rng(Mix(config.seed, 0xc01d));
  std::vector<double> op_ms;
  double timed = 0.0;
  double delivered = 0.0;
  double reference = 0.0;
  long long op_id = 0;

  // Trace-only accumulators (first pass).
  double overhead_ms = 0.0;
  double untraced_ms = 0.0;
  double capture_ms = 0.0;
  int paired = 0;
  LpReplay replay_sum;
  double rounds = 0, iterations = 0, warm_rounds = 0, symbolic_reuses = 0,
         regularizations = 0, final_rows = 0, separation_calls = 0,
         rows_added = 0;

  const int passes = PassesFor(config.seconds, kNominalPassSeconds, kInstances);
  for (int pass = 0; pass < passes; ++pass) {
    for (const int i : Permutation(kInstances, &rng)) {
      const Instance& inst = instances[static_cast<std::size_t>(i)];
      const bool first_pass = pass == 0;
      rotation.Next();
      if (!config.trace) {
        const Clock::time_point start = Clock::now();
        const OpOutcome got = SolveOnce(inst);
        const double seconds = SecondsSince(start);
        timed += seconds;
        op_ms.push_back(seconds * 1e3);
        delivered += got.objective;
        reference += inst.reference_objective;
        out->Check(got.ok && SameBits(got.objective, inst.reference_objective),
                   Describe(i, got.ok ? "objective differs from set-up solve"
                                      : got.error));
        continue;
      }
      // Traced run. On the first pass each instance also runs untraced
      // (the base of lp.analyze_share) and is replayed through the LP
      // phases.
      double plain_ms = 0.0;
      if (first_pass) {
        const Clock::time_point start = Clock::now();
        const OpOutcome plain = SolveOnce(inst);
        plain_ms = SecondsSince(start) * 1e3;
        out->Check(plain.ok && SameBits(plain.objective,
                                        inst.reference_objective),
                   Describe(i, plain.ok ? "objective differs" : plain.error));
      }
      const Clock::time_point start = Clock::now();
      const TracedOutcome got = SolveTraced(inst, tracer, op_id++, first_pass);
      const double seconds = SecondsSince(start);
      timed += seconds;
      op_ms.push_back(seconds * 1e3);
      delivered += got.op.objective;
      reference += inst.reference_objective;
      out->Check(
          got.op.ok && SameBits(got.op.objective, inst.reference_objective),
          Describe(i, got.op.ok
                          ? "traced objective differs from SolveEbf's"
                          : got.op.error));
      if (!first_pass) continue;
      ++paired;
      overhead_ms += seconds * 1e3 - plain_ms;
      untraced_ms += plain_ms;
      capture_ms += got.capture_seconds * 1e3;
      rounds += got.stats.rounds;
      iterations += got.stats.lp_iterations;
      warm_rounds += got.stats.warm_rounds;
      symbolic_reuses += got.stats.symbolic_reuses;
      regularizations += got.stats.regularizations;
      final_rows += got.stats.final_rows;
      rows_added += got.stats.rows_added;
      separation_calls += got.separation_calls;
      const LpReplay r = ReplayLp(got.rounds);
      replay_sum.order_ms += r.order_ms;
      replay_sum.analyze_ms += r.analyze_ms;
      replay_sum.factor_ms += r.factor_ms;
      replay_sum.trisolve_ms += r.trisolve_ms;
      replay_sum.pattern_nnz += r.pattern_nnz;
      replay_sum.fill_nnz += r.fill_nnz;
      replay_sum.supernodes += r.supernodes;
    }
  }

  out->Info("instances", std::to_string(kInstances) + " x " +
                             std::to_string(kSinks) + " sinks (fixed cycle)");
  out->Info("threads", "1");
  if (!config.trace) {
    AddLoopMetrics(op_ms, timed, setup, PeakRssMb(), out);
    out->Add("cost_ratio", reference > 0.0 ? delivered / reference : 0.0,
             "ratio");
    return;
  }

  const std::vector<Span> spans = tracer->Spans();
  const double ops = static_cast<double>(TotalsFor(spans, "op").count);
  const auto per_op_ms = [&](const std::string& name) {
    return ops > 0 ? TotalsFor(spans, name).seconds * 1e3 / ops : 0.0;
  };
  const double n = paired > 0 ? paired : 1;
  out->Add("topo.build_ms", per_op_ms("topo.build"), "ms");
  out->Add("ebf.build_ms", per_op_ms("ebf.build"), "ms");
  out->Add("ebf.separation_ms", per_op_ms("ebf.separation"), "ms");
  out->Add("ebf.separation_calls", separation_calls / n, "count");
  out->Add("ebf.rows_added", rows_added / n, "count");
  // lp.lazy self time is the lazy solve minus separation; the first pass's
  // model capture also ran inside it and is taken out again.
  const double lazy_self_ms =
      ops > 0 ? TotalsFor(spans, "lp.lazy").self_seconds * 1e3 / ops : 0.0;
  out->Add("lp.ipm_ms", lazy_self_ms - (ops > 0 ? capture_ms / ops : 0.0),
           "ms");
  out->Add("lp.rounds", rounds / n, "count");
  out->Add("lp.iterations", iterations / n, "count");
  out->Add("lp.warm_rounds", warm_rounds / n, "count");
  out->Add("lp.symbolic_reuses", symbolic_reuses / n, "count");
  out->Add("lp.regularizations", regularizations / n, "count");
  out->Add("lp.final_rows", final_rows / n, "count");
  out->Add("lp.order_ms", replay_sum.order_ms / n, "ms");
  out->Add("lp.analyze_ms", replay_sum.analyze_ms / n, "ms");
  out->Add("lp.analyze_share",
           untraced_ms > 0.0 ? replay_sum.analyze_ms / untraced_ms : 0.0,
           "ratio");
  out->Add("lp.factor_ms", replay_sum.factor_ms / n, "ms");
  out->Add("lp.trisolve_ms", replay_sum.trisolve_ms / n, "ms");
  out->Add("lp.pattern_nnz", replay_sum.pattern_nnz / n, "count");
  out->Add("lp.fill_nnz", replay_sum.fill_nnz / n, "count");
  out->Add("lp.supernodes", replay_sum.supernodes / n, "count");
  out->Add("embed.place_ms", per_op_ms("embed.place"), "ms");
  out->Add("embed.verify_ms", per_op_ms("embed.verify"), "ms");
  out->Add("trace.coverage", Coverage(spans, "op"), "ratio");
  // What tracing adds to an operation: span bookkeeping and the model
  // capture. The paired traced-minus-untraced difference of the first pass
  // is printed too, but machine drift (a few percent of a 0.9 s solve)
  // swamps it.
  out->Add("trace.overhead_ms",
           ops > 0 ? (tracer->BookkeepingSeconds() * 1e3 + capture_ms) / ops
                   : 0.0,
           "ms");
  out->Info("paired_overhead_ms", Num(overhead_ms / n));
  out->Info("replay", "lp.order_ms lp.analyze_ms lp.analyze_share "
                      "lp.factor_ms lp.trisolve_ms lp.pattern_nnz "
                      "lp.fill_nnz lp.supernodes");
  out->Info("trace_overhead",
            "span bookkeeping plus model capture per operation");
}

}  // namespace perfbench
