// topo-search: rounds -> best topology, one TopoOptimizer::Optimize call per
// operation (jobs = 1, a fixed search seed, a fixed round budget, no time
// budget), each starting from a session restored from a set-up checkpoint.
// Instances are 64-sink uniform instances with window [0.3r, 1.3r], where
// the annealer still wins wirelength (BENCH_topo.json). Candidate
// evaluation plus commit do the work.
//
// The instance cycle is fixed and a run is a fixed number of whole passes,
// like cold-solve: a search's cost depends on the instance, so a
// seed-drawn cycle would move p50 and cost_ratio from seed to seed. With a
// fixed cycle and a fixed search seed, cost_ratio (best over initial
// wirelength, summed over the cycle) is deterministic, so a "faster" search
// that finds worse trees shows.
//
// Check: best cost <= initial cost, the best tree embeds and passes
// VerifyEmbedding, and every repeat of an instance reproduces its first
// result bitwise.

#include <cstring>
#include <memory>
#include <optional>

#include "bench.h"
#include "cts/metrics.h"
#include "ebf/solver.h"
#include "eco/checkpoint.h"
#include "eco/eco_session.h"
#include "embed/placer.h"
#include "embed/verifier.h"
#include "search/moves.h"
#include "search/topo_optimizer.h"
#include "topo/nn_merge.h"

namespace perfbench {
namespace {

using namespace lubt;

constexpr int kSinks = 64;
constexpr int kInstances = 8;
constexpr std::uint64_t kFirstInstanceSeed = 3401;
constexpr double kWindowLo = 0.3;
constexpr double kWindowHi = 1.3;
constexpr int kRounds = 5;
constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kSearchSeed = 1;
constexpr int kReplayCandidates = 8;
// One pass over the cycle on the reference machine (0.47 s per search).
constexpr double kNominalPassSeconds = 3.8;

struct Instance {
  EcoCheckpoint checkpoint;
  std::optional<double> best_cost;  // first result, for the repeat check
  double initial_cost = 0.0;
};

TopoSearchOptions SearchOptions() {
  TopoSearchOptions options;
  options.seed = kSearchSeed;
  options.max_rounds = kRounds;
  options.plateau_rounds = kRounds;
  options.jobs = 1;
  options.time_budget_seconds = 0.0;
  return options;
}

std::unique_ptr<EcoSession> RestoreSession(const Instance& inst) {
  Result<std::unique_ptr<EcoSession>> restored =
      EcoSession::Restore(inst.checkpoint);
  return restored.ok() ? std::move(*restored) : nullptr;
}

// Embed + verify the best tree against the instance's windows.
std::string VerifyBest(const EcoSession& session,
                       const TopoSearchResult& result) {
  const SinkSet& set = session.Set();
  Result<Embedding> embedding = EmbedTree(result.best_topo, set.sinks,
                                          set.source, result.best_edge_len);
  if (!embedding.ok()) return "embed: " + embedding.status().ToString();
  const VerificationReport report = VerifyEmbedding(
      result.best_topo, set.sinks, set.source, result.best_edge_len,
      embedding->location, session.Bounds());
  return report.ok() ? "" : "verify: " + report.status.ToString();
}

struct SearchReplay {
  double eval_ms = 0.0;
  double cold_ms = 0.0;
  double commit_ms = 0.0;
};

// Time candidate evaluation (EvaluateCandidateTopology on candidates from
// ApplyMove), a cold SolveEbf of the same instance, and one commit
// (ApplyTopologyReplace) on a freshly restored session.
SearchReplay ReplaySearch(const Instance& inst, Rng* rng,
                          WorkloadResult* out) {
  SearchReplay replay;
  std::unique_ptr<EcoSession> session = RestoreSession(inst);
  if (session == nullptr) {
    out->Check(false, "replay restore failed");
    return replay;
  }
  const Topology& base = session->Topo();
  const std::vector<double> base_len(session->EdgeLengths().begin(),
                                     session->EdgeLengths().end());
  MoveScratch scratch;
  scratch.Prepare(base.NumNodes() + 2);
  std::vector<double> eval_ms;
  std::optional<Topology> commit_topo;
  std::vector<double> commit_len;
  for (int tries = 0; static_cast<int>(eval_ms.size()) < kReplayCandidates &&
                      tries < 50 * kReplayCandidates;
       ++tries) {
    TopoMove move;
    move.kind = rng->UniformInt(0, 1) == 0 ? MoveKind::kReattach
                                            : MoveKind::kSwap;
    move.a = rng->UniformInt(0, base.NumNodes() - 1);
    move.b = rng->UniformInt(0, base.NumNodes() - 1);
    Topology candidate;
    std::vector<double> warm;
    if (!ApplyMove(base, move, &scratch, &candidate, &base_len, &warm)) {
      continue;
    }
    const Clock::time_point start = Clock::now();
    const EcoTopoEval eval =
        session->EvaluateCandidateTopology(candidate, &warm);
    eval_ms.push_back(SecondsSince(start) * 1e3);
    out->Check(eval.ok(), "candidate evaluation: " + eval.status.ToString());
    if (eval.ok() && !commit_topo.has_value()) {
      commit_topo = candidate;
      commit_len = eval.edge_len;
    }
  }
  replay.eval_ms = Median(eval_ms);

  EbfProblem problem = session->Problem();
  problem.topo = &base;
  Clock::time_point start = Clock::now();
  const EbfSolveResult cold = SolveEbf(problem);
  replay.cold_ms = SecondsSince(start) * 1e3;
  out->Check(cold.ok(), "cold solve: " + cold.status.ToString());

  if (commit_topo.has_value()) {
    start = Clock::now();
    const Result<EcoSolveInfo> committed =
        session->ApplyTopologyReplace(std::move(*commit_topo), &commit_len);
    replay.commit_ms = SecondsSince(start) * 1e3;
    out->Check(committed.ok() && committed->ok(), "topology commit failed");
  }
  return replay;
}

}  // namespace

void RunTopoSearch(const RunConfig& config, Tracer* tracer,
                   WorkloadResult* out) {
  // Set-up: generate each instance, open a session on its NN-merge
  // topology (a cold solve) and checkpoint it. Each instance is set up
  // kSetupRepeats times and counts as one unit of its median time: a
  // 64-sink open takes ~30 ms, and a single timing of it moved the set-up
  // time 27% from run to run.
  CpuRotation rotation;
  SetupTimer setup;
  std::vector<Instance> instances(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    std::vector<double> repeats;
    for (int k = 0; k < kSetupRepeats; ++k) {
      rotation.Next();
      const Clock::time_point start = Clock::now();
      SinkSet set = UniformInstance(
          kSinks, kFirstInstanceSeed + static_cast<std::uint64_t>(i));
      const double radius = Radius(set.sinks, set.source);
      std::vector<DelayBounds> bounds(
          set.sinks.size(),
          DelayBounds{kWindowLo * radius, kWindowHi * radius});
      Topology topo = NnMergeTopology(set.sinks, set.source);
      Result<std::unique_ptr<EcoSession>> created = EcoSession::Create(
          std::move(set), std::move(bounds), std::move(topo), {});
      const bool ok = created.ok() && (*created)->Last().ok();
      if (ok) instances[static_cast<std::size_t>(i)].checkpoint =
          (*created)->Checkpoint();
      repeats.push_back(SecondsSince(start));
      out->Check(ok, "session create failed");
      if (!ok) return;
    }
    setup.AddUnit(Median(repeats));
  }

  const TopoSearchOptions options = SearchOptions();
  Rng rng(Mix(config.seed, 0x7090));
  Rng replay_rng(Mix(config.seed, 0x7091));
  std::vector<double> op_ms;
  double timed = 0.0;
  long long op_id = 0;

  // Trace-only accumulators (first pass).
  double stat_rounds = 0, evaluated = 0, accepted = 0, uphill = 0;
  SearchReplay replay_sum;
  int paired = 0;

  const int passes = PassesFor(config.seconds, kNominalPassSeconds, kInstances);
  for (int pass = 0; pass < passes; ++pass) {
    for (const int i : Permutation(kInstances, &rng)) {
      Instance& inst = instances[static_cast<std::size_t>(i)];
      const bool first_pass = pass == 0;
      std::unique_ptr<EcoSession> session = RestoreSession(inst);
      if (session == nullptr) {
        out->Check(false, "checkpoint restore failed");
        return;
      }
      Result<TopoSearchResult> result = Status::Internal("unset");
      rotation.Next();
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan op_span(tracer, "op", op_id);
        ScopedSpan span(tracer, "search.optimize", op_id);
        result = TopoOptimizer::Optimize(*session, options);
      }
      const double seconds = SecondsSince(start);
      ++op_id;
      timed += seconds;
      op_ms.push_back(seconds * 1e3);

      std::string error;
      if (!result.ok() || !result->ok()) {
        error = "search: " +
                (result.ok() ? result->status : result.status()).ToString();
      } else if (!(result->best_cost <= result->initial_cost)) {
        error = "best cost above initial cost";
      } else if (inst.best_cost.has_value() &&
                 std::memcmp(&*inst.best_cost, &result->best_cost,
                             sizeof(double)) != 0) {
        error = "repeat search found a different best cost";
      } else {
        error = VerifyBest(*session, *result);
      }
      out->Check(error.empty(), "instance " + std::to_string(i) + ": " + error);
      if (!error.empty()) continue;
      if (!inst.best_cost.has_value()) {
        inst.best_cost = result->best_cost;
        inst.initial_cost = result->initial_cost;
      }
      if (!config.trace || !first_pass) continue;
      ++paired;
      stat_rounds += result->stats.rounds;
      evaluated += result->stats.evaluated;
      accepted += result->stats.accepted;
      uphill += result->stats.uphill_accepted;
      const SearchReplay r = ReplaySearch(inst, &replay_rng, out);
      replay_sum.eval_ms += r.eval_ms;
      replay_sum.cold_ms += r.cold_ms;
      replay_sum.commit_ms += r.commit_ms;
    }
  }

  double best_total = 0.0;
  double initial_total = 0.0;
  for (const Instance& inst : instances) {
    best_total += inst.best_cost.value_or(0.0);
    initial_total += inst.initial_cost;
  }
  out->Info("instances", std::to_string(kInstances) + " x " +
                             std::to_string(kSinks) + " sinks (fixed cycle), " +
                             std::to_string(kRounds) + " rounds per search");
  out->Info("threads", "1");
  if (!config.trace) {
    AddLoopMetrics(op_ms, timed, setup, PeakRssMb(), out);
    out->Add("cost_ratio",
             initial_total > 0.0 ? best_total / initial_total : 0.0, "ratio");
    return;
  }

  const std::vector<Span> spans = tracer->Spans();
  const double n = paired > 0 ? paired : 1;
  out->Add("search.eval_ms", replay_sum.eval_ms / n, "ms");
  out->Add("search.eval_over_cold",
           replay_sum.cold_ms > 0.0 ? replay_sum.eval_ms / replay_sum.cold_ms
                                    : 0.0,
           "ratio");
  out->Add("search.commit_ms", replay_sum.commit_ms / n, "ms");
  out->Add("search.rounds", stat_rounds / n, "count");
  out->Add("search.evaluated", evaluated / n, "count");
  out->Add("search.accepted", accepted / n, "count");
  out->Add("search.uphill_accepted", uphill / n, "count");
  out->Add("search.accept_frac", evaluated > 0 ? accepted / evaluated : 0.0,
           "ratio");
  out->Add("trace.coverage", Coverage(spans, "op"), "ratio");
  out->Add("trace.overhead_ms",
           tracer->BookkeepingSeconds() * 1e3 /
               static_cast<double>(op_ms.size()),
           "ms");
  out->Info("replay", "search.eval_ms search.eval_over_cold search.commit_ms");
  out->Info("trace_overhead", "span bookkeeping time per operation");
}

}  // namespace perfbench
