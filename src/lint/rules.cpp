// Rule scanners for lubt_lint. Each rule is a pure function over one file's
// token stream (plus raw lines for the preprocessor-level checks); the
// registry at the bottom is the single source of truth for rule names,
// catalog order, and --list-rules output.
//
// Adding a rule: write a scanner, append a Rule entry to the registry, add
// positive / suppressed / clean fixtures to tests/lint_test.cpp, and
// document it in DESIGN.md section 14. Rules must be deterministic and
// token-based — no filesystem access, no environment, no wall clock.

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>

#include "lint/lint.h"

namespace lubt::lint {
namespace {

using Tokens = std::vector<Token>;

bool IsIdent(const Token& token) { return token.kind == Token::Kind::kIdent; }

bool IsText(const Token& token, const char* text) { return token.text == text; }

void Add(std::vector<Finding>* out, const FileContext& ctx, const char* rule,
         int line, std::string message) {
  out->push_back(Finding{rule, ctx.path, line, std::move(message)});
}

/// Index of the ')' matching the '(' at `open`, or n on imbalance.
std::size_t MatchParen(const Tokens& tokens, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (IsText(tokens[i], "(")) ++depth;
    if (IsText(tokens[i], ")") && --depth == 0) return i;
  }
  return tokens.size();
}

/// Index of the '}' matching the '{' at `open`, or n on imbalance.
std::size_t MatchBrace(const Tokens& tokens, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (IsText(tokens[i], "{")) ++depth;
    if (IsText(tokens[i], "}") && --depth == 0) return i;
  }
  return tokens.size();
}

// ---------------------------------------------------------------------------
// unchecked-result: X.value() requires a prior X.ok() / X.has_value() guard
// somewhere earlier in the file. Result<T>::value() aborts on an error
// Result, so an unguarded access is a latent crash on the first infeasible
// instance that reaches it.

/// The identifier whose Result is being accessed at `dot` (the '.' of
/// `.value()`): `res.value()` -> "res"; `std::move(res).value()` -> "res";
/// `Make().value()` -> "Make". Empty when the receiver is not reducible to
/// one identifier (then we stay silent rather than guess).
std::string ValueReceiver(const Tokens& tokens, std::size_t dot) {
  if (dot == 0) return "";
  const Token& prev = tokens[dot - 1];
  if (IsIdent(prev)) return prev.text;
  if (!IsText(prev, ")")) return "";
  // Balance back over the call's argument list.
  int depth = 0;
  std::size_t open = tokens.size();
  for (std::size_t i = dot; i-- > 0;) {
    if (IsText(tokens[i], ")")) ++depth;
    if (IsText(tokens[i], "(") && --depth == 0) {
      open = i;
      break;
    }
  }
  if (open == tokens.size()) return "";
  // Last identifier inside the parens that is not part of std::move itself.
  for (std::size_t i = dot - 1; i-- > open;) {
    if (IsIdent(tokens[i]) && tokens[i].text != "std" &&
        tokens[i].text != "move") {
      return tokens[i].text;
    }
  }
  // Empty argument list: Make().value() — the callee is the receiver.
  if (open > 0 && IsIdent(tokens[open - 1])) return tokens[open - 1].text;
  return "";
}

void RuleUncheckedResult(const FileContext& ctx, std::vector<Finding>* out) {
  const Tokens& tokens = ctx.stream->tokens;
  for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (!IsText(tokens[i], ".") || !IsText(tokens[i + 1], "value") ||
        !IsText(tokens[i + 2], "(") || !IsText(tokens[i + 3], ")")) {
      continue;
    }
    const std::string receiver = ValueReceiver(tokens, i);
    if (receiver.empty()) continue;
    bool guarded = false;
    for (std::size_t j = 0; j < i && !guarded; ++j) {
      if (!IsIdent(tokens[j]) || tokens[j].text != receiver) continue;
      const std::size_t limit = std::min(j + 5, i);
      for (std::size_t k = j + 1; k < limit; ++k) {
        if (IsText(tokens[k], "ok") || IsText(tokens[k], "has_value")) {
          guarded = true;
          break;
        }
      }
    }
    if (!guarded) {
      Add(out, ctx, "unchecked-result", tokens[i + 1].line,
          "`" + receiver + ".value()` with no prior `" + receiver +
              ".ok()` guard in scope; check ok() (or use status()) first");
    }
  }
}

// ---------------------------------------------------------------------------
// nondeterminism: sources of run-to-run variation are banned from library
// code. Every stochastic component draws from util/rng.h (seeded xoshiro)
// so batches are bitwise reproducible (jobs=1 == jobs=8, DESIGN.md
// section 10); rand()/time()/random_device reintroduce ambient state, and
// pointer-to-integer casts leak allocation addresses into values where they
// end up ordering output.

void RuleNondeterminism(const FileContext& ctx, std::vector<Finding>* out) {
  static const std::set<std::string> kBannedCalls = {
      "rand",   "srand",   "rand_r", "drand48",      "lrand48",
      "mrand48", "random", "random_shuffle", "time", "clock",
      "getpid", "gettimeofday"};
  const Tokens& tokens = ctx.stream->tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (!IsIdent(token)) continue;
    const bool member_access =
        i > 0 && (IsText(tokens[i - 1], ".") || IsText(tokens[i - 1], "->"));
    if (member_access) continue;
    if (token.text == "random_device") {
      Add(out, ctx, "nondeterminism", token.line,
          "std::random_device is ambient entropy; derive from a caller-"
          "provided seed via util/rng.h (Rng) instead");
      continue;
    }
    if (kBannedCalls.count(token.text) != 0 && i + 1 < tokens.size() &&
        IsText(tokens[i + 1], "(")) {
      Add(out, ctx, "nondeterminism", token.line,
          "`" + token.text +
              "()` injects ambient state into a deterministic path; use "
              "util/rng.h (seeded) or util/timer.h (monotonic, "
              "reporting-only) instead");
      continue;
    }
    if (token.text == "reinterpret_cast" && i + 1 < tokens.size() &&
        IsText(tokens[i + 1], "<")) {
      for (std::size_t j = i + 2;
           j < tokens.size() && !IsText(tokens[j], ">"); ++j) {
        if (IsIdent(tokens[j]) &&
            tokens[j].text.find("intptr") != std::string::npos) {
          Add(out, ctx, "nondeterminism", token.line,
              "pointer-to-integer cast leaks allocation addresses into "
              "values; address-based ordering is not reproducible across "
              "runs");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iteration: iterating an unordered container visits elements in
// hash-table order, which varies with libstdc++ version, insertion history
// and rehash points. Any such loop that emits into ordered output (LP rows,
// JSON, edit scripts) silently breaks the bitwise-determinism contracts, so
// every range-for over an unordered_{map,set} declared in the file must
// either traverse a sorted copy or carry an explicit waiver stating why
// order cannot matter.

void RuleUnorderedIteration(const FileContext& ctx,
                            std::vector<Finding>* out) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const Tokens& tokens = ctx.stream->tokens;

  std::set<std::string> tracked;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i]) || kUnordered.count(tokens[i].text) == 0) continue;
    std::size_t j = i + 1;
    if (IsText(tokens[j], "<")) {
      int depth = 0;
      for (; j < tokens.size(); ++j) {
        if (IsText(tokens[j], "<")) ++depth;
        if (IsText(tokens[j], ">") && --depth == 0) break;
        if (IsText(tokens[j], ">>")) {
          depth -= 2;
          if (depth <= 0) break;
        }
      }
      ++j;
    }
    while (j < tokens.size() &&
           (IsText(tokens[j], "&") || IsText(tokens[j], "*") ||
            IsText(tokens[j], "const"))) {
      ++j;
    }
    if (j < tokens.size() && IsIdent(tokens[j])) tracked.insert(tokens[j].text);
  }
  if (tracked.empty()) return;

  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsText(tokens[i], "for") || !IsText(tokens[i + 1], "(")) continue;
    const std::size_t close = MatchParen(tokens, i + 1);
    std::size_t colon = close;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (IsText(tokens[j], "(")) ++depth;
      if (IsText(tokens[j], ")")) --depth;
      if (depth == 1 && IsText(tokens[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon == close) continue;  // not a range-for
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (IsIdent(tokens[j]) && tracked.count(tokens[j].text) != 0) {
        Add(out, ctx, "unordered-iteration", tokens[i].line,
            "range-for over unordered container `" + tokens[j].text +
                "` visits hash order; traverse a sorted copy (or waive with "
                "a comment stating why order cannot matter)");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// float-eq: exact ==/!= against a floating literal is almost always a
// tolerance bug in LP-adjacent code. Comparisons against the exact
// sentinels 0.0 and 1.0 are allowed — they test "was this ever assigned /
// scaled" rather than numerical equality (sparsity checks on stored
// coefficients, unit weights), a deliberate idiom throughout the solvers.

void RuleFloatEq(const FileContext& ctx, std::vector<Finding>* out) {
  const Tokens& tokens = ctx.stream->tokens;
  const auto non_sentinel_float = [](const Token& token) {
    if (token.kind != Token::Kind::kNumber || !IsFloatLiteral(token.text)) {
      return false;
    }
    const double v = std::strtod(token.text.c_str(), nullptr);
    return std::fabs(v) != 0.0 && std::fabs(v) != 1.0;
  };
  for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
    if (!IsText(tokens[i], "==") && !IsText(tokens[i], "!=")) continue;
    std::size_t right = i + 1;
    if ((IsText(tokens[right], "-") || IsText(tokens[right], "+")) &&
        right + 1 < tokens.size()) {
      ++right;
    }
    if (non_sentinel_float(tokens[i - 1]) ||
        non_sentinel_float(tokens[right])) {
      Add(out, ctx, "float-eq", tokens[i].line,
          "exact floating-point `" + tokens[i].text +
              "` against a non-sentinel literal; compare through a "
              "tolerance-aware helper");
    }
  }
}

// ---------------------------------------------------------------------------
// finite-boundary: the public solver entry points are where NaN/Inf must be
// caught before results cross a subsystem boundary (DESIGN.md section 9).
// Each listed function's definition must invoke LUBT_DCHECK_FINITE on its
// way out; the rule fires on the definition, not on call sites.

void RuleFiniteBoundary(const FileContext& ctx, std::vector<Finding>* out) {
  if (ctx.is_header) return;
  static const std::set<std::string> kBoundaries = {"SolveLp", "SolveEbf"};
  const Tokens& tokens = ctx.stream->tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i]) || kBoundaries.count(tokens[i].text) == 0 ||
        !IsText(tokens[i + 1], "(")) {
      continue;
    }
    if (i > 0 && (IsText(tokens[i - 1], ".") || IsText(tokens[i - 1], "->"))) {
      continue;
    }
    const std::size_t close = MatchParen(tokens, i + 1);
    if (close + 1 >= tokens.size() || !IsText(tokens[close + 1], "{")) {
      continue;  // declaration or call, not a definition
    }
    const std::size_t end = MatchBrace(tokens, close + 1);
    bool checked = false;
    for (std::size_t j = close + 1; j < end; ++j) {
      if (IsText(tokens[j], "LUBT_DCHECK_FINITE")) {
        checked = true;
        break;
      }
    }
    if (!checked) {
      Add(out, ctx, "finite-boundary", tokens[i].line,
          "boundary function `" + tokens[i].text +
              "` never invokes LUBT_DCHECK_FINITE on its results; NaN/Inf "
              "must not cross the solver boundary unchecked");
    }
  }
}

// ---------------------------------------------------------------------------
// include-guard: headers carry the canonical LUBT_<PATH>_H_ guard so two
// headers can never collide and a file's guard survives moves only when the
// guard moves with it.

std::string ExpectedGuard(const FileContext& ctx) {
  std::string guard = "LUBT_";
  for (const std::string& part : ctx.rel) {
    for (const char c : part) {
      if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
        guard.push_back(static_cast<char>(
            std::toupper(static_cast<unsigned char>(c))));
      } else {
        guard.push_back('_');
      }
    }
    guard.push_back('_');
  }
  // "lp/model.h" -> LUBT_ + LP_ + MODEL_H_ = LUBT_LP_MODEL_H_.
  return guard;
}

std::string Trimmed(const std::string& line) {
  std::size_t begin = line.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  std::size_t end = line.find_last_not_of(" \t\r");
  return line.substr(begin, end - begin + 1);
}

void RuleIncludeGuard(const FileContext& ctx, std::vector<Finding>* out) {
  if (!ctx.is_header) return;
  const std::string expected = ExpectedGuard(ctx);
  const std::vector<std::string>& lines = *ctx.lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string line = Trimmed(lines[i]);
    if (line.rfind("#ifndef", 0) != 0) continue;
    const std::string guard = Trimmed(line.substr(7));
    const int line_no = static_cast<int>(i) + 1;
    if (guard != expected) {
      Add(out, ctx, "include-guard", line_no,
          "include guard `" + guard + "` does not match the canonical `" +
              expected + "` for this path");
      return;
    }
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const std::string next = Trimmed(lines[j]);
      if (next.empty()) continue;
      if (next != "#define " + guard) {
        Add(out, ctx, "include-guard", static_cast<int>(j) + 1,
            "`#ifndef " + guard + "` must be followed by `#define " + guard +
                "`");
      }
      return;
    }
    return;
  }
  Add(out, ctx, "include-guard", 1,
      "header has no `#ifndef " + expected + "` include guard");
}

// ---------------------------------------------------------------------------
// using-namespace: a header-level using-directive leaks into every includer;
// `using namespace std` anywhere invites shadowing bugs against the
// considerable surface of namespace std.

void RuleUsingNamespace(const FileContext& ctx, std::vector<Finding>* out) {
  const Tokens& tokens = ctx.stream->tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsText(tokens[i], "using") || !IsText(tokens[i + 1], "namespace")) {
      continue;
    }
    const bool is_std =
        i + 2 < tokens.size() && IsText(tokens[i + 2], "std");
    if (ctx.is_header) {
      Add(out, ctx, "using-namespace", tokens[i].line,
          "using-directive in a header leaks into every includer; qualify "
          "names or use a namespace alias");
    } else if (is_std) {
      Add(out, ctx, "using-namespace", tokens[i].line,
          "`using namespace std` invites shadowing bugs; qualify std names "
          "explicitly");
    }
  }
}

// ---------------------------------------------------------------------------
// bare-mutex: raw std synchronization types are invisible to clang's
// -Wthread-safety, so a std::lock_guard both defeats the annotations and
// warns spuriously on guarded fields. Everything outside the wrapper header
// itself uses the annotated Mutex / MutexLock / CondVar from check/mutex.h.

void RuleBareMutex(const FileContext& ctx, std::vector<Finding>* out) {
  if (!ctx.rel.empty() && ctx.rel[0] == "check") return;  // the wrappers
  static const std::set<std::string> kBare = {
      "mutex",          "timed_mutex",        "recursive_mutex",
      "shared_mutex",   "lock_guard",         "unique_lock",
      "scoped_lock",    "shared_lock",        "condition_variable",
      "condition_variable_any"};
  const Tokens& tokens = ctx.stream->tokens;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    if (IsIdent(tokens[i]) && kBare.count(tokens[i].text) != 0 &&
        IsText(tokens[i - 1], "::") && IsText(tokens[i - 2], "std")) {
      Add(out, ctx, "bare-mutex", tokens[i].line,
          "std::" + tokens[i].text +
              " is invisible to -Wthread-safety; use the annotated "
              "Mutex/MutexLock/CondVar from check/mutex.h");
    }
  }
}

// ---------------------------------------------------------------------------
// serve-raw-io: raw POSIX I/O on sockets is where the server's two classic
// bugs live — short reads/writes silently truncating frames, and SIGPIPE
// killing the process on a client that hung up. serve/framing.cpp owns the
// retry loops and MSG_NOSIGNAL handling (each raw call there carries an
// explicit waiver); everything else under src/serve/ goes through its
// WriteFrameFd/ReadFrameFd/ReadSomeFd helpers.

void RuleServeRawIo(const FileContext& ctx, std::vector<Finding>* out) {
  if (ctx.rel.empty() || ctx.rel[0] != "serve") return;
  static const std::set<std::string> kRawIo = {
      "read",  "write",  "send",    "recv",    "pread", "pwrite",
      "readv", "writev", "sendmsg", "recvmsg", "sendto", "recvfrom"};
  const Tokens& tokens = ctx.stream->tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i]) || kRawIo.count(tokens[i].text) == 0 ||
        !IsText(tokens[i + 1], "(")) {
      continue;
    }
    // Member calls (stream.read(...), this->write(...)) are not syscalls.
    if (i > 0 && (IsText(tokens[i - 1], ".") || IsText(tokens[i - 1], "->"))) {
      continue;
    }
    Add(out, ctx, "serve-raw-io", tokens[i].line,
        "raw `" + tokens[i].text +
            "()` in src/serve/; use the framing helpers "
            "(WriteFrameFd/ReadFrameFd/ReadSomeFd), which own the "
            "short-I/O retry loops and SIGPIPE suppression");
  }
}

// ---------------------------------------------------------------------------
// hot-loop-alloc: the steady-state kernels — the numeric refactor path in
// src/lp/ (AssembleNormal/FactorAttempt*/ProcessSupernode/Ereach/Solve*),
// the geometry distance/aggregate primitives in src/geom/, and the
// topology-search rewire kernel in src/search/ (RewireMove, called per
// proposal inside the annealer's round loop) — run once per Newton step,
// candidate pair, or proposal, and their whole point is that every buffer
// was preallocated during symbolic analysis / setup. Any `new` or allocating
// container member call inside one of the listed functions' definitions is
// a latent per-iteration malloc; a provably cold allocation (first-call
// lazy init) must carry an explicit `lubt-lint: allow(hot-loop-alloc)`
// waiver so a grep audits every exception.

void RuleHotLoopAlloc(const FileContext& ctx, std::vector<Finding>* out) {
  if (ctx.rel.empty() || (ctx.rel[0] != "lp" && ctx.rel[0] != "geom" &&
                          ctx.rel[0] != "search")) {
    return;
  }
  static const std::set<std::string> kHotFunctions = {
      "AssembleNormal", "FactorAttempt",   "FactorAttemptSupernodal",
      "ProcessSupernode", "Ereach",        "SolveSimplicial",
      "SolveSupernodal", "TrrDist",        "TrrDistRaw",
      "IntervalGap",     "Include",        "Merge",
      "CopyFrom",        "CrossBound",     "CrossBoundDirty",
      "RewireMove"};
  static const std::set<std::string> kAllocCalls = {
      "push_back", "emplace_back", "emplace", "resize",
      "reserve",   "assign",       "insert",  "append"};
  const Tokens& tokens = ctx.stream->tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i]) || kHotFunctions.count(tokens[i].text) == 0 ||
        !IsText(tokens[i + 1], "(")) {
      continue;
    }
    // Member-call uses (agg.Merge(...)) are not definitions.
    if (i > 0 && (IsText(tokens[i - 1], ".") || IsText(tokens[i - 1], "->"))) {
      continue;
    }
    const std::size_t close = MatchParen(tokens, i + 1);
    std::size_t open = close + 1;
    while (open < tokens.size() &&
           (IsText(tokens[open], "const") || IsText(tokens[open], "noexcept"))) {
      ++open;
    }
    if (open >= tokens.size() || !IsText(tokens[open], "{")) {
      continue;  // declaration or call, not a definition
    }
    const std::size_t end = MatchBrace(tokens, open);
    for (std::size_t j = open + 1; j < end; ++j) {
      if (!IsIdent(tokens[j])) continue;
      if (tokens[j].text == "new") {
        Add(out, ctx, "hot-loop-alloc", tokens[j].line,
            "`new` inside steady-state kernel `" + tokens[i].text +
                "`; preallocate during Analyze()/setup and reuse scratch");
        continue;
      }
      if (kAllocCalls.count(tokens[j].text) != 0 && j > 0 &&
          (IsText(tokens[j - 1], ".") || IsText(tokens[j - 1], "->")) &&
          j + 1 < tokens.size() && IsText(tokens[j + 1], "(")) {
        Add(out, ctx, "hot-loop-alloc", tokens[j].line,
            "`." + tokens[j].text + "()` inside steady-state kernel `" +
                tokens[i].text +
                "` may allocate per call; preallocate during "
                "Analyze()/setup (or waive if provably cold)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lazy-loop: row generation (paper section 4.6) has exactly one loop,
// SolveWithLazyRows (lp/lazy_row_solver.h), which owns the warm-start
// gating, the cold retry and the convergence check. The ECO engine and the
// topology search solve through it with their own RowOracle; a direct
// SolveLp call there is a forked copy of that loop in the making.

void RuleLazyLoop(const FileContext& ctx, std::vector<Finding>* out) {
  if (ctx.rel.empty() || (ctx.rel[0] != "eco" && ctx.rel[0] != "search")) {
    return;
  }
  const Tokens& tokens = ctx.stream->tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i]) || !IsText(tokens[i], "SolveLp") ||
        !IsText(tokens[i + 1], "(")) {
      continue;
    }
    if (i > 0 && (IsText(tokens[i - 1], ".") || IsText(tokens[i - 1], "->"))) {
      continue;
    }
    Add(out, ctx, "lazy-loop", tokens[i].line,
        "`SolveLp()` in src/" + ctx.rel[0] +
            "/; go through SolveWithLazyRows with a RowOracle, which owns "
            "the warm-start gating, cold retry and convergence check");
  }
}

}  // namespace

const std::vector<Rule>& Rules() {
  static const std::vector<Rule> kRules = {
      {"unchecked-result",
       "Result<T>::value() requires a prior ok()/has_value() guard",
       RuleUncheckedResult},
      {"nondeterminism",
       "no rand()/time()/random_device/address-ordering in solver paths",
       RuleNondeterminism},
      {"unordered-iteration",
       "no range-for over unordered containers (hash order leaks into output)",
       RuleUnorderedIteration},
      {"float-eq",
       "no exact ==/!= against non-sentinel floating literals",
       RuleFloatEq},
      {"finite-boundary",
       "SolveLp/SolveEbf definitions must LUBT_DCHECK_FINITE their results",
       RuleFiniteBoundary},
      {"include-guard", "headers carry canonical LUBT_<PATH>_H_ guards",
       RuleIncludeGuard},
      {"using-namespace",
       "no using-directives in headers; no `using namespace std` anywhere",
       RuleUsingNamespace},
      {"bare-mutex",
       "std::mutex family only via the annotated check/mutex.h wrappers",
       RuleBareMutex},
      {"serve-raw-io",
       "src/serve/ uses framing helpers, never raw read/write/send/recv",
       RuleServeRawIo},
      {"hot-loop-alloc",
       "src/lp/ + src/geom/ + src/search/ steady-state kernels never touch "
       "the heap",
       RuleHotLoopAlloc},
      {"lazy-loop",
       "src/eco/ + src/search/ solve LPs only through SolveWithLazyRows",
       RuleLazyLoop},
  };
  return kRules;
}

}  // namespace lubt::lint
