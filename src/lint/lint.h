// lubt_lint: static enforcement of project contracts the compiler can't see.
//
// The repo rests on contracts that clang/gcc have no concept of — bitwise
// batch determinism, Result<T> access discipline, LUBT_DCHECK_FINITE at the
// solver boundary — and that until now were enforced only dynamically, by
// randomized oracles sampling a sliver of the input space. This library is
// the static leg: a tokenizer (lint/tokenizer.h) plus per-rule scanners
// (lint/rules.cpp) that walk the source tree and fail the build on any
// violation, gated as a zero-findings stage in tools/check.sh and as a
// ctest over the real tree.
//
// Rule catalog (DESIGN.md section 14 documents each in depth):
//   unchecked-result     .value() with no prior .ok()/.has_value() guard
//   nondeterminism       rand()/time()/random_device/pointer-to-int casts
//   unordered-iteration  range-for over unordered_{map,set} (order leaks)
//   float-eq             ==/!= against non-sentinel floating literals
//   finite-boundary      SolveLp/SolveEbf must LUBT_DCHECK_FINITE results
//   include-guard        src/ headers carry canonical LUBT_*_H_ guards
//   using-namespace      no `using namespace` in headers
//   bare-mutex           std::mutex family outside check/mutex.h wrappers
//   serve-raw-io         raw read/write/send/recv in src/serve/ outside the
//                        framing layer (partial-I/O and SIGPIPE hazards)
//   hot-loop-alloc       heap traffic inside steady-state kernels
//   lazy-loop            SolveLp() in src/eco/ or src/search/ (one lazy loop)
//
// Suppression: `// lubt-lint: allow(rule)` — or `allow(rule-a, rule-b)` —
// on the offending line or on the line directly above it. Suppressions name
// rules explicitly so a grep for `lubt-lint:` audits every waiver.
//
// Findings are deterministic: sorted by (file, line, rule) and derived only
// from file contents, never from traversal order or wall clock — the linter
// holds itself to the contracts it enforces.

#ifndef LUBT_LINT_LINT_H_
#define LUBT_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "lint/tokenizer.h"
#include "util/status.h"

namespace lubt::lint {

/// One rule violation.
struct Finding {
  std::string rule;
  std::string file;  ///< path as given to the linter
  int line = 0;      ///< 1-based
  std::string message;
};

/// Everything a rule scanner sees about one file.
struct FileContext {
  std::string path;                 ///< path as given
  std::vector<std::string> parts;   ///< path components ("src", "lp", ...)
  bool is_header = false;           ///< .h / .hpp
  const std::vector<std::string>* lines = nullptr;  ///< raw source lines
  const TokenStream* stream = nullptr;

  /// Path components relative to the repo's src/ root: for
  /// ".../src/lp/model.h" this is {"lp", "model.h"}; for paths outside a
  /// src/ directory (bench/, tools/) it is the components from that root.
  std::vector<std::string> rel;
};

/// One registered rule: a stable name (used in suppressions and --list-rules)
/// plus the scanner that appends findings.
struct Rule {
  const char* name;
  const char* summary;
  void (*run)(const FileContext&, std::vector<Finding>*);
};

/// The rule registry, in catalog order. Names are unique.
const std::vector<Rule>& Rules();

/// Lint one in-memory file (the unit-test entry point). `path` drives the
/// path-aware rules (include-guard, bare-mutex exemption) exactly as it
/// would for a real file. Findings come back sorted and suppressed.
std::vector<Finding> LintText(std::string_view path, std::string_view text);

/// Lint one file from disk.
Result<std::vector<Finding>> LintFile(const std::string& path);

/// Lint every C++ source under the given files/directories (recursing into
/// directories in sorted order). Fails on unreadable paths.
Result<std::vector<Finding>> LintPaths(const std::vector<std::string>& paths,
                                       int* files_scanned = nullptr);

/// "file:line: [rule] message" lines, one per finding.
std::string FormatText(const std::vector<Finding>& findings);

/// Machine-readable report: {"version":1,"count":N,"findings":[...]}.
std::string FormatJson(const std::vector<Finding>& findings);

}  // namespace lubt::lint

#endif  // LUBT_LINT_LINT_H_
