// webcc_lint: project-specific static checks for webcc invariants.
//
// v2 is a real (if small) analyzer: a C++ tokenizer (tokenizer.h) feeds a
// lightweight declaration/scope parser (scopes.h), and the rules run as
// passes over the resulting model (passes/). No LLVM dependency — the
// point is that the semantic checks run on every toolchain in CI,
// including the GCC leg that -Wthread-safety cannot cover.
//
// Token-level rules (same ids and pragmas as the v1 line scanner):
//
//   determinism-clock       no rand()/time()/std::random_device/wall-clock
//                           reads in deterministic replay code — stochastic
//                           behavior must come from fault::Random / seeded
//                           util::Rng, and time from the simulated clock.
//                           (src/live, src/cli and src/util are exempt:
//                           the live stack runs on real wall clocks.)
//   unordered-iter-in-dump  no iteration over unordered containers inside
//                           Dump/Snapshot/Serialize/Digest/Export/ToJson/
//                           WriteJson functions — output paths must be
//                           byte-stable, so they iterate sorted containers
//                           or sort before writing.
//   raw-mutex               no raw <mutex>/<condition_variable> primitives
//                           outside util/thread_annotations.h — unannotated
//                           locks are invisible to -Wthread-safety, which
//                           silently exempts whatever they guard.
//   enum-switch-default     no `default:` in a switch over a protocol/lease
//                           enum — spell every enumerator so -Wswitch turns
//                           a forgotten case into a compile warning.
//   naked-send              no direct ::send/::recv/::write/::read syscalls
//                           outside live/socket.cc — live I/O must flow
//                           through the classified IoError path (short
//                           writes, EAGAIN resume, peer-reset vs timeout).
//   scan-prune              no iteration-erase prune loops over lease state
//                           outside core/timer_wheel.h and core/site_list.h
//                           — expiry must be indexed through the timer
//                           wheel so pruning stays O(expired).
//   naked-evict             no hand-rolled byte-budget eviction outside
//                           src/http/eviction/ and the proxy cache — victim
//                           choice belongs to ProxyCache::PickVictim.
//
// Semantic passes (new in v2; findings carry witness chains):
//
//   guarded-by-unlocked     every access to a WEBCC_GUARDED_BY field must
//                           hold the declared mutex — via a util::MutexLock
//                           in an enclosing scope or a WEBCC_REQUIRES
//                           contract on the function. Whole-program: the
//                           header's annotations check the .cc's methods.
//   lock-order-cycle        the acquired-before graph over every nested
//                           MutexLock pair (plus WEBCC_ACQUIRED_BEFORE
//                           declarations) must be acyclic; a cycle is
//                           reported with the file:line of every edge.
//   determinism-taint       values produced by iterating an unordered
//                           container must not reach TraceSink::Emit or a
//                           live send without an intervening std::sort.
//   stale-suppression       (warning) every allow()/allow-file() pragma
//                           must still fire; dead pragmas rot into silent
//                           exemptions. --strict-suppressions makes these
//                           fatal.
//
// Suppressions: `// webcc-lint: allow(<rule>)` on the offending line or the
// line directly above silences one finding; `// webcc-lint:
// allow-file(<rule>)` anywhere in a file silences the rule file-wide. Every
// suppression should carry a justification after an em-dash or colon.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace webcc::lint {

// One step of the evidence for a semantic finding — e.g. each edge of a
// lock-order cycle, or the declaration a guarded-field access violates.
struct WitnessStep {
  std::string file;
  int line = 0;
  std::string note;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string pass = "scanner";     // which pass produced it
  std::string severity = "error";   // "error" or "warning"
  std::vector<WitnessStep> witness;
};

// All rule ids, in report order (stable; tests and CI grep these).
std::vector<std::string_view> RuleIds();

// Lints one file's contents. `path` decides rule scoping (e.g. src/live is
// exempt from determinism-clock) and is copied into findings verbatim.
// Whole-program passes see only this file's facts; use LintPaths to merge
// annotations across translation units.
std::vector<Finding> LintFile(std::string_view path, std::string_view text);

// Loads and lints every .cc/.h file under `paths` (files or directories,
// recursed in sorted order so output is deterministic), in two phases:
// annotation facts and the acquired-before graph are merged across all
// files before any file's passes run. I/O errors append to `errors`.
std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               std::vector<std::string>& errors);

// Renders findings, one per line (witness steps indented under human
// findings, nested as an array under json ones):
//   human:  <file>:<line>: [<rule>] <message>
//   json:   {"file":"...","line":N,"rule":"...","severity":"...",
//            "pass":"...","message":"...","witness":[...]}
// JSON strings are escaped (quotes, backslashes, control characters).
void WriteFindings(std::ostream& out, const std::vector<Finding>& findings,
                   bool json);

// Full CLI: returns the process exit code (0 = clean, 1 = findings,
// 2 = usage or I/O error). `argv` excludes the program name. Warnings
// (stale-suppression) print but exit 0 unless --strict-suppressions.
int RunLintMain(const std::vector<std::string>& argv, std::ostream& out,
                std::ostream& err);

}  // namespace webcc::lint
