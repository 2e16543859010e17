// extract — the function/scope/call extractor behind rahooi_analyze's pass 1
// (DESIGN.md §14). Walks a token stream and produces one FunctionSummary per
// function *definition*: every fact pass 2 needs to reason about SPMD
// collective schedules, lock order, and RAII-guard lifetimes across
// translation units.
//
// What is tracked per function body:
//
//   * rank-dependent control flow — if/while/for conditions mentioning a
//     rank marker (`rank()`, `rank_`, `world_rank`, `comm_rank`, `is_root`,
//     `my_rank`, or a local variable tainted by one). A ternary on rank is
//     NOT control flow (the replicated-verdict `bcast(&yield,...)` idiom);
//     a variable whose address is handed to a collective is *untainted*,
//     because the collective replicates it. `return`/`throw`/`break`/
//     `continue` under a rank branch makes the rest of the function
//     rank-dependent (the schedule tail differs by rank).
//   * live prof::TraceSpan locals, by scope depth.
//   * lock-guard lifetimes — std::lock_guard / unique_lock / scoped_lock /
//     shared_lock locals; the canonical lock name is the normalized first
//     constructor argument (`->` folded to `.`), prefixed with the enclosing
//     class when it is a bare member. Explicit `g.unlock()` / `g.lock()` on
//     a guard local is modeled, as is `std::defer_lock`.
//   * condition-variable waits — `cv.wait(guard, ...)` where `guard` is a
//     live lock-guard local, with the full held-lock set at the wait.
//   * collective uses — receiver calls naming a collective_methods() entry,
//     with rank-dependence, span-liveness, and held locks at the site.
//   * call sites — resolvable callee names (bare + qualifier as written),
//     with the same context, plus whether the call result is discarded at
//     statement position (for the cross-TU guard-discard rule).
//   * direct guard-type temporaries discarded at statement position.
//
// Per file it also records the classes that declare a prof::TraceSpan data
// member: their member functions run under that span for the object's
// whole lifetime (span-chain's RAII-member case, e.g. SolveSession::root_).
//
// There is no preprocessing and no name lookup: this is a deliberately
// conservative token-level model, tuned against the real tree (see the
// clean-run ctest `analyze_repo`).

#ifndef RAHOOI_TOOLS_ANALYZE_EXTRACT_HPP
#define RAHOOI_TOOLS_ANALYZE_EXTRACT_HPP

#include <set>
#include <string>
#include <vector>

#include "analyze_core/analyze_core.hpp"

namespace analyze {

struct CollectiveUse {
  std::string op;  ///< e.g. "bcast"
  int line = 0;
  bool under_rank = false;  ///< inside rank-dependent control flow
  bool live_span = false;   ///< a named prof::TraceSpan is live here
  std::vector<std::string> held;  ///< locks held at the site
};

struct CallSite {
  std::string name;  ///< bare callee name
  std::string qual;  ///< qualifier chain as written ("serve::detail", "Scheduler") or ""
  int line = 0;
  bool under_rank = false;
  bool live_span = false;
  bool discarded_stmt = false;  ///< whole statement is `call(...);`
  std::vector<std::string> held;
};

struct LockAcq {
  std::string lock;  ///< canonical lock name
  int line = 0;
  std::vector<std::string> held;  ///< locks already held at acquisition
};

struct CvWait {
  std::string lock;  ///< the guard handed to wait()
  int line = 0;
  std::vector<std::string> held;  ///< all locks held at the wait
};

struct GuardDiscard {
  std::string type;  ///< guard type named by the discarded temporary
  int line = 0;
};

struct FunctionSummary {
  std::string name;   ///< scope-qualified, e.g. "serve::Scheduler::worker_loop"
  std::string bare;   ///< last component, e.g. "worker_loop"
  std::string file;   ///< root-relative path
  std::string cls;    ///< enclosing class, "" for free functions
  int line = 0;
  bool returns_guard = false;  ///< declared return type is a guard type
  std::vector<CollectiveUse> collectives;
  std::vector<CallSite> calls;
  std::vector<LockAcq> locks;
  std::vector<CvWait> waits;
  std::vector<GuardDiscard> discards;
};

/// Extracts all function definitions (and guard-returning declarations) from
/// a tokenized file. `rel` is the root-relative path recorded on each
/// summary; classes with a TraceSpan data member are added to
/// `span_classes`.
std::vector<FunctionSummary> extract(const FileSource& f,
                                     const std::string& rel,
                                     std::set<std::string>& span_classes);

}  // namespace analyze

#endif  // RAHOOI_TOOLS_ANALYZE_EXTRACT_HPP
