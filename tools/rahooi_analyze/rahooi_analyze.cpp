// rahooi_analyze — the project's static checker (DESIGN.md §14,
// docs/STATIC_ANALYSIS.md): invariants that neither the compiler nor -Wall
// can see, checked over the tokens tools/analyze_core produces (comments,
// literals and preprocessor lines handled; no preprocessing or name lookup).
// Rules come in two kinds, listed in one registry (kRules below):
//
//   per-file       run on each file's token stream on its own: banned
//                  tokens, the throw taxonomy, include order, temp paths.
//   whole-program  pass 1 extracts one FunctionSummary per function
//                  definition: collectives used, rank-dependent control
//                  flow, lock acquisitions (with the held set), cv-waits,
//                  TraceSpan liveness, call sites, discarded guard
//                  temporaries. Pass 2 links the summaries through a
//                  name-resolution index and propagates them to a fixpoint
//                  over the call graph; rules fire on the propagated facts.
//
// Suppression: `// rahooi-analyze: allow(rule: reason)` on the finding's
// line or the line above. The reason is mandatory; suppressions are counted
// and listed in the JSON output so they stay visible.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
//   rahooi_analyze --root <repo-root> [--json <file>] <dir-or-file>...
//   rahooi_analyze --self-test <fixture-root>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analyze_core/analyze_core.hpp"
#include "analyze_core/extract.hpp"

namespace {

namespace fs = std::filesystem;
using analyze::after_matching_paren;
using analyze::AllowDirective;
using analyze::CallSite;
using analyze::CollectiveUse;
using analyze::CvWait;
using analyze::FunctionSummary;
using analyze::LockAcq;
using analyze::Token;
using analyze::TokKind;

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// True when root-relative `rel` lies in `scope`: a space-separated list of
/// path prefixes, where a prefix written with a leading '-' excludes. An
/// empty list of (non-excluding) prefixes covers every file.
bool in_scope(std::string_view scope, std::string_view rel) {
  bool any_include = false;
  bool included = false;
  while (!scope.empty()) {
    const std::size_t sp = scope.find(' ');
    const std::string_view prefix = scope.substr(0, sp);
    scope = sp == std::string_view::npos ? "" : scope.substr(sp + 1);
    if (starts_with(prefix, "-")) {
      if (starts_with(rel, prefix.substr(1))) return false;
    } else if (!prefix.empty()) {
      any_include = true;
      included = included || starts_with(rel, prefix);
    }
  }
  return included || !any_include;
}

struct Rule {
  const char* name;
  const char* scope;  ///< files the rule reports in (see in_scope)
};

/// The rule registry. A finding outside its rule's scope is dropped.
constexpr Rule kRules[] = {
    // Library code must not write to the process streams (cout, cerr,
    // printf): it runs replicated on every rank. Use std::fprintf(stderr,
    // ...) at designated report sites and snprintf for formatting.
    {"no-cout", "src/"},
    // rand()/srand(): randomness goes through the counter-based
    // rahooi::rng so runs stay deterministic and rank-reproducible.
    {"no-rand", "src/"},
    // Naked new/delete expressions (operator-new allocator implementations
    // and `= delete` declarations are fine): ownership goes through
    // containers and smart pointers.
    {"no-naked-new", "src/"},
    // Sleeping: delays belong to fault injection only; anywhere else they
    // hide real schedule hazards.
    {"no-sleep", "src/ -src/fault/"},
    // std::chrono::steady_clock outside the sanctioned clock sites: timing
    // goes through stats::now() so prof spans and metrics histograms share
    // one clock and stay comparable.
    {"raw-steady-clock",
     "src/ -src/prof/ -src/metrics/ -src/common/stats.cpp"},
    // Every `throw` uses the rahooi error taxonomy (comm/errors.hpp,
    // common/contracts.hpp, core/checkpoint.hpp, fault/fault.hpp) so
    // Runtime::run failure classification stays exhaustive.
    {"throw-taxonomy", "src/ bench/ examples/"},
    // `catch (comm::CommError)` lexically inside a loop is a hand-rolled
    // retry: unbounded, unjittered and uncounted. Retries go through
    // fault::with_retry or the serve scheduler's RetryPolicy.
    {"raw-retry-loop", "src/ -src/fault/"},
    // A .cpp with a same-stem sibling header includes it first, which
    // proves the header is self-contained.
    {"include-order", "src/ bench/ examples/"},
    // A std::ofstream aimed at a status/exposition path: those files have
    // concurrent readers, so publishes go through obs::write_atomic
    // (tmp+rename) and a scraper never reads a torn file.
    {"raw-status-write", "src/ -src/obs/"},
    // `TempDir() + "name"`: the suite is built into two binaries that a
    // parallel ctest runs at once, so temp paths carry the pid; build them
    // with unique_tmp_path(name).
    {"test-tmp-path", "tests/ -tests/test_util.hpp"},
    // A collective reachable under rank-dependent control flow, directly or
    // through a call chain: the `if (rank == 0) bcast` divergent-schedule
    // bug.
    {"spmd-divergence", "src/core/ src/dist/ src/comm/"},
    // A cycle (or self-edge) in the global lock-order graph, built from
    // nested acquisitions and calls made while holding a lock into
    // functions that (transitively) acquire more locks.
    {"lock-cycle", "src/"},
    // A condition-variable wait while holding a second lock: the waited
    // lock is released, the second is not, starving its other users.
    {"cv-wait-held-lock", "src/serve/ src/comm/ src/metrics/ src/fault/"},
    // A collective reached with no live prof::TraceSpan, directly or
    // anywhere on the call path, so watchdog and schedule-divergence
    // reports would have no span path. A lexically live span covers a
    // call, and so does a TraceSpan data member of the function's class.
    {"span-chain", "src/core/ src/dist/"},
    // An RAII guard (TraceSpan, CollectiveScope, lock_guard, ...)
    // constructed as a discarded temporary, or a discarded call to a
    // guard-returning function: the guarded region collapses to nothing.
    {"guard-discard", "src/ bench/ examples/"},
    // An allow directive with an empty reason or an unknown rule name.
    {"allow-syntax", ""},
};

const Rule* find_rule(std::string_view name) {
  for (const Rule& r : kRules) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

/// Calls resolve only to functions defined in library code: tests, benches
/// and examples reuse short helper names, and bare-name resolution would
/// bind library calls to them.
constexpr std::string_view kCallees = "src/";

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string function;
  std::string message;
  std::vector<std::string> chain = {};
  bool suppressed = false;
  std::string reason = {};  ///< the allow reason when suppressed
};

struct Analysis {
  std::vector<FunctionSummary> fns;
  std::map<std::string, std::vector<AllowDirective>> allows;  // by rel path
  std::vector<Finding> file_findings;  // from the per-file rules
  std::set<std::string> span_classes;  // classes with a TraceSpan member
  std::size_t file_count = 0;

  // Name-resolution index and per-call resolution (computed once).
  std::map<std::string, std::vector<int>> by_bare;
  std::vector<std::vector<std::vector<int>>> resolved;  // [fn][call] -> fns

  // Propagated facts (fixpoint over the call graph) + one witness each for
  // chain reconstruction: via_call = call index in the function (or -1 for
  // a direct fact), via_callee = resolved callee, direct = site index.
  struct Fact {
    std::vector<char> on;
    std::vector<int> via_call, via_callee, direct;
    void init(std::size_t n) {
      on.assign(n, 0);
      via_call.assign(n, -1);
      via_callee.assign(n, -1);
      direct.assign(n, -1);
    }
  };
  Fact may_collective;  // reaches any collective
  Fact exposed;         // reaches a collective with no span on the path
  Fact has_wait;        // reaches a cv-wait
  std::vector<std::set<std::string>> acq;  // transitively acquired locks

  /// The function's class holds a live TraceSpan member while it runs.
  bool member_span(const FunctionSummary& f) const {
    return !f.cls.empty() && span_classes.count(f.cls) != 0;
  }
};

std::vector<int> resolve_call(const Analysis& a, const CallSite& c) {
  const auto it = a.by_bare.find(c.name);
  if (it == a.by_bare.end()) return {};
  if (c.qual.empty()) return it->second;
  const std::string target = c.qual + "::" + c.name;
  std::vector<int> out;
  for (const int idx : it->second) {
    const std::string& full = a.fns[idx].name;
    if (full == target ||
        (full.size() > target.size() + 2 &&
         full.compare(full.size() - target.size() - 2, std::string::npos,
                      "::" + target) == 0)) {
      out.push_back(idx);
    }
  }
  return out;
}

void build_index(Analysis& a) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    if (in_scope(kCallees, a.fns[i].file)) {
      a.by_bare[a.fns[i].bare].push_back(static_cast<int>(i));
    }
  }
  a.resolved.resize(a.fns.size());
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    a.resolved[i].reserve(a.fns[i].calls.size());
    for (const CallSite& c : a.fns[i].calls) {
      a.resolved[i].push_back(resolve_call(a, c));
    }
  }
}

void run_fixpoints(Analysis& a) {
  const std::size_t n = a.fns.size();
  a.may_collective.init(n);
  a.exposed.init(n);
  a.has_wait.init(n);
  a.acq.assign(n, {});

  // Seed with direct facts.
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionSummary& f = a.fns[i];
    for (std::size_t k = 0; k < f.collectives.size(); ++k) {
      if (!a.may_collective.on[i]) {
        a.may_collective.on[i] = 1;
        a.may_collective.direct[i] = static_cast<int>(k);
      }
      if (!f.collectives[k].live_span && !a.member_span(f) &&
          !a.exposed.on[i]) {
        a.exposed.on[i] = 1;
        a.exposed.direct[i] = static_cast<int>(k);
      }
    }
    if (!f.waits.empty()) {
      a.has_wait.on[i] = 1;
      a.has_wait.direct[i] = 0;
    }
    for (const LockAcq& l : f.locks) a.acq[i].insert(l.lock);
  }

  // Propagate to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < a.fns[i].calls.size(); ++c) {
        const CallSite& call = a.fns[i].calls[c];
        for (const int j : a.resolved[i][c]) {
          if (a.may_collective.on[j] && !a.may_collective.on[i]) {
            a.may_collective.on[i] = 1;
            a.may_collective.via_call[i] = static_cast<int>(c);
            a.may_collective.via_callee[i] = j;
            changed = true;
          }
          if (a.exposed.on[j] && !call.live_span &&
              !a.member_span(a.fns[i]) && !a.exposed.on[i]) {
            a.exposed.on[i] = 1;
            a.exposed.via_call[i] = static_cast<int>(c);
            a.exposed.via_callee[i] = j;
            changed = true;
          }
          if (a.has_wait.on[j] && !a.has_wait.on[i]) {
            a.has_wait.on[i] = 1;
            a.has_wait.via_call[i] = static_cast<int>(c);
            a.has_wait.via_callee[i] = j;
            changed = true;
          }
          for (const std::string& l : a.acq[j]) {
            if (a.acq[i].insert(l).second) changed = true;
          }
        }
      }
    }
  }
}

std::string site(const FunctionSummary& f, int line) {
  return f.name + " (" + f.file + ":" + std::to_string(line) + ")";
}

/// Reconstructs the witness chain for a propagated fact starting at fn i.
std::vector<std::string> trace_chain(const Analysis& a,
                                     const Analysis::Fact& fact, int i) {
  std::vector<std::string> out;
  int cur = i;
  int guard = 0;
  while (cur >= 0 && ++guard < 64) {
    const FunctionSummary& f = a.fns[cur];
    if (fact.direct[cur] >= 0) {
      if (&fact == &a.has_wait) {
        const CvWait& w = f.waits.front();
        out.push_back("cv-wait on " + w.lock + " in " + site(f, w.line));
      } else {
        const CollectiveUse& u =
            f.collectives[static_cast<std::size_t>(fact.direct[cur])];
        out.push_back("collective " + u.op + "() in " + site(f, u.line));
      }
      break;
    }
    const int c = fact.via_call[cur];
    if (c < 0) break;
    const CallSite& call = f.calls[static_cast<std::size_t>(c)];
    out.push_back("call " + call.name + "() in " + site(f, call.line));
    cur = fact.via_callee[cur];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void rule_spmd(const Analysis& a, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    for (const CollectiveUse& u : f.collectives) {
      if (!u.under_rank) continue;
      out.push_back(Finding{
          "spmd-divergence", f.file, u.line, f.name,
          "collective " + u.op +
              "() invoked under rank-dependent control flow; every rank "
              "must issue an identical collective schedule (replicate the "
              "verdict with a bcast/allreduce first)",
          {}});
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (!call.under_rank) continue;
      for (const int j : a.resolved[i][c]) {
        if (!a.may_collective.on[j]) continue;
        Finding fd{"spmd-divergence", f.file, call.line, f.name,
                   "call to " + call.name +
                       "() under rank-dependent control flow reaches a "
                       "collective; the schedule diverges across ranks",
                   trace_chain(a, a.may_collective, j)};
        out.push_back(std::move(fd));
        break;
      }
    }
  }
}

void rule_lock_cycle(const Analysis& a, std::vector<Finding>& out) {
  struct Edge {
    std::string file;
    int line = 0;
    std::string fn;
    std::string note;
  };
  std::map<std::pair<std::string, std::string>, Edge> edges;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const FunctionSummary& f, int line,
                            std::string note) {
    edges.emplace(std::make_pair(from, to),
                  Edge{f.file, line, f.name, std::move(note)});
  };

  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    for (const LockAcq& l : f.locks) {
      for (const std::string& h : l.held) {
        if (h != l.lock) add_edge(h, l.lock, f, l.line, "direct acquisition");
      }
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (call.held.empty()) continue;
      for (const int j : a.resolved[i][c]) {
        for (const std::string& l : a.acq[j]) {
          for (const std::string& h : call.held) {
            if (h == l) {
              out.push_back(Finding{
                  "lock-cycle", f.file, call.line, f.name,
                  "call to " + call.name + "() while holding " + h +
                      " reaches a second acquisition of " + h +
                      " (self-deadlock on a non-recursive mutex)",
                  {"via " + a.fns[j].name + " (" + a.fns[j].file + ")"}});
            } else {
              add_edge(h, l, f, call.line,
                       "via call to " + a.fns[j].name);
            }
          }
        }
      }
    }
  }

  // Cycle detection over the deduplicated edge set.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [k, e] : edges) adj[k.first].push_back(k.second);
  std::set<std::string> done;
  std::set<std::string> reported;
  for (const auto& [start, _] : adj) {
    if (done.count(start) != 0) continue;
    std::vector<std::string> path;
    std::set<std::string> on_path;
    const std::function<void(const std::string&)> dfs =
        [&](const std::string& u) {
          path.push_back(u);
          on_path.insert(u);
          const auto it = adj.find(u);
          if (it != adj.end()) {
            for (const std::string& v : it->second) {
              if (on_path.count(v) != 0) {
                // Reconstruct the cycle v -> ... -> u -> v.
                std::vector<std::string> cyc(
                    std::find(path.begin(), path.end(), v), path.end());
                std::vector<std::string> canon = cyc;
                std::sort(canon.begin(), canon.end());
                std::string key;
                for (const std::string& s : canon) key += s + "|";
                if (reported.insert(key).second) {
                  std::vector<std::string> chain;
                  for (std::size_t k = 0; k < cyc.size(); ++k) {
                    const auto& from = cyc[k];
                    const auto& to = cyc[(k + 1) % cyc.size()];
                    const Edge& e = edges.at({from, to});
                    chain.push_back(from + " -> " + to + " at " + e.file +
                                    ":" + std::to_string(e.line) + " in " +
                                    e.fn + " (" + e.note + ")");
                  }
                  const Edge& first = edges.at({cyc[0], cyc[1 % cyc.size()]});
                  out.push_back(Finding{
                      "lock-cycle", first.file, first.line, first.fn,
                      "lock-order cycle through " +
                          std::to_string(cyc.size()) +
                          " lock(s); acquisitions in this order can "
                          "deadlock",
                      std::move(chain)});
                }
              } else if (done.count(v) == 0) {
                dfs(v);
              }
            }
          }
          on_path.erase(u);
          path.pop_back();
          done.insert(u);
        };
    dfs(start);
  }
}

void rule_cv_wait(const Analysis& a, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    for (const CvWait& w : f.waits) {
      if (w.held.size() < 2) continue;
      std::string others;
      for (const std::string& h : w.held) {
        if (h == w.lock) continue;
        if (!others.empty()) others += ", ";
        others += h;
      }
      out.push_back(Finding{
          "cv-wait-held-lock", f.file, w.line, f.name,
          "cv-wait releases " + w.lock + " but still holds " + others +
              "; every thread needing that lock starves until the wake-up",
          {}});
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (call.held.empty()) continue;
      for (const int j : a.resolved[i][c]) {
        if (!a.has_wait.on[j]) continue;
        std::string held;
        for (const std::string& h : call.held) {
          if (!held.empty()) held += ", ";
          held += h;
        }
        out.push_back(Finding{
            "cv-wait-held-lock", f.file, call.line, f.name,
            "call to " + call.name + "() while holding " + held +
                " reaches a cv-wait; the held lock is not released across "
                "the wait",
            trace_chain(a, a.has_wait, j)});
        break;
      }
    }
  }
}

void rule_span_chain(const Analysis& a, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    if (a.member_span(f)) continue;
    for (const CollectiveUse& u : f.collectives) {
      if (u.live_span) continue;
      out.push_back(Finding{
          "span-chain", f.file, u.line, f.name,
          "collective " + u.op +
              "() invoked without a live prof::TraceSpan in an enclosing "
              "scope; watchdog and schedule-divergence reports would have "
              "no span path"});
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (call.live_span) continue;
      for (const int j : a.resolved[i][c]) {
        if (!a.exposed.on[j]) continue;
        out.push_back(Finding{
            "span-chain", f.file, call.line, f.name,
            "call to " + call.name +
                "() reaches a collective with no live prof::TraceSpan "
                "anywhere on the path; watchdog and divergence reports "
                "would have no span path",
            trace_chain(a, a.exposed, j)});
        break;
      }
    }
  }
}

void rule_guard_discard(const Analysis& a, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    for (const auto& d : f.discards) {
      out.push_back(Finding{
          "guard-discard", f.file, d.line, f.name,
          d.type +
              " temporary is destroyed immediately; bind it to a named "
              "local so the guarded region outlives the statement",
          {}});
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (!call.discarded_stmt) continue;
      for (const int j : a.resolved[i][c]) {
        if (!a.fns[j].returns_guard) continue;
        out.push_back(Finding{
            "guard-discard", f.file, call.line, f.name,
            "discarded result of " + call.name + "() — " + a.fns[j].name +
                " returns an RAII guard; the guarded region collapses to "
                "this statement",
            {a.fns[j].name + " declared at " + a.fns[j].file + ":" +
             std::to_string(a.fns[j].line)}});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

void file_rules(const analyze::FileSource& f, const fs::path& real,
                const std::string& rel, std::vector<Finding>& out) {
  const std::vector<Token>& t = f.tokens;
  const auto add = [&](int line, const char* rule, std::string msg) {
    out.push_back(Finding{rule, rel, line, "", std::move(msg)});
  };

  int depth = 0;                      // brace depth
  std::vector<int> loop_body_depths;  // depths of open for/while/do bodies
  std::set<std::size_t> loop_brace_idx;  // token indices of loop-body `{`

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    const auto prev_text = [&](std::size_t back) -> std::string_view {
      return i >= back ? std::string_view(t[i - back].text)
                       : std::string_view();
    };
    const auto next_text = [&](std::size_t fwd) -> std::string_view {
      return i + fwd < t.size() ? std::string_view(t[i + fwd].text)
                                : std::string_view();
    };

    if (tok.text == "{") {
      ++depth;
      if (loop_brace_idx.count(i) != 0) loop_body_depths.push_back(depth);
    }
    if (tok.text == "}") {
      --depth;
      while (!loop_body_depths.empty() && loop_body_depths.back() > depth) {
        loop_body_depths.pop_back();
      }
    }

    if (tok.kind != TokKind::ident) continue;

    // Mark the body brace of `for (...) {` / `while (...) {` / `do {` so the
    // raw-retry-loop rule knows when a token sits lexically inside a loop.
    if ((tok.text == "for" || tok.text == "while") && next_text(1) == "(") {
      const std::size_t after = after_matching_paren(t, i + 1);
      if (after < t.size() && t[after].text == "{") loop_brace_idx.insert(after);
    }
    if (tok.text == "do" && next_text(1) == "{") loop_brace_idx.insert(i + 1);

    if (tok.text == "cout" || tok.text == "cerr" || tok.text == "printf") {
      add(tok.line, "no-cout",
          "library code must not write to process streams with " + tok.text +
              " (use std::fprintf(stderr, ...) at designated report sites)");
    } else if ((tok.text == "rand" || tok.text == "srand") &&
               next_text(1) == "(") {
      add(tok.line, "no-rand",
          tok.text + "() breaks deterministic replay; use rahooi::rng");
    } else if (tok.text == "new" && prev_text(1) != "operator") {
      add(tok.line, "no-naked-new",
          "naked new expression; use containers or smart pointers");
    } else if (tok.text == "delete" && prev_text(1) != "operator" &&
               prev_text(1) != "=") {
      add(tok.line, "no-naked-new",
          "naked delete expression; use containers or smart pointers");
    } else if (tok.text == "sleep" || tok.text == "usleep" ||
               tok.text == "nanosleep" || tok.text == "sleep_for" ||
               tok.text == "sleep_until" || tok.text == "sleep_ms") {
      add(tok.line, "no-sleep",
          "sleeping outside src/fault hides real schedule hazards");
    } else if (tok.text == "steady_clock") {
      add(tok.line, "raw-steady-clock",
          "raw std::chrono::steady_clock in library code; call stats::now() "
          "(common/stats.hpp) so prof spans and metrics histograms share "
          "one clock");
    } else if (tok.text == "throw" && next_text(1) != ";") {
      // Walk the qualified-id after `throw`; the last identifier before the
      // constructor call must be a taxonomy type.
      std::size_t j = i + 1;
      std::string last_ident;
      while (j < t.size() &&
             (t[j].kind == TokKind::ident || t[j].text == "::")) {
        if (t[j].kind == TokKind::ident) last_ident = t[j].text;
        ++j;
      }
      if (analyze::taxonomy_types().count(last_ident) == 0) {
        add(tok.line, "throw-taxonomy",
            "throw site must use the rahooi error taxonomy "
            "(comm/errors.hpp et al.), got: " +
                (last_ident.empty() ? std::string("<expression>")
                                    : last_ident));
      }
    } else if (tok.text == "catch" && next_text(1) == "(" &&
               !loop_body_depths.empty()) {
      const std::size_t after = after_matching_paren(t, i + 1);
      for (std::size_t j = i + 2; j < after; ++j) {
        if (t[j].text == "CommError") {
          add(tok.line, "raw-retry-loop",
              "hand-rolled retry: catch of comm::CommError inside a loop; "
              "route retries through fault::with_retry (bounded, "
              "deterministic, counted) or serve::RetryPolicy");
          break;
        }
      }
    } else if (tok.text == "ofstream") {
      // Scan the declaration statement for a status/exposition name.
      for (std::size_t j = i + 1; j < t.size() && t[j].text != ";"; ++j) {
        if (t[j].kind != TokKind::ident) continue;
        std::string lower = t[j].text;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (lower.find("status") != std::string::npos ||
            lower.find("exposition") != std::string::npos ||
            lower.find("prom") != std::string::npos) {
          add(tok.line, "raw-status-write",
              "direct std::ofstream write to a status/exposition path; "
              "publish through obs::write_atomic (tmp+rename) so a "
              "concurrent scraper never reads a torn file");
          break;
        }
      }
    } else if (tok.text == "TempDir" && next_text(1) == "(" &&
               next_text(2) == ")" && next_text(3) == "+" &&
               i + 4 < t.size() && t[i + 4].kind == TokKind::string) {
      add(tok.line, "test-tmp-path",
          "fixed temp file name; two test binaries run at once under a "
          "parallel ctest, so use unique_tmp_path(name) (tests/test_util.hpp)");
    }
  }

  // include-order: the sibling header is looked up next to the file on
  // disk, and named as the file's root-relative path names it.
  if (real.extension() != ".cpp") return;
  const fs::path sibling = fs::path(real).replace_extension(".hpp");
  std::error_code ec;
  if (!fs::exists(sibling, ec)) return;
  const std::string expect = fs::path(rel).stem().string() + ".hpp";
  if (f.includes.empty()) {
    add(1, "include-order",
        "has sibling header " + expect + " but no includes; include it first");
  } else if (fs::path(f.includes.front().first).filename() != expect) {
    add(f.includes.front().second, "include-order",
        "first include must be the file's own header " + expect + " (got \"" +
            f.includes.front().first + "\")");
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

int load_file(Analysis& a, const fs::path& real, const std::string& rel) {
  std::string src;
  if (!analyze::read_file(real, src)) {
    std::fprintf(stderr, "rahooi_analyze: cannot read %s\n",
                 real.string().c_str());
    return 2;
  }
  analyze::FileSource f = analyze::tokenize(src);
  file_rules(f, real, rel, a.file_findings);
  for (FunctionSummary& fn : analyze::extract(f, rel, a.span_classes)) {
    a.fns.push_back(std::move(fn));
  }
  a.allows[rel] = std::move(f.allows);
  ++a.file_count;
  return 0;
}

std::vector<Finding> run_rules(Analysis& a) {
  build_index(a);
  run_fixpoints(a);
  std::vector<Finding> findings = std::move(a.file_findings);
  rule_spmd(a, findings);
  rule_lock_cycle(a, findings);
  rule_cv_wait(a, findings);
  rule_span_chain(a, findings);
  rule_guard_discard(a, findings);

  // Directive hygiene: reasons are mandatory, rule names must exist.
  for (const auto& [rel, allows] : a.allows) {
    for (const AllowDirective& d : allows) {
      if (d.reason.empty()) {
        findings.push_back(Finding{
            "allow-syntax", rel, d.line, "",
            "allow(" + d.rule +
                ") has no reason; the justification is mandatory "
                "(rahooi-analyze: allow(rule: reason))"});
      } else if (find_rule(d.rule) == nullptr) {
        findings.push_back(Finding{"allow-syntax", rel, d.line, "",
                                   "allow names unknown rule '" + d.rule +
                                       "'"});
      }
    }
  }

  std::erase_if(findings, [](const Finding& fd) {
    return !in_scope(find_rule(fd.rule)->scope, fd.file);
  });

  // Suppression: an unused allow for the rule on the finding's line or the
  // line above.
  for (Finding& fd : findings) {
    auto it = a.allows.find(fd.file);
    if (it == a.allows.end()) continue;
    const std::size_t k = analyze::match_allow(it->second, fd.rule, fd.line);
    if (k != static_cast<std::size_t>(-1)) {
      fd.suppressed = true;
      fd.reason = it->second[k].reason;
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& x, const Finding& y) {
              return std::tie(x.file, x.line, x.rule) <
                     std::tie(y.file, y.line, y.rule);
            });
  return findings;
}

void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& fd : findings) {
    if (fd.suppressed) continue;
    std::fprintf(stderr, "%s:%d: [%s] %s\n", fd.file.c_str(), fd.line,
                 fd.rule.c_str(), fd.message.c_str());
    for (const std::string& link : fd.chain) {
      std::fprintf(stderr, "    %s\n", link.c_str());
    }
  }
}

bool write_json(const fs::path& path, const Analysis& a,
                const std::vector<Finding>& findings) {
  std::ofstream out(path);
  if (!out.good()) return false;
  std::size_t unsup = 0;
  std::size_t sup = 0;
  for (const Finding& fd : findings) (fd.suppressed ? sup : unsup)++;
  out << "{\n  \"tool\": \"rahooi_analyze\",\n";
  out << "  \"files\": " << a.file_count << ",\n";
  out << "  \"functions\": " << a.fns.size() << ",\n";
  out << "  \"finding_count\": " << unsup << ",\n";
  out << "  \"suppressed_count\": " << sup << ",\n";
  const auto emit = [&](const Finding& fd, bool last) {
    out << "    {\"rule\": \"" << analyze::json_escape(fd.rule)
        << "\", \"file\": \"" << analyze::json_escape(fd.file)
        << "\", \"line\": " << fd.line << ", \"function\": \""
        << analyze::json_escape(fd.function) << "\", \"message\": \""
        << analyze::json_escape(fd.message) << "\"";
    if (!fd.chain.empty()) {
      out << ", \"chain\": [";
      for (std::size_t k = 0; k < fd.chain.size(); ++k) {
        out << (k != 0 ? ", " : "") << "\""
            << analyze::json_escape(fd.chain[k]) << "\"";
      }
      out << "]";
    }
    if (fd.suppressed) {
      out << ", \"reason\": \"" << analyze::json_escape(fd.reason) << "\"";
    }
    out << "}" << (last ? "" : ",") << "\n";
  };
  out << "  \"findings\": [\n";
  std::vector<const Finding*> un;
  std::vector<const Finding*> su;
  for (const Finding& fd : findings) {
    (fd.suppressed ? su : un).push_back(&fd);
  }
  for (std::size_t k = 0; k < un.size(); ++k) {
    emit(*un[k], k + 1 == un.size());
  }
  out << "  ],\n  \"suppressed\": [\n";
  for (std::size_t k = 0; k < su.size(); ++k) {
    emit(*su[k], k + 1 == su.size());
  }
  out << "  ]\n}\n";
  return out.good();
}

/// Appends the .cpp/.hpp files under `dir` to `files`. A fixture tree holds
/// seeded violations on purpose; only --self-test reads it.
void add_sources(const fs::path& dir, std::vector<fs::path>& files) {
  for (auto it = fs::recursive_directory_iterator(dir);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && it->path().filename() == "analyze_fixtures") {
      it.disable_recursion_pending();
    }
    const fs::path ext = it->path().extension();
    if (it->is_regular_file() && (ext == ".cpp" || ext == ".hpp")) {
      files.push_back(it->path());
    }
  }
}

int run_analyze(const fs::path& root, const std::vector<std::string>& paths,
                const std::string& json_out) {
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    fs::path full = fs::path(p).is_absolute() ? fs::path(p) : root / p;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      add_sources(full, files);
    } else if (fs::exists(full, ec)) {
      files.push_back(full);
    } else {
      std::fprintf(stderr, "rahooi_analyze: no such path: %s\n",
                   full.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  Analysis a;
  for (const fs::path& file : files) {
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    const std::string rel_str =
        ec ? file.generic_string() : rel.generic_string();
    if (const int rc = load_file(a, file, rel_str); rc != 0) return rc;
  }
  const std::vector<Finding> findings = run_rules(a);

  if (!json_out.empty() && !write_json(json_out, a, findings)) {
    std::fprintf(stderr, "rahooi_analyze: cannot write %s\n",
                 json_out.c_str());
    return 2;
  }
  print_findings(findings);
  std::size_t unsup = 0;
  std::size_t sup = 0;
  for (const Finding& fd : findings) (fd.suppressed ? sup : unsup)++;
  if (unsup != 0) {
    std::fprintf(stderr,
                 "rahooi_analyze: %zu finding(s) (%zu suppressed) across "
                 "%zu file(s), %zu function(s)\n",
                 unsup, sup, a.file_count, a.fns.size());
    return 1;
  }
  std::printf(
      "rahooi_analyze: %zu files, %zu functions clean (%zu suppressed)\n",
      a.file_count, a.fns.size(), sup);
  return 0;
}

/// Fixture self-test: each subdirectory of the fixture root is analyzed as
/// its own mini-tree. `bad_<rule>/` (or `bad_<rule>.<variant>/`) must yield
/// exactly one unsuppressed finding of rule <rule> (underscores map to
/// dashes); `clean*/` must yield none. File names map to tree paths:
/// `core__x.cpp` is analyzed as `src/core/x.cpp`, `tests__x.cpp` as
/// `tests/x.cpp`.
int run_self_test(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "rahooi_analyze: no fixture dir: %s\n",
                 dir.string().c_str());
    return 2;
  }
  std::vector<fs::path> cases;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory()) cases.push_back(entry.path());
  }
  std::sort(cases.begin(), cases.end());

  int checked = 0;
  int failures = 0;
  for (const fs::path& c : cases) {
    const std::string name = c.filename().string();
    Analysis a;
    std::vector<fs::path> files;
    add_sources(c, files);
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      const std::string flat = file.filename().string();
      std::string rel;
      for (std::size_t k = 0; k < flat.size(); ++k) {
        const bool sep = flat.compare(k, 2, "__") == 0;
        rel += sep ? '/' : flat[k];
        k += sep ? 1 : 0;
      }
      if (!starts_with(rel, "tests/")) rel = "src/" + rel;
      if (const int rc = load_file(a, file, rel); rc != 0) return rc;
    }
    const std::vector<Finding> findings = run_rules(a);
    std::vector<const Finding*> unsup;
    for (const Finding& fd : findings) {
      if (!fd.suppressed) unsup.push_back(&fd);
    }

    if (starts_with(name, "bad_")) {
      std::string rule = name.substr(4, name.find('.') - 4);
      std::replace(rule.begin(), rule.end(), '_', '-');
      ++checked;
      if (unsup.size() != 1 || unsup.front()->rule != rule) {
        std::fprintf(stderr,
                     "rahooi_analyze self-test FAIL: %s expected exactly one "
                     "[%s] finding, got %zu:\n",
                     name.c_str(), rule.c_str(), unsup.size());
        print_findings(findings);
        ++failures;
      }
    } else if (starts_with(name, "clean")) {
      ++checked;
      if (!unsup.empty()) {
        std::fprintf(stderr,
                     "rahooi_analyze self-test FAIL: %s expected no "
                     "findings, got %zu:\n",
                     name.c_str(), unsup.size());
        print_findings(findings);
        ++failures;
      }
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "rahooi_analyze self-test FAIL: no fixtures found\n");
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr,
                 "rahooi_analyze self-test: %d of %d fixtures failed\n",
                 failures, checked);
    return 1;
  }
  std::printf("rahooi_analyze self-test: %d fixtures OK\n", checked);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_out;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      return run_self_test(argv[++i]);
    } else if (arg == "--help") {
      std::printf(
          "usage: rahooi_analyze [--root DIR] [--json FILE] "
          "<dir-or-file>...\n"
          "       rahooi_analyze --self-test <fixture-root>\n");
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: rahooi_analyze [--root DIR] [--json FILE] "
                 "<dir-or-file>...\n"
                 "       rahooi_analyze --self-test <fixture-root>\n");
    return 2;
  }
  return run_analyze(root, paths, json_out);
}
