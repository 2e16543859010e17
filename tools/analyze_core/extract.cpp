#include "analyze_core/extract.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace analyze {

namespace {

const std::set<std::string>& keywords() {
  static const std::set<std::string> kKw{
      "if",        "else",     "while",    "for",       "do",
      "switch",    "case",     "return",   "throw",     "catch",
      "sizeof",    "alignof",  "new",      "delete",    "goto",
      "break",     "continue", "static_assert", "decltype", "noexcept",
      "operator",  "default",  "using",    "typedef",   "template",
      "typename",  "class",    "struct",   "enum",      "namespace",
      "public",    "private",  "protected", "const",    "constexpr",
      "static",    "inline",   "virtual",  "explicit",  "friend",
      "auto",      "void",     "bool",     "int",       "char",
      "long",      "short",    "double",   "float",     "unsigned",
      "signed",    "this",     "true",     "false",     "nullptr",
      "alignas",   "requires", "concept",  "try",       "assert",
      "co_await",  "co_yield", "co_return", "mutable",  "extern",
      "union",     "volatile", "thread_local",
  };
  return kKw;
}

const std::set<std::string>& lock_types() {
  static const std::set<std::string> kLocks{
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  return kLocks;
}

/// Identifiers whose appearance in an if/while/for condition marks it as
/// rank-dependent control flow. A bare `rank` only counts when called
/// (`rank()`): `rank` alone is routinely a *matrix* rank in this codebase.
bool is_rank_marker_ident(const std::vector<Token>& t, std::size_t i,
                          const std::set<std::string>& tainted) {
  static const std::set<std::string> kMarkers{
      "rank_",    "world_rank", "world_rank_", "my_rank",
      "myrank",   "comm_rank",  "is_root",     "tls_world_rank"};
  const std::string& s = t[i].text;
  if (kMarkers.count(s) != 0) return true;
  if (s == "rank" && i + 1 < t.size() && t[i + 1].text == "(") return true;
  return tainted.count(s) != 0;
}

bool range_has_rank_marker(const std::vector<Token>& t, std::size_t a,
                           std::size_t b,
                           const std::set<std::string>& tainted) {
  for (std::size_t j = a; j < b && j < t.size(); ++j) {
    if (t[j].kind == TokKind::ident &&
        is_rank_marker_ident(t, j, tainted)) {
      return true;
    }
  }
  return false;
}

/// Index of the token after the `}` matching the `{` at `open`.
std::size_t after_matching_brace(const std::vector<Token>& t,
                                 std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].text == "{") ++depth;
    if (t[j].text == "}" && --depth == 0) return j + 1;
  }
  return t.size();
}

/// Index past a balanced `<...>` group starting at `open` (or open+1 when it
/// does not look like one).
std::size_t after_matching_angle(const std::vector<Token>& t,
                                 std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">" && --depth == 0) return j + 1;
    if (t[j].text == ";" || t[j].text == "{") break;  // not a template arg
  }
  return open + 1;
}

/// Splits the argument tokens of the paren group at `open` into top-level
/// comma-separated ranges.
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& t, std::size_t open) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t end = after_matching_paren(t, open) - 1;  // index of ')'
  if (end <= open + 1) return out;
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t j = open + 1; j < end; ++j) {
    if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
    if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") --depth;
    if (t[j].text == "," && depth == 0) {
      out.emplace_back(start, j);
      start = j + 1;
    }
  }
  out.emplace_back(start, end);
  return out;
}

/// Canonical lock name from a constructor-argument token range: idents and
/// `::`/`.` joined, `->` folded to `.`, a leading `this.` stripped. Returns
/// "" for ranges with no identifier.
std::string lock_name(const std::vector<Token>& t, std::size_t a,
                      std::size_t b) {
  std::string out;
  for (std::size_t j = a; j < b; ++j) {
    const Token& tok = t[j];
    if (tok.kind == TokKind::ident || tok.kind == TokKind::number) {
      out += tok.text;
    } else if (tok.text == "::" || tok.text == ".") {
      out += tok.text == "::" ? "::" : ".";
    } else if (tok.text == "-" && j + 1 < b && t[j + 1].text == ">") {
      out += '.';
      ++j;
    }
    // '&', '*', parens: dropped.
  }
  if (out.rfind("this.", 0) == 0) out = out.substr(5);
  return out;
}

struct GuardVar {
  std::string name;
  std::vector<std::string> locks;
  bool active = true;
  int depth = 0;
};

std::vector<std::string> held_locks(const std::vector<GuardVar>& guards) {
  std::vector<std::string> out;
  for (const GuardVar& g : guards) {
    if (!g.active) continue;
    for (const std::string& l : g.locks) out.push_back(l);
  }
  return out;
}

/// Parses one function body (tokens body_open..matching `}`) into `fn`.
/// `cls` is the enclosing class name ("" for free functions) used to
/// canonicalize bare member-lock names.
void parse_body(const std::vector<Token>& t, std::size_t body_open,
                std::size_t body_close, const std::string& cls,
                FunctionSummary& fn) {
  int depth = 0;
  int pdepth = 0;
  std::vector<int> span_depths;
  std::vector<GuardVar> guards;
  std::set<std::string> tainted;
  std::set<std::size_t> rank_braces;
  std::vector<int> rank_depths;
  int stmt_rank = 0;
  bool tail_div = false;
  bool next_if_rank = false;

  const auto under_rank = [&]() {
    return !rank_depths.empty() || stmt_rank > 0 || tail_div;
  };
  const auto find_guard = [&](const std::string& name) -> GuardVar* {
    for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
      if (it->name == name) return &*it;
    }
    return nullptr;
  };
  const auto canon = [&](std::string name) {
    if (!name.empty() && !cls.empty() &&
        name.find('.') == std::string::npos &&
        name.find("::") == std::string::npos) {
      name = cls + "::" + name;
    }
    return name;
  };

  for (std::size_t j = body_open; j <= body_close && j < t.size(); ++j) {
    const Token& tok = t[j];
    const auto next = [&](std::size_t k) -> std::string_view {
      return j + k < t.size() ? std::string_view(t[j + k].text)
                              : std::string_view();
    };
    const auto prev = [&](std::size_t k) -> std::string_view {
      return j >= k ? std::string_view(t[j - k].text) : std::string_view();
    };

    if (tok.text == "(") { ++pdepth; continue; }
    if (tok.text == ")") { --pdepth; continue; }
    if (tok.text == "{") {
      ++depth;
      if (rank_braces.count(j) != 0) rank_depths.push_back(depth);
      continue;
    }
    if (tok.text == "}") {
      --depth;
      while (!span_depths.empty() && span_depths.back() > depth) {
        span_depths.pop_back();
      }
      while (!guards.empty() && guards.back().depth > depth) {
        guards.pop_back();
      }
      if (!rank_depths.empty() && rank_depths.back() > depth) {
        rank_depths.pop_back();
        // An `else` of a rank-dependent if is itself rank-dependent.
        if (next(1) == "else") {
          if (next(2) == "{") {
            rank_braces.insert(j + 2);
          } else if (next(2) == "if") {
            next_if_rank = true;
          } else {
            ++stmt_rank;
          }
        }
      }
      continue;
    }
    if (tok.text == ";" && pdepth == 0) {
      stmt_rank = 0;
      continue;
    }

    // Assignment taint: `V = <expr containing a rank marker>;` taints V;
    // a clean reassignment untaints it. `==`, `!=`, `<=` etc. never match
    // because their first token is not an identifier.
    if (tok.text == "=" && j > body_open && t[j - 1].kind == TokKind::ident &&
        next(1) != "=" && prev(2) != "." && prev(2) != "::" &&
        !(prev(2) == ">" && prev(3) == "-")) {
      const std::string var = t[j - 1].text;
      std::size_t e = j + 1;
      int d = 0;
      while (e < t.size() && !(t[e].text == ";" && d == 0)) {
        if (t[e].text == "(" || t[e].text == "{" || t[e].text == "[") ++d;
        if (t[e].text == ")" || t[e].text == "}" || t[e].text == "]") --d;
        ++e;
      }
      if (range_has_rank_marker(t, j + 1, e, tainted)) {
        tainted.insert(var);
      } else {
        tainted.erase(var);
      }
      continue;
    }

    if (tok.kind != TokKind::ident) continue;

    // Control flow with a rank-dependent condition.
    if ((tok.text == "if" || tok.text == "while") && next(1) == "(") {
      const std::size_t after = after_matching_paren(t, j + 1);
      const bool rank_cond =
          next_if_rank || range_has_rank_marker(t, j + 2, after - 1, tainted);
      next_if_rank = false;
      if (rank_cond) {
        if (after < t.size() && t[after].text == "{") {
          rank_braces.insert(after);
        } else {
          ++stmt_rank;
        }
      }
      continue;
    }
    if (tok.text == "for" && next(1) == "(") {
      const std::size_t after = after_matching_paren(t, j + 1);
      if (range_has_rank_marker(t, j + 2, after - 1, tainted)) {
        if (after < t.size() && t[after].text == "{") {
          rank_braces.insert(after);
        } else {
          ++stmt_rank;
        }
      }
      continue;
    }

    // Early exit under a rank branch: the rest of the function's schedule
    // is rank-dependent.
    if ((tok.text == "return" || tok.text == "throw") && under_rank()) {
      tail_div = true;
      continue;
    }

    // Guard-type declarations and discarded temporaries.
    if (guard_types().count(tok.text) != 0) {
      std::size_t v = j + 1;  // token after optional template args
      if (next(1) == "<") v = after_matching_angle(t, j + 1);
      if (v < t.size() && t[v].kind == TokKind::ident) {
        // Named guard declaration.
        if (lock_types().count(tok.text) != 0 && v + 1 < t.size() &&
            (t[v + 1].text == "(" || t[v + 1].text == "{")) {
          GuardVar g;
          g.name = t[v].text;
          g.depth = depth;
          const auto args = split_args(t, v + 1);
          for (const auto& [a, b] : args) {
            bool flag = false;
            for (std::size_t k = a; k < b; ++k) {
              if (t[k].text == "defer_lock") { g.active = false; flag = true; }
              if (t[k].text == "adopt_lock" || t[k].text == "try_to_lock") {
                flag = true;
              }
            }
            if (flag) continue;
            const std::string l = canon(lock_name(t, a, b));
            if (!l.empty()) g.locks.push_back(l);
            if (tok.text != "scoped_lock") break;  // only the first arg locks
          }
          if (g.active) {
            const auto held = held_locks(guards);
            for (const std::string& l : g.locks) {
              fn.locks.push_back(LockAcq{l, t[v].line, held});
            }
          }
          guards.push_back(std::move(g));
        } else if (tok.text == "TraceSpan") {
          span_depths.push_back(depth);
        }
        continue;
      }
      if (v < t.size() && t[v].text == "(") {
        // `GuardType(...)` — a temporary. At statement position with a `;`
        // right after, the guarded region collapses to nothing.
        const std::size_t s = chain_start(t, j);
        const std::string_view before =
            s >= 1 ? std::string_view(t[s - 1].text) : std::string_view();
        const bool stmt_pos =
            s == 0 || before == ";" || before == "{" || before == "}";
        const std::size_t after = after_matching_paren(t, v);
        if (stmt_pos && after < t.size() && t[after].text == ";") {
          fn.discards.push_back(GuardDiscard{tok.text, tok.line});
        }
      }
      continue;
    }

    // Explicit lock()/unlock() on a guard local (the scheduler's
    // unlock-around-the-solve pattern).
    if ((tok.text == "unlock" || tok.text == "lock") && prev(1) == "." &&
        next(1) == "(" && j >= 2 && t[j - 2].kind == TokKind::ident) {
      if (GuardVar* g = find_guard(t[j - 2].text)) {
        if (tok.text == "unlock") {
          g->active = false;
        } else if (!g->active) {
          g->active = true;
          const auto held = held_locks(guards);
          for (const std::string& l : g->locks) {
            // held includes g's own locks now; report the set before it.
            std::vector<std::string> before_set;
            for (const std::string& h : held) {
              if (std::find(g->locks.begin(), g->locks.end(), h) ==
                  g->locks.end()) {
                before_set.push_back(h);
              }
            }
            fn.locks.push_back(LockAcq{l, tok.line, before_set});
          }
        }
        continue;
      }
    }

    // Condition-variable waits: `cv.wait(guard, ...)` where guard is a live
    // lock-guard local. Other `.wait*()` receivers are skipped entirely so
    // they cannot be misresolved as calls to e.g. serve::Scheduler::wait.
    if ((tok.text == "wait" || tok.text == "wait_for" ||
         tok.text == "wait_until") &&
        prev(1) == "." && next(1) == "(") {
      if (j + 2 < t.size() && t[j + 2].kind == TokKind::ident) {
        if (GuardVar* g = find_guard(t[j + 2].text)) {
          if (g->active && !g->locks.empty()) {
            fn.waits.push_back(
                CvWait{g->locks.front(), tok.line, held_locks(guards)});
          }
        }
      }
      continue;
    }

    // Collective uses: receiver calls naming the comm::Comm byte-moving
    // surface (or Context::barrier_wait underneath it).
    if (collective_methods().count(tok.text) != 0 && next(1) == "(" &&
        (prev(1) == "." || (prev(1) == ">" && prev(2) == "-"))) {
      fn.collectives.push_back(CollectiveUse{tok.text, tok.line, under_rank(),
                                             !span_depths.empty(),
                                             held_locks(guards)});
      // A variable whose address feeds a collective is replicated by it:
      // untaint (`bcast(&yield, 1, 0)` after a rank-dependent verdict).
      const std::size_t end = after_matching_paren(t, j + 1);
      for (std::size_t k = j + 2; k < end; ++k) {
        if (t[k].kind == TokKind::ident) tainted.erase(t[k].text);
      }
      continue;
    }

    // Generic call sites.
    if (next(1) == "(" && keywords().count(tok.text) == 0) {
      const std::size_t s = chain_start(t, j);
      if (t[s].text == "std") continue;  // std:: is never project code
      std::string qual;
      for (std::size_t k = s; k + 1 < j; ++k) {
        if (t[k].kind == TokKind::ident) {
          if (!qual.empty()) qual += "::";
          qual += t[k].text;
        }
      }
      const bool member =
          s >= 1 && (t[s - 1].text == "." ||
                     (t[s - 1].text == ">" && s >= 2 && t[s - 2].text == "-"));
      const std::string_view before =
          s >= 1 ? std::string_view(t[s - 1].text) : std::string_view();
      const std::size_t after = after_matching_paren(t, j + 1);
      const bool discarded =
          !member &&
          (s == 0 || before == ";" || before == "{" || before == "}") &&
          after < t.size() && t[after].text == ";";
      fn.calls.push_back(CallSite{tok.text, qual, tok.line,
                                  under_rank(), !span_depths.empty(),
                                  discarded, held_locks(guards)});
      continue;
    }
  }
}

/// Skips a constructor member-init list starting right after the `:`;
/// returns the index of the body `{` (or tokens.size() when it does not
/// parse as one).
std::size_t skip_ctor_inits(const std::vector<Token>& t, std::size_t j) {
  while (j < t.size()) {
    // Member or base name: idents, ::, template args.
    while (j < t.size() &&
           (t[j].kind == TokKind::ident || t[j].text == "::")) {
      ++j;
      if (j < t.size() && t[j].text == "<") j = after_matching_angle(t, j);
    }
    if (j >= t.size()) break;
    if (t[j].text == "(") {
      j = after_matching_paren(t, j);
    } else if (t[j].text == "{") {
      j = after_matching_brace(t, j);
    } else {
      break;
    }
    if (j < t.size() && t[j].text == ",") {
      ++j;
      continue;
    }
    break;
  }
  return j < t.size() && t[j].text == "{" ? j : t.size();
}

/// True when the scan-back from the declarator finds a guard type in the
/// return-type position (and no destructor `~`).
bool scan_returns_guard(const std::vector<Token>& t, std::size_t s) {
  std::size_t steps = 0;
  std::size_t j = s;
  while (j > 0 && steps < 12) {
    --j;
    ++steps;
    const std::string& x = t[j].text;
    if (x == ";" || x == "{" || x == "}" || x == "(" || x == ")" ||
        x == "," || x == "=" || x == ":") {
      break;
    }
    if (x == "~") return false;
    if (t[j].kind == TokKind::ident && guard_types().count(x) != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<FunctionSummary> extract(const FileSource& f,
                                     const std::string& rel,
                                     std::set<std::string>& span_classes) {
  const std::vector<Token>& t = f.tokens;
  std::vector<FunctionSummary> out;

  struct Scope {
    bool is_class = false;
    std::string name;
    int depth = 0;
  };
  std::vector<Scope> stack;
  std::map<std::size_t, Scope> pending;  // '{' token index -> scope to open
  int depth = 0;

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.text == "{") {
      ++depth;
      if (const auto it = pending.find(i); it != pending.end()) {
        Scope s = it->second;
        s.depth = depth;
        stack.push_back(std::move(s));
        pending.erase(it);
      }
      continue;
    }
    if (tok.text == "}") {
      while (!stack.empty() && stack.back().depth > depth - 1) {
        stack.pop_back();
      }
      --depth;
      continue;
    }
    if (tok.kind != TokKind::ident) continue;

    // A TraceSpan data member (`prof::TraceSpan root_;`) at class scope.
    if (tok.text == "TraceSpan" && !stack.empty() && stack.back().is_class &&
        stack.back().depth == depth && i + 2 < t.size() &&
        t[i + 1].kind == TokKind::ident &&
        (t[i + 2].text == ";" || t[i + 2].text == "{" ||
         t[i + 2].text == "=")) {
      span_classes.insert(stack.back().name);
      continue;
    }

    // Namespace scopes (incl. `namespace a::b {`; alias and anonymous forms
    // handled).
    if (tok.text == "namespace") {
      std::size_t j = i + 1;
      std::string name;
      while (j < t.size() &&
             (t[j].kind == TokKind::ident || t[j].text == "::")) {
        if (t[j].kind == TokKind::ident) {
          if (!name.empty()) name += "::";
          name += t[j].text;
        }
        ++j;
      }
      if (j < t.size() && t[j].text == "{") {
        pending[j] = Scope{false, name, 0};
        i = j - 1;
      } else {
        while (j < t.size() && t[j].text != ";" && t[j].text != "{") ++j;
        i = j;
      }
      continue;
    }

    // Class/struct/enum-class scopes (skipping template parameters and
    // forward declarations).
    if ((tok.text == "class" || tok.text == "struct") &&
        !(i > 0 && (t[i - 1].text == "<" || t[i - 1].text == "," ||
                    t[i - 1].text == "typename"))) {
      std::size_t j = i + 1;
      std::string name;
      if (j < t.size() && t[j].kind == TokKind::ident) name = t[j].text;
      int pd = 0;
      while (j < t.size()) {
        const std::string& x = t[j].text;
        if (x == "(") ++pd;
        if (x == ")") --pd;
        if (pd == 0 && (x == ";" || x == "{")) break;
        ++j;
      }
      if (j < t.size() && t[j].text == "{") {
        pending[j] = Scope{true, name, 0};
        i = j - 1;
      } else {
        i = j;
      }
      continue;
    }

    // Function definition / declaration detection at namespace or class
    // scope (the outer loop never walks inside bodies).
    if (i + 1 < t.size() && t[i + 1].text == "(" &&
        keywords().count(tok.text) == 0) {
      const std::size_t s = chain_start(t, i);
      const std::size_t after = after_matching_paren(t, i + 1);
      std::size_t j = after;
      bool is_def = false;
      bool is_decl = false;
      std::size_t body_open = 0;
      while (j < t.size()) {
        const std::string& x = t[j].text;
        if (x == "const" || x == "noexcept" || x == "override" ||
            x == "final" || x == "&" || x == "mutable") {
          if (x == "noexcept" && j + 1 < t.size() && t[j + 1].text == "(") {
            j = after_matching_paren(t, j + 1);
          } else {
            ++j;
          }
          continue;
        }
        if (x == "-" && j + 1 < t.size() && t[j + 1].text == ">") {
          // Trailing return type: skip type tokens.
          j += 2;
          while (j < t.size() &&
                 (t[j].kind == TokKind::ident || t[j].text == "::" ||
                  t[j].text == "<" || t[j].text == ">" || t[j].text == "*" ||
                  t[j].text == "&" || t[j].text == ",")) {
            ++j;
          }
          continue;
        }
        if (x == "{") { is_def = true; body_open = j; }
        else if (x == ";" || x == "=") { is_decl = true; }
        else if (x == ":") {
          const std::size_t b = skip_ctor_inits(t, j + 1);
          if (b < t.size()) { is_def = true; body_open = b; }
        }
        break;
      }
      if (!is_def && !is_decl) continue;

      // Name, qualifier, destructor handling.
      std::string bare = tok.text;
      std::size_t qual_start = s;
      if (s >= 1 && t[s - 1].text == "~") {
        bare = "~" + bare;
        qual_start = chain_start(t, s - 1);
      }
      // A template class qualifier (`SolveSession<T>::begin_step`).
      while (qual_start >= 2 && t[qual_start].text == "::" &&
             t[qual_start - 1].text == ">") {
        std::size_t k = qual_start - 1;
        for (int d = 0; k > 0; --k) {
          if (t[k].text == ">") ++d;
          if (t[k].text == "<" && --d == 0) break;
        }
        if (k == 0 || t[k - 1].kind != TokKind::ident) break;
        qual_start = chain_start(t, k - 1);
      }
      std::string qual;
      for (std::size_t k = qual_start; k + 1 < i; ++k) {
        if (t[k].kind != TokKind::ident) continue;
        std::size_t n = k + 1;
        if (t[n].text == "<") n = after_matching_angle(t, n);
        if (n < i && t[n].text == "::") {
          if (!qual.empty()) qual += "::";
          qual += t[k].text;
          k = n;
        }
      }
      // Enclosing class for member-lock canonicalization.
      std::string cls;
      if (!qual.empty()) {
        const std::size_t p = qual.rfind("::");
        cls = p == std::string::npos ? qual : qual.substr(p + 2);
      } else {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (it->is_class) { cls = it->name; break; }
        }
      }
      const bool returns_guard = scan_returns_guard(t, qual_start);

      // Declarations only matter when they carry a guard return type (the
      // cross-TU guard-discard rule resolves against them too).
      if (!is_def && !returns_guard) {
        i = j;
        continue;
      }
      FunctionSummary fn;
      fn.bare = bare;
      fn.file = rel;
      fn.cls = cls;
      fn.line = tok.line;
      fn.returns_guard = returns_guard;
      std::string full;
      for (const Scope& sc : stack) {
        if (sc.name.empty()) continue;
        if (!full.empty()) full += "::";
        full += sc.name;
      }
      if (!qual.empty()) {
        if (!full.empty()) full += "::";
        full += qual;
      }
      fn.name = full.empty() ? bare : full + "::" + bare;
      if (is_def) {
        const std::size_t body_close = after_matching_brace(t, body_open) - 1;
        parse_body(t, body_open, body_close, cls, fn);
        j = body_close;
      }
      out.push_back(std::move(fn));
      // Skip past the declarator (or body) so default-argument expressions
      // are not misread as statements.
      i = j;
      continue;
    }
  }
  return out;
}

}  // namespace analyze
