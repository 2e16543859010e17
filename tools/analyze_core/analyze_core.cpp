#include "analyze_core/analyze_core.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace analyze {

namespace {

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return std::string(s.substr(b, e - b));
}

/// Parses comment text for a `rahooi-analyze: allow(rule: reason)`
/// directive. The reason may itself contain parentheses; the directive ends
/// at the last ')' on the line.
void parse_allows(std::string_view comment, int line,
                  std::vector<AllowDirective>& out) {
  constexpr std::string_view tag = "rahooi-analyze:";
  const std::size_t at = comment.find(tag);
  if (at == std::string_view::npos) return;
  std::size_t i = at + tag.size();
  while (i < comment.size() && (comment[i] == ' ' || comment[i] == '\t')) {
    ++i;
  }
  if (comment.compare(i, 6, "allow(") != 0) return;
  i += 6;
  const std::size_t close = comment.rfind(')');
  if (close == std::string_view::npos || close < i) return;
  const std::string_view body = comment.substr(i, close - i);
  AllowDirective d;
  d.line = line;
  const std::size_t colon = body.find(':');
  if (colon == std::string_view::npos) {
    d.rule = trim(body);
    d.reason.clear();  // missing reason — an allow-syntax violation
  } else {
    d.rule = trim(body.substr(0, colon));
    d.reason = trim(body.substr(colon + 1));
  }
  out.push_back(std::move(d));
}

}  // namespace

FileSource tokenize(const std::string& src) {
  FileSource out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  const auto push = [&](TokKind kind, std::string text) {
    out.tokens.push_back(Token{kind, std::move(text), line});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Comments (line comments are scanned for allow directives).
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      parse_allows(std::string_view(src).substr(start, i - start), line,
                   out.allows);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    // Preprocessor line: capture #include target, then skip to end of line
    // (honoring backslash continuations).
    if (at_line_start && c == '#') {
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      if (src.compare(j, 7, "include") == 0) {
        j += 7;
        while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
        if (j < n && (src[j] == '"' || src[j] == '<')) {
          const char close = src[j] == '"' ? '"' : '>';
          const std::size_t start = j + 1;
          std::size_t end = start;
          while (end < n && src[end] != close && src[end] != '\n') ++end;
          out.includes.emplace_back(src.substr(start, end - start), line);
        }
      }
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    at_line_start = false;
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim += src[j++];
      const std::string close = ")" + delim + "\"";
      std::size_t end = src.find(close, j);
      if (end == std::string::npos) end = n;
      const std::size_t stop = std::min(end + close.size(), n);
      push(TokKind::string, src.substr(i, stop - i));
      for (; i < stop; ++i) {
        if (src[i] == '\n') ++line;
      }
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const std::size_t start = i;
      const int start_line = line;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;  // unterminated; keep line count sane
        ++i;
      }
      if (i < n) ++i;
      if (quote == '"') {
        out.tokens.push_back(
            Token{TokKind::string, src.substr(start, i - start), start_line});
      }
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      push(TokKind::ident, src.substr(i, j - i));
      i = j;
      continue;
    }
    if (c >= '0' && c <= '9') {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E')))) {
        ++j;
      }
      push(TokKind::number, src.substr(i, j - i));
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      push(TokKind::punct, "::");
      i += 2;
      continue;
    }
    push(TokKind::punct, std::string(1, c));
    ++i;
  }
  return out;
}

std::size_t chain_start(const std::vector<Token>& t, std::size_t i) {
  while (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == TokKind::ident) {
    i -= 2;
  }
  if (i >= 1 && t[i - 1].text == "::") --i;
  return i;
}

std::size_t after_matching_paren(const std::vector<Token>& t,
                                 std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].text == "(") ++depth;
    if (t[j].text == ")" && --depth == 0) return j + 1;
  }
  return t.size();
}

const std::set<std::string>& taxonomy_types() {
  static const std::set<std::string> kTypes{
      "precondition_error", "numerical_error",  "checkpoint_error",
      "AbortedError",       "TimeoutError",     "CommError",
      "RankKilledError",    "ScheduleDivergenceError", "PreemptedError",
  };
  return kTypes;
}

const std::set<std::string>& collective_methods() {
  static const std::set<std::string> kMethods{
      "barrier",          "bcast",          "reduce_sum",
      "allreduce_sum",    "allreduce_max",  "allreduce_scalar",
      "reduce_scatter_sum", "allgather",    "allgatherv",
      "alltoallv",        "split",          "barrier_wait",
  };
  return kMethods;
}

const std::set<std::string>& guard_types() {
  static const std::set<std::string> kGuards{
      "TraceSpan",       "CollectiveScope", "ScopedRankBinding",
      "ScopedPlan",      "ScopedThreadPlan", "MemScopeGuard",
      "ScopedBytes",     "lock_guard",      "unique_lock",
      "scoped_lock",     "shared_lock",
  };
  return kGuards;
}

std::size_t match_allow(std::vector<AllowDirective>& allows,
                        std::string_view rule, int line) {
  for (std::size_t k = 0; k < allows.size(); ++k) {
    AllowDirective& d = allows[k];
    if (d.used || d.rule != rule) continue;
    if (d.line == line || d.line + 1 == line) {
      d.used = true;
      return k;
    }
  }
  return static_cast<std::size_t>(-1);
}

bool read_file(const std::filesystem::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace analyze
