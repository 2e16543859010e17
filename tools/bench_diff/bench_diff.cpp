// bench_diff — compares a freshly emitted BENCH_*.json report against the
// committed repo-root baseline and exits nonzero on regression, so CI can
// catch performance/convergence drift without a human eyeballing numbers.
//
// Deliberately dependency-free (no library link, like rahooi_analyze): a small
// recursive-descent JSON reader flattens every numeric leaf to a dotted key
// ("benchmarks.3.gflops", "rel_error") and the two flattened maps are
// compared key by key:
//
//   * a key present in the baseline but missing from the fresh report is a
//     regression (a benchmark silently disappeared);
//   * a numeric leaf differing by more than tolerance * max(|base|, eps)
//     is a regression (relative comparison with an absolute floor, so
//     exact-zero baselines still match exact-zero fresh values);
//   * keys only in the fresh report are reported but not fatal (new
//     benchmarks land before their baseline is refreshed);
//   * a comparison of zero keys is a failure: a gate that compares nothing
//     cannot catch anything;
//   * a baseline row (an object inside an array) that lacks a gated field
//     some sibling row has is a failure: that row would silently drop out
//     of the comparison.
//
//   bench_diff [--tolerance <rel>] [--ignore <segment>]...
//              <baseline.json> <fresh.json>
//
// --tolerance defaults to 0.05 (5% relative). --ignore drops every key with
// a dotted segment equal to <segment>, where '*' matches any run of
// characters within one segment: "--ignore gflops" drops
// "benchmarks.3.gflops" but not "benchmarks.3.ref_gflops", and
// "--ignore '*seconds'" drops every wall-clock field named "..._seconds".
// Exit codes: 0 no regression, 1 regression or nothing compared, 2
// usage/IO error.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader: flattens numeric (and boolean) leaves to dotted keys.
// ---------------------------------------------------------------------------

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;
  std::vector<std::string> rows;  ///< keys of objects that are array elements

  explicit Parser(const std::string& t) : text(t) {}

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  bool parse_string(std::string* out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        out->push_back(text[pos + 1]);
        pos += 2;
      } else {
        out->push_back(text[pos]);
        ++pos;
      }
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;
    return true;
  }

  /// Parses any JSON value; numeric and boolean leaves land in `out` under
  /// `key`, containers recurse with "."-joined child keys.
  bool parse_value(const std::string& key,
                   std::map<std::string, double>* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      if (peek('}')) {
        ++pos;
        return true;
      }
      while (true) {
        std::string name;
        if (!parse_string(&name)) return false;
        if (!consume(':')) return false;
        const std::string child = key.empty() ? name : key + "." + name;
        if (!parse_value(child, out)) return false;
        if (peek(',')) {
          ++pos;
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      if (peek(']')) {
        ++pos;
        return true;
      }
      for (std::size_t i = 0;; ++i) {
        const std::string child = key + "." + std::to_string(i);
        if (peek('{')) rows.push_back(child);
        if (!parse_value(child, out)) return false;
        if (peek(',')) {
          ++pos;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      std::string ignored;
      return parse_string(&ignored);  // string leaves are not compared
    }
    if (text.compare(pos, 4, "true") == 0) {
      (*out)[key] = 1.0;
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      (*out)[key] = 0.0;
      pos += 5;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      return true;
    }
    // Number.
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return fail("expected value");
    (*out)[key] = std::strtod(text.substr(start, pos - start).c_str(),
                              nullptr);
    return true;
  }
};

bool flatten_file(const char* path, std::map<std::string, double>* out,
                  std::vector<std::string>* rows /* may be null */,
                  std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    *error = "cannot open file";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  Parser p(text);
  if (!p.parse_value("", out)) {
    *error = p.error;
    return false;
  }
  if (rows != nullptr) *rows = std::move(p.rows);
  p.skip_ws();
  if (p.pos != text.size()) {
    *error = "trailing content after JSON value";
    return false;
  }
  return true;
}

/// Whole-string match of `text` against `pattern`, where '*' matches any
/// run of characters.
bool glob_match(const char* pattern, const char* text) {
  if (*pattern == '\0') return *text == '\0';
  if (*pattern == '*') {
    for (const char* t = text;; ++t) {
      if (glob_match(pattern + 1, t)) return true;
      if (*t == '\0') return false;
    }
  }
  return *text != '\0' && *pattern == *text &&
         glob_match(pattern + 1, text + 1);
}

bool ignored(const std::string& key, const std::vector<std::string>& pats) {
  std::size_t begin = 0;
  while (begin <= key.size()) {
    std::size_t end = key.find('.', begin);
    if (end == std::string::npos) end = key.size();
    const std::string segment = key.substr(begin, end - begin);
    for (const auto& p : pats) {
      if (glob_match(p.c_str(), segment.c_str())) return true;
    }
    begin = end + 1;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  double tolerance = 0.05;
  std::vector<std::string> ignores;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--ignore" && i + 1 < argc) {
      ignores.push_back(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_diff: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2 || !(tolerance >= 0.0)) {
    std::fprintf(stderr,
                 "usage: bench_diff [--tolerance <rel>] "
                 "[--ignore <segment>]... <baseline.json> <fresh.json>\n");
    return 2;
  }

  std::map<std::string, double> base, fresh;
  std::vector<std::string> base_rows;
  std::string error;
  if (!flatten_file(files[0], &base, &base_rows, &error)) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", files[0], error.c_str());
    return 2;
  }
  if (!flatten_file(files[1], &fresh, nullptr, &error)) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", files[1], error.c_str());
    return 2;
  }

  constexpr double kAbsFloor = 1e-12;
  int regressions = 0;
  int compared = 0;
  for (const auto& [key, b] : base) {
    if (ignored(key, ignores)) continue;
    const auto it = fresh.find(key);
    if (it == fresh.end()) {
      std::fprintf(stderr, "bench_diff: REGRESSION %s: missing from %s\n",
                   key.c_str(), files[1]);
      ++regressions;
      continue;
    }
    ++compared;
    const double f = it->second;
    const double budget = tolerance * std::max(std::fabs(b), kAbsFloor);
    if (std::fabs(f - b) > budget) {
      std::fprintf(stderr,
                   "bench_diff: REGRESSION %s: baseline %.6g, fresh %.6g "
                   "(|diff| %.3g > %.3g)\n",
                   key.c_str(), b, f, std::fabs(f - b), budget);
      ++regressions;
    }
  }
  // Every baseline row must carry each gated field any sibling row has.
  std::map<std::string, std::set<std::string>> row_fields;
  std::map<std::string, std::set<std::string>> array_fields;
  auto parent = [](const std::string& key) {
    const std::size_t dot = key.rfind('.');
    return dot == std::string::npos ? std::string() : key.substr(0, dot);
  };
  for (const auto& row : base_rows) row_fields[row];
  for (const auto& [key, b] : base) {
    const auto row = row_fields.find(parent(key));
    if (row == row_fields.end() || ignored(key, ignores)) continue;
    const std::string field = key.substr(row->first.size() + 1);
    row->second.insert(field);
    array_fields[parent(row->first)].insert(field);
  }
  for (const auto& [row, fields] : row_fields) {
    for (const auto& field : array_fields[parent(row)]) {
      if (fields.count(field) == 0) {
        std::fprintf(stderr,
                     "bench_diff: REGRESSION baseline row %s lacks gated "
                     "field %s\n",
                     row.c_str(), field.c_str());
        ++regressions;
      }
    }
  }

  int extra = 0;
  for (const auto& [key, f] : fresh) {
    if (ignored(key, ignores)) continue;
    if (base.find(key) == base.end()) {
      std::printf("bench_diff: note: %s (= %.6g) has no baseline entry\n",
                  key.c_str(), f);
      ++extra;
    }
  }

  if (regressions > 0) {
    std::fprintf(stderr, "bench_diff: %d regression(s) across %d compared "
                         "key(s), tolerance %.3g\n",
                 regressions, compared, tolerance);
    return 1;
  }
  if (compared == 0) {
    std::fprintf(stderr, "bench_diff: FAIL — no key compared (%zu baseline "
                         "key(s), all ignored or missing)\n",
                 base.size());
    return 1;
  }
  std::printf("bench_diff: OK — %d key(s) within %.3g relative tolerance "
              "(%d new key(s) without baseline)\n",
              compared, tolerance, extra);
  return 0;
}
