// Documentation lint (tier-1, ctest -L lint): keeps the operator docs and
// the code they describe from drifting apart. Four checks, all
// dependency-free (no library link, like rahooi_analyze):
//
//  1. Doc-map coverage — every docs/*.md is reachable from docs/INDEX.md,
//     and README.md points at the index.
//  2. ctest labels — every `-L <label>` cited in ROADMAP.md or README.md
//     names a label that some CMakeLists.txt actually assigns (LABELS
//     "..."), so the documented verify commands cannot rot.
//  3. Metrics counters — every `counter{name="X"}` cited in
//     docs/OBSERVABILITY.md or docs/SERVING.md is a registered
//     metrics::Counter enum entry, and every registered counter is
//     documented in at least one of those two files (bidirectional: no
//     phantom docs, no undocumented counters).
//  4. Quantile exports — metrics::Histogram::quantile feeds p50/p95/p99
//     samples into the flat snapshot and the exposition file; each of the
//     three percentile names must be cited in docs/OBSERVABILITY.md so the
//     SLO surface stays documented.
//
//   ./doc_check --root <repo root>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

int g_failures = 0;

void fail(const std::string& what) {
  std::printf("doc_check: FAIL: %s\n", what.c_str());
  ++g_failures;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in.good()) {
    fail("cannot read " + path.string());
    return "";
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool is_label_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// All `-L <label>` citations in a markdown file.
std::set<std::string> cited_labels(const std::string& text) {
  std::set<std::string> out;
  for (std::size_t i = 0; i + 3 < text.size(); ++i) {
    if (text.compare(i, 3, "-L ") != 0) continue;
    std::size_t b = i + 3;
    std::size_t e = b;
    while (e < text.size() && is_label_char(text[e])) ++e;
    if (e > b) out.insert(text.substr(b, e - b));
  }
  return out;
}

/// All labels any CMakeLists.txt under `root` assigns via LABELS "a;b".
std::set<std::string> defined_labels(const fs::path& root) {
  std::set<std::string> out;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    const std::string name = it->path().filename().string();
    if (it->is_directory() &&
        (name == "build" || name == ".git" || name[0] == '.')) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file() || name != "CMakeLists.txt") continue;
    const std::string text = read_file(it->path());
    const std::string needle = "LABELS \"";
    for (std::size_t i = text.find(needle); i != std::string::npos;
         i = text.find(needle, i + 1)) {
      const std::size_t b = i + needle.size();
      const std::size_t e = text.find('"', b);
      if (e == std::string::npos) break;
      std::string label;
      for (std::size_t j = b; j <= e; ++j) {
        if (j == e || text[j] == ';') {
          if (!label.empty()) out.insert(label);
          label.clear();
        } else {
          label += text[j];
        }
      }
    }
  }
  return out;
}

/// Registered counters: the identifiers of `enum class Counter` in
/// src/metrics/metrics.hpp, minus the `count_` sentinel.
std::set<std::string> registered_counters(const fs::path& root) {
  std::set<std::string> out;
  const std::string text = read_file(root / "src" / "metrics" / "metrics.hpp");
  const std::size_t begin = text.find("enum class Counter");
  const std::size_t end = text.find("};", begin);
  if (begin == std::string::npos || end == std::string::npos) {
    fail("cannot locate 'enum class Counter' in src/metrics/metrics.hpp");
    return out;
  }
  std::istringstream in(text.substr(begin, end - begin));
  std::string line;
  std::getline(in, line);  // skip the "enum class Counter : int {" line
  while (std::getline(in, line)) {
    const std::size_t comment = line.find("//");
    if (comment != std::string::npos) line = line.substr(0, comment);
    std::size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    std::size_t e = b;
    while (e < line.size() && is_ident_char(line[e])) ++e;
    const std::string ident = line.substr(b, e - b);
    if (!ident.empty() && ident != "count_") out.insert(ident);
  }
  return out;
}

/// All `counter{name="X"` citations in a markdown file.
std::set<std::string> cited_counters(const std::string& text) {
  std::set<std::string> out;
  const std::string needle = "counter{name=\"";
  for (std::size_t i = text.find(needle); i != std::string::npos;
       i = text.find(needle, i + 1)) {
    const std::size_t b = i + needle.size();
    const std::size_t e = text.find('"', b);
    if (e != std::string::npos) out.insert(text.substr(b, e - b));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--root") root = argv[i + 1];
  }
  if (root.empty()) {
    std::printf("usage: doc_check --root <repo root>\n");
    return 2;
  }

  // 1. Every docs/*.md is linked from docs/INDEX.md; README points there.
  const std::string index = read_file(root / "docs" / "INDEX.md");
  for (const auto& entry : fs::directory_iterator(root / "docs")) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || entry.path().extension() != ".md") {
      continue;
    }
    if (name == "INDEX.md") continue;
    if (index.find(name) == std::string::npos) {
      fail("docs/" + name + " is not reachable from docs/INDEX.md");
    }
  }
  const std::string readme = read_file(root / "README.md");
  if (readme.find("docs/INDEX.md") == std::string::npos) {
    fail("README.md does not point at docs/INDEX.md");
  }

  // 2. Every `-L <label>` cited in ROADMAP.md / README.md exists.
  const std::set<std::string> labels = defined_labels(root);
  for (const char* doc : {"ROADMAP.md", "README.md"}) {
    for (const std::string& cited : cited_labels(read_file(root / doc))) {
      if (labels.count(cited) == 0) {
        fail(std::string(doc) + " cites ctest label '" + cited +
             "' which no CMakeLists.txt assigns");
      }
    }
  }

  // 3. Counter citations vs the metrics::Counter registry, both directions.
  const std::set<std::string> counters = registered_counters(root);
  const std::string observability = read_file(root / "docs" /
                                              "OBSERVABILITY.md");
  const std::string serving = read_file(root / "docs" / "SERVING.md");
  for (const std::string& doc_text : {observability, serving}) {
    for (const std::string& cited : cited_counters(doc_text)) {
      if (counters.count(cited) == 0) {
        fail("docs cite counter '" + cited +
             "' which is not a metrics::Counter enum entry");
      }
    }
  }
  for (const std::string& counter : counters) {
    if (observability.find(counter) == std::string::npos &&
        serving.find(counter) == std::string::npos) {
      fail("metrics::Counter::" + counter +
           " is documented in neither docs/OBSERVABILITY.md nor "
           "docs/SERVING.md");
    }
  }

  // 4. The documented quantile surface: the snapshot/exposition layer
  // exports p50/p95/p99 (metrics::Histogram::quantile); the observability
  // doc must name all three.
  for (const char* q : {"p50", "p95", "p99"}) {
    if (observability.find(q) == std::string::npos) {
      fail("docs/OBSERVABILITY.md does not document the exported " +
           std::string(q) + " quantile samples");
    }
  }

  if (g_failures == 0) {
    std::printf(
        "doc_check: PASS (%zu labels defined, %zu counters registered)\n",
        labels.size(), counters.size());
    return 0;
  }
  std::printf("doc_check: %d failure(s)\n", g_failures);
  return 1;
}
