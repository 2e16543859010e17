#include "metrics/report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/contracts.hpp"
#include "obs/merge_trace.hpp"
#include "prof/report.hpp"

namespace rahooi::metrics {

namespace {

/// Compact numeric formatting: integers exactly, everything else with
/// round-trip precision.
std::string fmt_number(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

/// Inserts `label="value"` into a `name` or `name{...}` key.
std::string with_label(const std::string& key, const std::string& label,
                       const std::string& value) {
  const std::string tail = label + "=\"" + value + "\"}";
  if (!key.empty() && key.back() == '}') {
    return key.substr(0, key.size() - 1) + "," + tail;
  }
  return key + "{" + tail;
}

/// Scans a fixed-key JSON line for `"key":` and parses the number after it.
bool number_after_key(const std::string& text, const std::string& key,
                      double* value) {
  // The needle includes the trailing colon so that a key whose name also
  // appears as a string *value* (e.g. "kind":"sweep" vs "sweep":1) cannot
  // shadow the real entry.
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  std::size_t p = at + needle.size();
  while (p < text.size() &&
         std::isspace(static_cast<unsigned char>(text[p])) != 0) {
    ++p;
  }
  if (p >= text.size()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + p, &end);
  if (end == text.c_str() + p) return false;
  if (value != nullptr) *value = v;
  return true;
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

void append_int_array(std::ostringstream& os,
                      const std::vector<std::int64_t>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "" : ",") << v[i];
  }
  os << "]";
}

}  // namespace

std::vector<Sample> snapshot(const Registry& r) {
  std::vector<Sample> out;
  const auto add = [&out](std::string key, double v) {
    out.push_back(Sample{std::move(key), v});
  };

  for (std::size_t k = 0; k < kCollectiveCount; ++k) {
    const auto kind = static_cast<CollectiveKind>(k);
    const CollectiveMetrics& m = r.collective(kind);
    if (m.calls == 0) continue;
    const std::string labels =
        std::string("{kind=\"") + collective_name(kind) + "\"}";
    add("comm.calls" + labels, double(m.calls));
    add("comm.bytes.sum" + labels, m.bytes.sum);
    add("comm.bytes.min" + labels, m.bytes.min);
    add("comm.bytes.max" + labels, m.bytes.max);
    add("comm.seconds.sum" + labels, m.seconds.sum);
    add("comm.seconds.min" + labels, m.seconds.min);
    add("comm.seconds.max" + labels, m.seconds.max);
    add("comm.seconds.p50" + labels, m.seconds.quantile(0.50));
    add("comm.seconds.p95" + labels, m.seconds.quantile(0.95));
    add("comm.seconds.p99" + labels, m.seconds.quantile(0.99));
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const int pow2 = static_cast<int>(b) + Histogram::kMinExponent;
      if (m.bytes.buckets[b] != 0) {
        add(with_label("comm.bytes.bucket" + labels, "pow2",
                       std::to_string(pow2)),
            double(m.bytes.buckets[b]));
      }
      if (m.seconds.buckets[b] != 0) {
        add(with_label("comm.seconds.bucket" + labels, "pow2",
                       std::to_string(pow2)),
            double(m.seconds.buckets[b]));
      }
    }
  }

  for (int s = 0; s < kMemScopeCount; ++s) {
    const auto scope = static_cast<MemScope>(s);
    const std::string labels =
        std::string("{scope=\"") + mem_scope_name(scope) + "\"}";
    add("mem.live_bytes" + labels, r.gauge(scope).live);
    add("mem.peak_bytes" + labels, r.gauge(scope).peak);
  }

  // Serving-layer samples (src/serve/): emitted only when the registry ever
  // saw serve traffic, so solver-only snapshots are unchanged.
  if (r.serve_queue().peak > 0.0) {
    add("serve.queue.depth", r.serve_queue().live);
    add("serve.queue.peak", r.serve_queue().peak);
  }
  for (int s = 0; s < kServeStageCount; ++s) {
    const auto stage = static_cast<ServeStage>(s);
    const Histogram& h = r.serve_stage(stage);
    if (h.count == 0) continue;
    const std::string labels =
        std::string("{stage=\"") + serve_stage_name(stage) + "\"}";
    add("serve.jobs" + labels, double(h.count));
    add("serve.seconds.sum" + labels, h.sum);
    add("serve.seconds.min" + labels, h.min);
    add("serve.seconds.max" + labels, h.max);
    add("serve.seconds.p50" + labels, h.quantile(0.50));
    add("serve.seconds.p95" + labels, h.quantile(0.95));
    add("serve.seconds.p99" + labels, h.quantile(0.99));
  }

  for (int c = 0; c < kCounterCount; ++c) {
    const auto counter = static_cast<Counter>(c);
    add(std::string("counter{name=\"") + counter_name(counter) + "\"}",
        double(r.counter(counter)));
  }

  for (const auto& [name, v] : r.named()) {
    add("named{name=\"" + name + "\"}", v);
  }

  add("events.count", double(r.events().size()));
  return out;
}

std::vector<MetricStat> aggregate(const std::vector<Registry>& ranks) {
  struct Accum {
    int ranks = 0;
    double min = std::numeric_limits<double>::max();
    double max = -std::numeric_limits<double>::max();
    double sum = 0.0;
  };
  std::map<std::string, Accum> by_key;
  for (const Registry& r : ranks) {
    for (const Sample& s : snapshot(r)) {
      Accum& a = by_key[s.key];
      ++a.ranks;
      a.min = std::min(a.min, s.value);
      a.max = std::max(a.max, s.value);
      a.sum += s.value;
    }
  }
  const int p = static_cast<int>(ranks.size());
  std::vector<MetricStat> out;
  out.reserve(by_key.size());
  for (const auto& [key, a] : by_key) {
    MetricStat m;
    m.key = key;
    m.ranks = a.ranks;
    // Ranks without the sample contribute 0 to min and mean (same
    // convention as prof::aggregate).
    m.min = a.ranks < p ? std::min(a.min, 0.0) : a.min;
    m.max = std::max(a.max, a.ranks < p ? 0.0 : a.max);
    m.sum = a.sum;
    m.mean = p > 0 ? a.sum / p : 0.0;
    out.push_back(std::move(m));
  }
  return out;  // std::map iteration => sorted by key already
}

CsvTable aggregate_csv(const std::vector<MetricStat>& stats) {
  CsvTable table({"key", "ranks", "min", "mean", "max", "sum"});
  for (const MetricStat& m : stats) {
    table.begin_row();
    table.add(m.key);
    table.add(m.ranks);
    table.add(m.min);
    table.add(m.mean);
    table.add(m.max);
    table.add(m.sum);
  }
  return table;
}

std::string aggregate_pretty(const std::vector<MetricStat>& stats,
                             std::size_t top_n) {
  std::vector<MetricStat> sorted = stats;
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricStat& a, const MetricStat& b) {
              return a.max > b.max;
            });
  if (top_n > 0 && sorted.size() > top_n) sorted.resize(top_n);
  return aggregate_csv(sorted).to_pretty();
}

std::string metrics_json(const std::vector<Registry>& ranks) {
  std::ostringstream os;
  os << "{\n  \"meta.ranks\": " << ranks.size();
  static const char* kStats[] = {"min", "mean", "max", "sum"};
  for (const MetricStat& m : aggregate(ranks)) {
    const double values[] = {m.min, m.mean, m.max, m.sum};
    for (std::size_t i = 0; i < 4; ++i) {
      os << ",\n  \""
         << prof::json_escape(with_label(m.key, "stat", kStats[i]))
         << "\": " << fmt_number(values[i]);
    }
  }
  os << "\n}\n";
  return os.str();
}

std::string event_json(const Event& e) {
  std::ostringstream os;
  os << "{\"solver\":\"" << prof::json_escape(e.solver) << "\""
     << ",\"kind\":\"" << prof::json_escape(e.kind) << "\""
     << ",\"sweep\":" << e.sweep << ",\"mode\":" << e.mode << ",\"ranks\":";
  append_int_array(os, e.ranks);
  os << ",\"ranks_after\":";
  append_int_array(os, e.ranks_after);
  os << ",\"rel_error\":" << fmt_number(e.rel_error)
     << ",\"rel_error_after\":" << fmt_number(e.rel_error_after)
     << ",\"seconds\":" << fmt_number(e.seconds)
     << ",\"core_analysis_seconds\":" << fmt_number(e.core_analysis_seconds)
     << ",\"flops\":" << fmt_number(e.flops)
     << ",\"comm_bytes\":" << fmt_number(e.comm_bytes)
     << ",\"compressed_size\":" << e.compressed_size
     << ",\"retries\":" << e.retries << ",\"fallbacks\":" << e.fallbacks
     << ",\"llsv_fallback\":" << (e.llsv_fallback ? "true" : "false")
     << ",\"satisfied\":" << (e.satisfied ? "true" : "false")
     << ",\"trace_id\":\"" << obs::trace_id_hex(e.trace_id) << "\""
     << ",\"detail\":\"" << prof::json_escape(e.detail) << "\"}";
  return os.str();
}

std::string events_jsonl(const Registry& r) {
  std::string out;
  for (const Event& e : r.events()) {
    out += event_json(e);
    out += '\n';
  }
  return out;
}

void write_metrics_json(const std::string& path,
                        const std::vector<Registry>& ranks) {
  std::ofstream out(path);
  RAHOOI_REQUIRE(out.good(), "cannot open metrics output file: " + path);
  out << metrics_json(ranks);
  RAHOOI_REQUIRE(out.good(), "failed writing metrics output file: " + path);
}

void write_events_jsonl(const std::string& path, const Registry& r) {
  std::ofstream out(path);
  RAHOOI_REQUIRE(out.good(), "cannot open event log output file: " + path);
  out << events_jsonl(r);
  RAHOOI_REQUIRE(out.good(),
                 "failed writing event log output file: " + path);
}

std::string events_path_for(const std::string& metrics_path) {
  static const std::string kJson = ".json";
  if (metrics_path.size() > kJson.size() &&
      metrics_path.compare(metrics_path.size() - kJson.size(), kJson.size(),
                           kJson) == 0) {
    return metrics_path + "l";
  }
  return metrics_path + ".jsonl";
}

bool metrics_value(const std::string& json, const std::string& key,
                   double* value) {
  return number_after_key(json, prof::json_escape(key), value);
}

bool validate_metrics_json(const std::string& json,
                           const std::vector<std::string>& required_keys,
                           const std::vector<std::string>& nonzero_keys,
                           std::string* error) {
  std::string syntax;
  if (!prof::validate_json_syntax(json, &syntax)) {
    return fail(error, "metrics JSON is " + syntax);
  }
  for (const std::string& key : required_keys) {
    if (!metrics_value(json, key, nullptr)) {
      return fail(error, "required metric missing: " + key);
    }
  }
  for (const std::string& key : nonzero_keys) {
    double v = 0.0;
    if (!metrics_value(json, key, &v)) {
      return fail(error, "required metric missing: " + key);
    }
    if (!(v > 0.0)) {
      return fail(error, "metric expected nonzero but is " + fmt_number(v) +
                             ": " + key);
    }
  }
  return true;
}

bool validate_events_jsonl(const std::string& jsonl, std::string* error) {
  static const char* kRequired[] = {
      "solver", "kind",       "sweep",   "mode",      "ranks",
      "ranks_after", "rel_error", "seconds", "flops",     "comm_bytes",
      "retries", "fallbacks",  "llsv_fallback", "satisfied", "trace_id"};
  std::map<std::string, int> last_sweep;  // "solver/kind" -> last index
  std::istringstream in(jsonl);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = "event line " + std::to_string(lineno);
    std::string syntax;
    if (!prof::validate_json_syntax(line, &syntax)) {
      return fail(error, where + " is " + syntax);
    }
    for (const char* key : kRequired) {
      if (line.find(std::string("\"") + key + "\"") == std::string::npos) {
        return fail(error,
                    where + " missing required key: " + std::string(key));
      }
    }
    // Sweep/iteration events must strictly record the relative error and
    // replay a sequential sweep index per (solver, kind).
    const bool stepwise = line.find("\"kind\":\"sweep\"") != std::string::npos ||
                          line.find("\"kind\":\"iteration\"") !=
                              std::string::npos;
    if (stepwise) {
      double rel = -1.0;
      if (!number_after_key(line, "rel_error", &rel) || !std::isfinite(rel) ||
          rel < 0.0) {
        return fail(error, where + " has no finite rel_error");
      }
      double sweep = 0.0;
      if (!number_after_key(line, "sweep", &sweep) || sweep < 1.0) {
        return fail(error, where + " has no positive sweep index");
      }
      std::string solver = "?";
      const std::size_t s0 = line.find("\"solver\":\"");
      if (s0 != std::string::npos) {
        const std::size_t v0 = s0 + 10;
        solver = line.substr(v0, line.find('"', v0) - v0);
      }
      const bool is_sweep = line.find("\"kind\":\"sweep\"") !=
                            std::string::npos;
      const std::string seq_key = solver + (is_sweep ? "/sweep" : "/iter");
      const int idx = static_cast<int>(sweep);
      auto it = last_sweep.find(seq_key);
      if (it != last_sweep.end() && idx != it->second + 1 && idx != 1) {
        return fail(error, where + " breaks the sweep sequence for " +
                               seq_key + ": " + std::to_string(it->second) +
                               " -> " + std::to_string(idx));
      }
      last_sweep[seq_key] = idx;
    }
  }
  return true;
}

}  // namespace rahooi::metrics
