#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.hpp"

namespace e2e {

bool parse_args(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      out->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      out->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      out->trace = std::strtol(val.c_str(), &end, 10) != 0;
    } else if (key == "--size") {
      if (val != "tiny" && val != "full") {
        std::fprintf(stderr, "--size must be tiny or full\n");
        return false;
      }
      out->tiny = val == "tiny";
      continue;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(), val.c_str());
      return false;
    }
  }
  if (!have_workload || !(out->seconds > 0.0)) {
    std::fprintf(stderr, "usage: --workload W --seed N --seconds S "
                         "--trace 0|1 [--size tiny|full]\n");
    return false;
  }
  return true;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t index) {
  // Clear the top bit: the library's parameter files carry seeds as signed
  // 64-bit integers.
  return rahooi::CounterRng(seed).stream(tag).bits(index) >> 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - static_cast<std::size_t>(q * double(n - 1));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::size_t l3_bytes() {
  const long sc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return sc > 0 ? static_cast<std::size_t>(sc) : (std::size_t{32} << 20);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + json_number(v[i]);
  }
  return out + "]";
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Result::outcome(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "[e2ebench] FAILED: %s\n", what.c_str());
  }
}

void Result::record(const std::string& key, const std::string& json_value) {
  record_[key] = json_value;
}

void Result::record(const std::string& key, double value) {
  record_[key] = json_number(value);
}

void Result::print(const Args& args) const {
  std::string rec = "{\"workload\": " + json_string(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + json_number(args.seconds) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"size\": " + (args.tiny ? "\"tiny\"" : "\"full\"") +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"l3_bytes\": " + std::to_string(l3_bytes()) +
                    ", \"build_type\": " + json_string(RAHOOI_E2E_BUILD_TYPE) +
                    ", \"RAHOOI_NATIVE_ARCH\": " +
                    (RAHOOI_E2E_NATIVE_ARCH ? "true" : "false") +
                    ", \"failed_frac\": " +
                    json_number(attempted_ ? double(failed_) / attempted_ : 1);
  for (const auto& [key, value] : record_) {
    rec += ", " + json_string(key) + ": " + value;
  }
  rec += ", \"samples\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    rec += (first ? "" : ", ") + json_string(name) + ": " +
           std::to_string(m.samples);
    first = false;
  }
  rec += "}}";
  std::printf("run_record %s\n", rec.c_str());

  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace e2e
