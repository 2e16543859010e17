#pragma once
// Shared plumbing of the end-to-end benchmark: command-line arguments, seed
// derivation, order statistics, the machine/run record, and the result
// accumulator that prints the final JSON line (see ../README.md).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring budget of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool tiny = false;      ///< smoke-test sizes (seconds, not minutes)
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--size tiny|full]`.
/// Returns false (after printing the reason to stderr) on bad input.
bool parse_args(int argc, char** argv, Args* out);

/// Independent 64-bit seed for one purpose (`tag`) and index of a run seeded
/// with `seed` — the only source of randomness in the benchmark, so the seed
/// argument alone decides inputs, solver init seeds and the serve job mix.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t index = 0);

enum SeedTag : std::uint64_t {
  kDataSeed = 0xD1,
  kInitSeed = 0x15,
  kMixSeed = 0x3C,
};

double median(std::vector<double> v);
/// Percentile (q in [0, 1]) interpolated linearly between the order
/// statistics around position q (n - 1), as numpy's default does.
double percentile(std::vector<double> v, double q);
/// Number of samples above the q-percentile position.
std::size_t samples_beyond(std::size_t n, double q);

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();
/// Last-level cache size in bytes (sysconf, else 32 MiB).
std::size_t l3_bytes();

/// FNV-1a over a byte range — input fingerprints for the seed check.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull);

/// Metrics, correctness checks and the run record of one benchmark run.
class Result {
 public:
  /// Records a metric with its unit and the number of samples behind it.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// One attempted operation (a solve, a serve job, or a run-level check)
  /// whose correctness checks all passed (`ok`) or not. Counts toward
  /// `attempted` and, when !ok, toward `failed`; `what` names the failure
  /// on stderr.
  void outcome(bool ok, const std::string& what);
  /// Adds a key to the run record (printed before the result line).
  void record(const std::string& key, const std::string& json_value);
  void record(const std::string& key, double value);

  bool has_metric(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  /// Prints the run record line and, last, the result JSON line.
  void print(const Args& args) const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> record_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

std::string json_string(const std::string& s);
std::string json_array(const std::vector<double>& v);

}  // namespace e2e
