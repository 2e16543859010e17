#pragma once
// Flop and communication instrumentation.
//
// Every linear-algebra kernel reports the flops it performs and every
// collective reports the bytes it moves, attributed to the algorithmic phase
// (Gram, EVD, TTM, ...) that is currently active. Benchmarks compare these
// measured counters against the paper's leading-order formulas (Tables 1-2)
// and feed them into the machine model that extrapolates strong scaling
// beyond the core count available on this machine.
//
// Counters are per-thread (each simulated rank is a thread), installed via
// RAII. A kernel run outside any installed Stats object is simply not
// counted, so instrumentation adds no overhead to untracked code paths.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rahooi {

/// Algorithmic phase a flop or message is attributed to. The split mirrors
/// the running-time breakdowns of Figs. 3, 5, 7, 9 in the paper.
enum class Phase : int {
  ttm,            ///< tensor-times-matrix multiplications
  gram,           ///< Gram matrix formation (LLSV via Gram+EVD)
  evd,            ///< sequential symmetric eigendecomposition
  qr,             ///< sequential QR / QR with column pivoting
  contraction,    ///< subspace-iteration contraction Y_(j) G_(j)^T
  core_analysis,  ///< rank-adaptive core analysis (prefix sums + search)
  other,
  count_
};

constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::count_);

/// Human-readable phase name, e.g. for CSV headers.
const char* phase_name(Phase p);

/// Communication primitive, for per-collective byte accounting (Table 2).
enum class CollectiveKind : int {
  bcast,
  reduce,
  allreduce,
  reduce_scatter,
  allgather,
  alltoall,
  point_to_point,
  count_
};

constexpr std::size_t kCollectiveCount =
    static_cast<std::size_t>(CollectiveKind::count_);

const char* collective_name(CollectiveKind k);

/// Per-rank measurement record.
struct Stats {
  /// Flops attributed to each phase. EVD and QR flops are sequential
  /// (replicated on each rank in the TuckerMPI scheme); the rest are the
  /// local share of parallel work.
  std::array<double, kPhaseCount> flops{};

  /// Bytes this rank sends per collective kind, using the communication
  /// volume of the standard algorithm for that collective (ring allgather,
  /// recursive-halving reduce-scatter, Rabenseifner allreduce, ...).
  std::array<double, kCollectiveCount> comm_bytes{};

  /// Bytes attributed per algorithmic phase (a reduce-scatter issued during
  /// a TTM counts toward Phase::ttm).
  std::array<double, kPhaseCount> comm_bytes_by_phase{};

  /// Number of collective calls per kind (latency term of the alpha-beta
  /// model).
  std::array<std::uint64_t, kCollectiveCount> messages{};

  /// Wall seconds attributed per phase (filled by phase-tagged
  /// prof::TraceSpan regions, innermost-wins).
  std::array<double, kPhaseCount> seconds{};

  double total_flops() const;
  double total_comm_bytes() const;
  double total_seconds() const;

  /// Flops in phases that execute sequentially (replicated) per the
  /// TuckerMPI scheme: EVD and QR.
  double sequential_flops() const;

  /// Flops in phases whose work is divided across ranks.
  double parallel_flops() const;

  Stats& operator+=(const Stats& o);

  void reset();
};

/// Installs `s` as the current thread's collection target for the lifetime
/// of the scope. Nesting installs the innermost target.
class ScopedStats {
 public:
  explicit ScopedStats(Stats& s);
  ~ScopedStats();

  ScopedStats(const ScopedStats&) = delete;
  ScopedStats& operator=(const ScopedStats&) = delete;

 private:
  Stats* prev_;
};

namespace stats {

/// The current thread's collection target, or nullptr.
Stats* current();

/// Record `n` flops against the active phase (no-op when untracked).
void add_flops(double n);

/// Record a collective: `bytes` sent by this rank, one message.
void add_comm(CollectiveKind k, double bytes);

/// Monotonic clock in seconds (shared by all timing in the library —
/// Stopwatch, prof::TraceSpan, comm::CollectiveScope). Backed by
/// steady_clock, so elapsed times can never go negative under wall-clock
/// adjustment, and the epoch is process-wide: timestamps taken on different
/// rank threads are directly comparable (the Chrome-trace lanes rely on
/// this).
double now();

/// Sets this thread's attribution phase, returning the previous one.
/// Phase-tagged prof::TraceSpan regions are the scoped way to set it.
Phase swap_phase(Phase p);

}  // namespace stats

}  // namespace rahooi
