#pragma once
// rahooi::obs — per-rank flight recorder and trace-context propagation
// (docs/OBSERVABILITY.md "The live plane").
//
// The flight recorder is the post-mortem half of the live observability
// plane: an always-on, fixed-size ring of the last ~256 notable events on a
// rank thread — span begin/end, collective post/complete (with payload
// bytes), fault-injection hits, checkpoint writes, preemption yields. When a
// world dies (AbortedError / TimeoutError / PreemptedError), Runtime::run
// snapshots every rank's ring into RunOptions::failures and the serve
// scheduler forwards them into the job's SolveReport — "what was every rank
// doing in its last N events" without any tracing switched on. The watchdog
// park report renders the same rings live.
//
// Cost contract (`bench_overhead_guard obs_guard`, ctest `obs-smoke`): like
// the metrics registry, every instrument site starts with one thread-local
// load and a branch (`flight_recorder() == nullptr`), and a recording is one
// fetch_add, one uncontended slot-claim CAS, and a fixed number of relaxed
// word stores — no locks, no allocation, <1% on the solver hot path with the
// recorder installed.
//
// Trace context: a per-job trace id minted by serve::Scheduler rides
// comm::RunOptions::trace_id into the world; Runtime::run installs it on
// every rank thread (ScopedTraceContext), where metrics events, solver
// reports, and prof recorders pick it up — joining serve-level stage records
// and rank-level telemetry into one end-to-end request timeline
// (obs::merge_trace).

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace rahooi::obs {

/// What a flight-recorder record describes.
enum class RecordKind : int {
  span_begin = 0,       ///< prof::TraceSpan opened (profiled runs only)
  span_end,             ///< prof::TraceSpan closed
  collective_post,      ///< rank entered a collective (CollectiveScope)
  collective_complete,  ///< collective finished on this rank (with bytes)
  fault_hit,            ///< a fault-injection rule fired at this site
  checkpoint,           ///< a checkpoint write (or restore) completed
  yield,                ///< cooperative preemption yield at a sweep boundary
  count_
};
constexpr int kRecordKindCount = static_cast<int>(RecordKind::count_);

const char* record_kind_name(RecordKind k);

/// One flight-recorder entry. Trivially copyable: the ring overwrites slots
/// in place and snapshots memcpy them out. `op` is a truncated copy of the
/// site name (collective op, span leaf, fault site, checkpoint path tail).
struct Record {
  static constexpr std::size_t kOpChars = 24;

  std::uint64_t seq = 0;  ///< monotonic per recorder, 0-based
  double time = 0.0;      ///< stats::now() at recording
  RecordKind kind = RecordKind::span_begin;
  double bytes = 0.0;     ///< collective payload bytes (0 when n/a)
  char op[kOpChars] = {};  ///< NUL-terminated, truncated site name
};

/// One rank's snapshotted flight-recorder timeline, as attached to
/// comm::RankFailure / serve::SolveReport and consumed by obs::merge_trace.
/// `records` are oldest-to-newest; seq numbers are contiguous — the ring
/// holds exactly the last min(total, capacity) records, so
/// records.front().seq == dropped and records.back().seq == total - 1.
struct RankTimeline {
  int rank = 0;
  std::uint64_t trace_id = 0;  ///< trace context the rank ran under (0 = none)
  std::uint64_t total = 0;     ///< records ever written
  std::uint64_t dropped = 0;   ///< overwritten by ring wrap: total - size
  std::vector<Record> records;
};

/// Fixed-capacity lock-free ring of the rank's last records. Writes come
/// from the owning rank thread (the fast path); snapshot() may run from any
/// thread (the watchdog, the host after join). Each slot is a seqlock: the
/// stamp is claimed by CAS before the payload is written word-by-word
/// through relaxed atomics, so a concurrent snapshot skips records caught
/// mid-overwrite (validated stamp before/after the copy) and a writer that
/// loses a claim race across wrap epochs drops its record rather than mix
/// payloads. A live snapshot is therefore best-effort while a quiesced one
/// (after Runtime::run joins, single writer) is exact.
class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 256;

  explicit FlightRecorder(int rank = 0) : rank_(rank) {}

  int rank() const { return rank_; }
  void set_rank(int r) { rank_ = r; }

  /// Trace context the owning rank thread runs under, stamped into
  /// timeline() snapshots (set by Runtime::run alongside set_rank, so
  /// host-side capture after join still knows the id).
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }

  /// Appends one record. Lock-free: one fetch_add allocates the sequence
  /// number, a CAS claims the slot's stamp, and the new seq is published
  /// with release ordering after the payload write. If another writer holds
  /// the slot's claim (only possible with multiple writer threads colliding
  /// exactly kCapacity records apart) the record is dropped rather than
  /// blocked on. `op` is truncated to Record::kOpChars - 1 characters.
  void record(RecordKind kind, std::string_view op, double bytes = 0.0);

  /// Records ever written (including overwritten ones).
  std::uint64_t total() const {
    return total_.load(std::memory_order_acquire);
  }

  /// Records lost to ring wrap: total() - retained.
  std::uint64_t dropped() const {
    const std::uint64_t t = total();
    return t > kCapacity ? t - kCapacity : 0;
  }

  /// Copies the retained records oldest-to-newest. Exact when the writer
  /// thread has quiesced; live reads skip slots caught mid-overwrite.
  std::vector<Record> snapshot() const;

  /// snapshot() packaged with the counters and the thread's current trace
  /// id, ready for a failure report.
  RankTimeline timeline() const;

  void clear();

 private:
  struct Slot {
    /// Payload is stored as relaxed atomic words (a seqlock) so a snapshot
    /// racing the writer reads defined — if possibly stale — bytes and the
    /// stamp validation decides whether the copy was torn.
    static constexpr std::size_t kWords = (sizeof(Record) + 7) / 8;

    std::atomic<std::uint64_t> stamp{0};  ///< seq + 1; 0 = never written;
                                          ///< ~0 = claimed by a writer
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  int rank_ = 0;
  std::uint64_t trace_id_ = 0;
  std::atomic<std::uint64_t> total_{0};
  std::array<Slot, kCapacity> ring_{};
};

/// The calling thread's installed flight recorder, or nullptr. This
/// load-and-branch is the entire cost of every instrument site when no
/// recorder is installed (bare library use outside Runtime::run).
FlightRecorder* flight_recorder();

/// Installs `r` as the calling thread's flight recorder for the lifetime of
/// the scope (restores the previous one on destruction) — installed by
/// Runtime::run on every rank thread, like metrics::ScopedRegistry.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder& r);
  /// Pointer form: `r == nullptr` suppresses recording for the scope — the
  /// off-leg of the obs_guard overhead comparison inside a world
  /// (where Runtime::run always installs a recorder).
  explicit ScopedFlightRecorder(FlightRecorder* r);
  ~ScopedFlightRecorder();

  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* prev_;
};

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// The calling thread's trace id (0 = no trace context installed). Read at
/// telemetry-emission sites (metrics::Registry::add_event, solver reports)
/// so everything produced under a serve job's world carries the job's id.
std::uint64_t trace_id();

/// Installs `id` as the calling thread's trace context for the lifetime of
/// the scope — installed by Runtime::run from RunOptions::trace_id.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(std::uint64_t id);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  std::uint64_t prev_;
};

/// FNV-1a trace-id mint over an id/seq pair — the serve scheduler hashes
/// (job id, submit seq) so ids are stable across replays of one scenario
/// and never collide within a scheduler's lifetime in practice.
std::uint64_t mint_trace_id(std::uint64_t job_id, std::uint64_t submit_seq);

}  // namespace rahooi::obs
