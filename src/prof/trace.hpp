#pragma once
// Per-rank hierarchical trace profiler.
//
// A TraceSpan is a named RAII region. Spans nest; the chain of open spans on
// a thread forms a path ("ra/iteration[1]/sweep[1]/mode[0]/llsv/gram") and
// every closed span becomes one TraceEvent holding wall time plus the deltas
// of the thread's flop and per-CollectiveKind byte counters (common/stats),
// so each span knows exactly how much compute and communication happened
// inside it. Events accumulate in a per-rank Recorder, installed per rank
// thread like ScopedStats; report.hpp aggregates recorders across ranks and
// exports Chrome trace_event JSON and CSV.
//
// Spans deliberately *snapshot* the existing stats counters instead of
// owning their own: the kernels already report flops/bytes exactly once to
// one thread-local registry, and a span only needs the difference between
// its two endpoints (see DESIGN.md §8).
//
// Overhead when no Recorder is installed:
//   * untagged spans (comm collectives, dist kernels) reduce to one
//     thread-local load and a branch — no clock read, no allocation;
//   * phase-tagged spans additionally keep the Stats per-phase seconds
//     attribution working, which costs two clock reads. They are the only
//     phase-timing site in the library.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace rahooi::prof {

/// One closed span. Times are absolute stats::now() seconds (monotonic,
/// shared across all rank threads of the process, so cross-rank lanes line
/// up in the Chrome trace).
struct TraceEvent {
  std::string path;   ///< full span path, components joined with '/'
  std::string name;   ///< leaf component, e.g. "gram" or "mode[2]"
  int depth = 0;      ///< 0 for root spans
  int phase = -1;     ///< static_cast<int>(Phase) for tagged spans, else -1
  double start = 0.0;      ///< absolute start time [s]
  double seconds = 0.0;    ///< inclusive duration [s]
  double flops = 0.0;      ///< flops recorded while the span was open
  /// Bytes this rank sent per collective kind while the span was open.
  std::array<double, kCollectiveCount> comm_bytes{};
  std::uint64_t messages = 0;  ///< collective calls while the span was open

  double total_comm_bytes() const;
};

/// Per-rank event sink. Install with ScopedRecorder on the rank's thread;
/// one Recorder must only ever be driven by one thread at a time.
class Recorder {
 public:
  explicit Recorder(int rank = 0) : rank_(rank) {}

  int rank() const { return rank_; }
  void set_rank(int rank) { rank_ = rank; }

  /// Trace context the recorder's events were produced under (0 = none).
  /// Set by Runtime::run from RunOptions::trace_id; the Chrome exporter
  /// stamps it into the process label so per-job traces are greppable by
  /// the same id as the metrics event log (docs/OBSERVABILITY.md).
  std::uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Path of the currently open span chain ("" when none). Read by the
  /// collective hang watchdog to report *where* a parked rank is stuck.
  std::string_view current_path() const { return path_; }

  /// Wall seconds attributed per Phase with innermost-tag semantics: a
  /// tagged span contributes its duration minus the durations of tagged
  /// spans nested inside it, so the array sums to root-span time with no
  /// double counting (the TuckerMPI-timer-style breakdown the Fig. 3/5/7/9
  /// benches read).
  const std::array<double, kPhaseCount>& phase_seconds() const {
    return phase_seconds_;
  }

  /// Appends a pre-built event (aggregation/export tests construct known
  /// inputs this way; live tracing goes through TraceSpan).
  void add_event(TraceEvent e) { events_.push_back(std::move(e)); }

  void clear();

  // -- TraceSpan internals -------------------------------------------------

  /// Opens a span: extends the current path and returns the open-span index.
  std::size_t open(std::string_view name, std::int64_t index);

  /// Closes the innermost span, emitting its TraceEvent. `self_seconds` is
  /// the phase-attributed self time computed by the span (0 for untagged).
  void close(double start, double seconds, double flops,
             const std::array<double, kCollectiveCount>& comm_bytes,
             std::uint64_t messages, int phase, double self_seconds);

 private:
  struct OpenSpan {
    std::size_t path_len;  ///< path_ length before this component
    std::size_t name_len;  ///< component length (path_ suffix)
  };

  int rank_ = 0;
  std::uint64_t trace_id_ = 0;
  std::string path_;
  std::vector<OpenSpan> open_;
  std::vector<TraceEvent> events_;
  std::array<double, kPhaseCount> phase_seconds_{};
};

/// The current thread's Recorder, or nullptr (tracing disabled).
Recorder* recorder();

/// Installs `r` as the current thread's Recorder for the lifetime of the
/// scope, restoring the previous one on destruction (like ScopedStats).
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder& r);
  ~ScopedRecorder();

  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* prev_;
};

/// RAII trace region. Optional `index` renders as "name[index]" in the
/// path (per-mode / per-iteration spans); optional Phase tag makes the span
/// also drive the Stats phase attribution (flops, bytes, and per-phase
/// seconds, innermost-wins), with or without a Recorder installed.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) : TraceSpan(name, -1, -1) {}
  TraceSpan(std::string_view name, Phase phase)
      : TraceSpan(name, -1, static_cast<int>(phase)) {}
  TraceSpan(std::string_view name, std::int64_t index)
      : TraceSpan(name, index, -1) {}
  TraceSpan(std::string_view name, std::int64_t index, Phase phase)
      : TraceSpan(name, index, static_cast<int>(phase)) {}
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSpan(std::string_view name, std::int64_t index, int phase);

  Recorder* rec_;          ///< nullptr when tracing is disabled
  int phase_;              ///< -1 when untagged
  Phase prev_phase_{};     ///< restored on close (tagged spans only)
  double start_ = 0.0;
  double flops0_ = 0.0;
  std::uint64_t messages0_ = 0;
  std::array<double, kCollectiveCount> bytes0_{};
};

}  // namespace rahooi::prof
