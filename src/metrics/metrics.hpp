#pragma once
// rahooi::metrics — per-rank runtime metrics registry (docs/OBSERVABILITY.md).
//
// Complements the prof tracer: prof answers "where did wall time go" while
// metrics answers "how much" — monotonic counters, gauges with high-water
// (peak) tracking, log2-bucketed histograms, byte-accounted memory scopes,
// and a structured solver-telemetry event log. One Registry per rank thread,
// installed with ScopedRegistry exactly like prof::ScopedRecorder; every
// instrument site starts with one thread-local load (`registry()`) and a
// branch, so the metrics-off cost is a single relaxed load per site
// (guarded <1% by `bench_overhead_guard metrics_guard`). A Registry is only
// ever mutated by its own rank thread — no locks anywhere on the hot path.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/flight_recorder.hpp"

namespace rahooi::metrics {

// ---------------------------------------------------------------------------
// Fixed metric slots
// ---------------------------------------------------------------------------

/// Named byte-accounting scopes for the allocator wrapper (TrackedBytes).
/// Every tracked allocation is charged to the thread's current scope.
enum class MemScope : int {
  tensor = 0,    ///< plain tensor::Tensor buffers (replicated / scratch)
  dist_tensor,   ///< DistTensor local blocks
  pack_buffer,   ///< communication packing buffers (dist_ops, AlignedBuffer)
  checkpoint,    ///< checkpoint writer payloads
  dt_memo,       ///< dimension-tree memoized partial TTM chains (paper C3)
  count_
};
constexpr int kMemScopeCount = static_cast<int>(MemScope::count_);

const char* mem_scope_name(MemScope s);

/// Fixed hot-path monotonic counters.
enum class Counter : int {
  fault_retries = 0,  ///< transient-fault retries taken by fault::with_retry
  solver_fallbacks,   ///< LLSV fallback decisions taken by leaf_update
  solver_sweeps,      ///< completed HOOI sweeps
  checkpoint_writes,  ///< checkpoints saved
  // Serving-layer SLO counters (src/serve/, docs/SERVING.md). Mutated by the
  // serve::Scheduler on its own registry under the scheduler mutex — the
  // documented exception to the one-rank-thread ownership contract.
  serve_submitted,        ///< jobs accepted by Scheduler::submit
  serve_completed,        ///< jobs that ran a solve to completion
  serve_cache_hits,       ///< jobs answered from the result cache
  serve_shed,             ///< jobs load-shed (queue full / evicted / shutdown)
  serve_deadline_misses,  ///< jobs expired before dispatch or overrun after
  serve_failed,           ///< jobs whose solve threw (fault, bad request)
  serve_retries,          ///< transient-failure requeues (retry-with-resume)
  serve_resumes,          ///< dispatches that restored a job checkpoint
  serve_preemptions,      ///< running jobs checkpoint-yielded to a high job
  count_
};
constexpr int kCounterCount = static_cast<int>(Counter::count_);

const char* counter_name(Counter c);

/// Latency stages of one serve job (docs/SERVING.md): queue = submit to
/// dispatch, solve = dispatch to result, total = submit to result.
enum class ServeStage : int { queue = 0, solve, total, count_ };
constexpr int kServeStageCount = static_cast<int>(ServeStage::count_);

const char* serve_stage_name(ServeStage s);

// ---------------------------------------------------------------------------
// Histogram / gauge primitives
// ---------------------------------------------------------------------------

/// Log2-bucketed histogram. Bucket i covers values in [2^(i-32), 2^(i-31));
/// bucket 0 collects everything below 2^-32 (including zero). The range
/// spans sub-nanosecond latencies to multi-gigabyte payloads with one
/// scheme, so bytes and seconds share the type.
struct Histogram {
  static constexpr std::size_t kBuckets = 64;
  static constexpr int kMinExponent = -32;  ///< pow2 exponent of bucket 0

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  static std::size_t bucket_of(double v);

  void record(double v) {
    if (count == 0 || v < min) min = v;
    if (count == 0 || v > max) max = v;
    ++count;
    sum += v;
    ++buckets[bucket_of(v)];
  }

  double mean() const { return count == 0 ? 0.0 : sum / double(count); }

  /// Estimated q-quantile (q in [0, 1]) by cumulative bucket walk with
  /// linear interpolation inside the landing bucket [2^(i-32), 2^(i-31)),
  /// clamped to the observed [min, max] — so p50/p95/p99 come out of the
  /// log2 buckets without storing samples (docs/OBSERVABILITY.md). Returns
  /// 0 for an empty histogram.
  double quantile(double q) const;
};

/// Gauge with high-water tracking. `live` may transiently underflow if a
/// tracked allocation outlives the registry it was charged to; clamp at 0
/// rather than report nonsense.
struct Gauge {
  double live = 0.0;
  double peak = 0.0;

  void add(double v) {
    live += v;
    if (live > peak) peak = live;
  }
  void sub(double v) {
    live -= v;
    if (live < 0.0) live = 0.0;
  }
};

/// Per-collective-kind instrumentation: call count plus bytes/seconds
/// histograms. `seconds` measures the full park-to-unpark latency of the
/// collective (the time the rank spent inside it, including waiting).
struct CollectiveMetrics {
  std::uint64_t calls = 0;
  Histogram bytes;
  Histogram seconds;
};

// ---------------------------------------------------------------------------
// Solver telemetry events
// ---------------------------------------------------------------------------

/// One structured solver-telemetry event (one line of the JSONL log).
/// Field semantics by kind:
///  * "sweep"     — one fixed-rank HOOI sweep (hooi / within RA iterations).
///  * "iteration" — one rank-adaptive outer iteration (superset of
///                  RaIterationRecord so the fig4/6/8 benches can read their
///                  trajectories from the log).
///  * "solve"     — one whole ST-HOSVD solve.
struct Event {
  std::string solver;  ///< "hooi", "ra", "sthosvd"
  std::string kind;    ///< "sweep", "iteration", "solve"
  int sweep = 0;       ///< 1-based sweep / iteration index
  int mode = -1;       ///< mode index when the event is mode-scoped
  std::vector<std::int64_t> ranks;        ///< ranks used by this step
  std::vector<std::int64_t> ranks_after;  ///< ranks after truncation/growth
  double rel_error = -1.0;        ///< relative error after this step
  double rel_error_after = -1.0;  ///< after truncation (RA satisfied path)
  double seconds = 0.0;
  double core_analysis_seconds = 0.0;
  double flops = 0.0;       ///< flops spent during this step (stats delta)
  double comm_bytes = 0.0;  ///< collective bytes moved during this step
  std::int64_t compressed_size = 0;
  std::uint64_t retries = 0;    ///< transient retries during this step
  std::uint64_t fallbacks = 0;  ///< LLSV fallback decisions during this step
  bool llsv_fallback = false;   ///< any fallback used during this step
  bool satisfied = false;       ///< RA tolerance satisfied after this step
  /// Trace context the event was emitted under (docs/OBSERVABILITY.md): 0
  /// outside any context; under a serve job's world, the job's minted id.
  /// Filled automatically by Registry::add_event from the thread's
  /// obs::trace_id() unless the emitter set it explicitly.
  std::uint64_t trace_id = 0;
  std::string detail;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Per-rank metrics store. Mutated only by the owning rank thread; read by
/// the host after Runtime::run joins (same contract as prof::Recorder).
class Registry {
 public:
  explicit Registry(int rank = 0) : rank_(rank) {}

  int rank() const { return rank_; }
  void set_rank(int r) { rank_ = r; }

  // Collectives (hot path).
  void record_collective(CollectiveKind k, double bytes, double seconds) {
    CollectiveMetrics& m = collectives_[static_cast<std::size_t>(k)];
    ++m.calls;
    m.bytes.record(bytes);
    m.seconds.record(seconds);
  }
  const CollectiveMetrics& collective(CollectiveKind k) const {
    return collectives_[static_cast<std::size_t>(k)];
  }

  // Memory gauges (hot path).
  void mem_acquire(MemScope s, double bytes) {
    gauges_[static_cast<std::size_t>(s)].add(bytes);
  }
  void mem_release(MemScope s, double bytes) {
    gauges_[static_cast<std::size_t>(s)].sub(bytes);
  }
  const Gauge& gauge(MemScope s) const {
    return gauges_[static_cast<std::size_t>(s)];
  }

  // Serving-layer instrumentation (src/serve/): queue-depth gauge and
  // per-stage job-latency histograms. Cold path — the scheduler mutates its
  // own registry under the scheduler mutex, never from rank threads.
  void serve_queue_add(double n = 1.0) { serve_queue_.add(n); }
  void serve_queue_sub(double n = 1.0) { serve_queue_.sub(n); }
  const Gauge& serve_queue() const { return serve_queue_; }
  void record_serve_stage(ServeStage s, double seconds) {
    serve_stages_[static_cast<std::size_t>(s)].record(seconds);
  }
  const Histogram& serve_stage(ServeStage s) const {
    return serve_stages_[static_cast<std::size_t>(s)];
  }

  // Fixed counters (hot path).
  void count(Counter c, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(c)] += n;
  }
  std::uint64_t counter(Counter c) const {
    return counters_[static_cast<std::size_t>(c)];
  }

  // Named counters (cold path — setup/report code only).
  void add_named(const std::string& name, double v) { named_[name] += v; }
  const std::map<std::string, double>& named() const { return named_; }

  // Telemetry events. Every event is tagged with the emitting thread's
  // trace context (unless the emitter already set one) — the central join
  // point that makes the JSONL log filterable per serve job.
  void add_event(Event e) {
    if (e.trace_id == 0) e.trace_id = obs::trace_id();
    events_.push_back(std::move(e));
  }
  const std::vector<Event>& events() const { return events_; }

  void clear();

 private:
  int rank_ = 0;
  std::array<CollectiveMetrics, kCollectiveCount> collectives_{};
  std::array<Gauge, static_cast<std::size_t>(kMemScopeCount)> gauges_{};
  Gauge serve_queue_{};
  std::array<Histogram, static_cast<std::size_t>(kServeStageCount)>
      serve_stages_{};
  std::array<std::uint64_t, static_cast<std::size_t>(kCounterCount)>
      counters_{};
  std::map<std::string, double> named_;
  std::vector<Event> events_;
};

/// The calling thread's installed registry, or nullptr when metrics are off.
/// This load-and-branch is the entire off-mode cost of every instrument
/// site.
Registry* registry();

/// Installs `r` as the calling thread's registry for the lifetime of the
/// scope (restores the previous one on destruction). Mirrors
/// prof::ScopedRecorder.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& r);
  ~ScopedRegistry();

  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

/// The calling thread's current allocation scope (MemScope::tensor unless a
/// MemScopeGuard is active).
MemScope current_mem_scope();

/// Charges tracked allocations in the enclosing scope to `s`.
class MemScopeGuard {
 public:
  explicit MemScopeGuard(MemScope s);
  ~MemScopeGuard();

  MemScopeGuard(const MemScopeGuard&) = delete;
  MemScopeGuard& operator=(const MemScopeGuard&) = delete;

 private:
  MemScope prev_;
};

/// DistTensor local blocks are charged to dist_tensor unless an explicit
/// scope (e.g. dt_memo) is active: maps the ambient scope for a DistTensor
/// construction site.
inline MemScope dist_scope() {
  const MemScope s = current_mem_scope();
  return s == MemScope::tensor ? MemScope::dist_tensor : s;
}

/// Byte-accounted allocation tag: the allocator wrapper the tensor/la
/// containers embed. acquire() charges `bytes` to the thread's current
/// scope on the thread's current registry; the destructor (or release())
/// credits them back. Copying re-acquires under the source's scope; moving
/// transfers the accounting. If no registry is installed at acquire time the
/// tag stays inert. Release uses the *releasing* thread's registry, so a
/// tracked buffer must be freed on the rank thread that allocated it (true
/// for all rahooi containers; documented in docs/OBSERVABILITY.md).
class TrackedBytes {
 public:
  TrackedBytes() = default;
  ~TrackedBytes() { release(); }

  TrackedBytes(const TrackedBytes& o) { acquire_as(o.scope_of(), o.bytes_); }
  TrackedBytes& operator=(const TrackedBytes& o) {
    if (this != &o) {
      release();
      acquire_as(o.scope_of(), o.bytes_);
    }
    return *this;
  }
  TrackedBytes(TrackedBytes&& o) noexcept
      : scope_(o.scope_), bytes_(o.bytes_) {
    o.scope_ = kUntracked;
    o.bytes_ = 0.0;
  }
  TrackedBytes& operator=(TrackedBytes&& o) noexcept {
    if (this != &o) {
      release();
      scope_ = o.scope_;
      bytes_ = o.bytes_;
      o.scope_ = kUntracked;
      o.bytes_ = 0.0;
    }
    return *this;
  }

  /// Charges `bytes` to the thread's current scope (replacing any prior
  /// charge held by this tag).
  void acquire(double bytes) { acquire_as(current_mem_scope(), bytes); }

  /// Charges `bytes` to an explicit scope.
  void acquire_as(MemScope s, double bytes) {
    release();
    bytes_ = bytes;
    if (Registry* reg = registry()) {
      scope_ = static_cast<int>(s);
      reg->mem_acquire(s, bytes_);
    }
  }

  /// Moves the held charge to scope `s` (no-op when untracked).
  void retag(MemScope s) {
    if (scope_ == kUntracked || scope_ == static_cast<int>(s)) return;
    if (Registry* reg = registry()) {
      reg->mem_release(static_cast<MemScope>(scope_), bytes_);
      reg->mem_acquire(s, bytes_);
      scope_ = static_cast<int>(s);
    }
  }

  void release() {
    if (scope_ != kUntracked) {
      if (Registry* reg = registry()) {
        reg->mem_release(static_cast<MemScope>(scope_), bytes_);
      }
      scope_ = kUntracked;
    }
    bytes_ = 0.0;
  }

  double bytes() const { return bytes_; }

 private:
  static constexpr int kUntracked = -1;

  MemScope scope_of() const {
    return scope_ == kUntracked ? current_mem_scope()
                                : static_cast<MemScope>(scope_);
  }

  int scope_ = kUntracked;  ///< charged scope, kUntracked when inert
  double bytes_ = 0.0;
};

/// Scope-bound byte charge for containers that cannot embed a TrackedBytes
/// (e.g. std::vector pack buffers): charges on construction, credits on
/// destruction.
class ScopedBytes {
 public:
  ScopedBytes(MemScope s, double bytes) { tag_.acquire_as(s, bytes); }

 private:
  TrackedBytes tag_;
};

}  // namespace rahooi::metrics
