#include "common/stats.hpp"

#include <chrono>
#include <numeric>

namespace rahooi {

namespace {

thread_local Stats* tls_stats = nullptr;
thread_local Phase tls_phase = Phase::other;

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::ttm: return "ttm";
    case Phase::gram: return "gram";
    case Phase::evd: return "evd";
    case Phase::qr: return "qr";
    case Phase::contraction: return "contraction";
    case Phase::core_analysis: return "core_analysis";
    case Phase::other: return "other";
    case Phase::count_: break;
  }
  return "?";
}

const char* collective_name(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::bcast: return "bcast";
    case CollectiveKind::reduce: return "reduce";
    case CollectiveKind::allreduce: return "allreduce";
    case CollectiveKind::reduce_scatter: return "reduce_scatter";
    case CollectiveKind::allgather: return "allgather";
    case CollectiveKind::alltoall: return "alltoall";
    case CollectiveKind::point_to_point: return "p2p";
    case CollectiveKind::count_: break;
  }
  return "?";
}

double Stats::total_flops() const {
  return std::accumulate(flops.begin(), flops.end(), 0.0);
}

double Stats::total_comm_bytes() const {
  return std::accumulate(comm_bytes.begin(), comm_bytes.end(), 0.0);
}

double Stats::total_seconds() const {
  return std::accumulate(seconds.begin(), seconds.end(), 0.0);
}

double Stats::sequential_flops() const {
  return flops[static_cast<int>(Phase::evd)] +
         flops[static_cast<int>(Phase::qr)];
}

double Stats::parallel_flops() const {
  return total_flops() - sequential_flops();
}

Stats& Stats::operator+=(const Stats& o) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    flops[i] += o.flops[i];
    comm_bytes_by_phase[i] += o.comm_bytes_by_phase[i];
    seconds[i] += o.seconds[i];
  }
  for (std::size_t i = 0; i < kCollectiveCount; ++i) {
    comm_bytes[i] += o.comm_bytes[i];
    messages[i] += o.messages[i];
  }
  return *this;
}

void Stats::reset() { *this = Stats{}; }

ScopedStats::ScopedStats(Stats& s) : prev_(tls_stats) { tls_stats = &s; }
ScopedStats::~ScopedStats() { tls_stats = prev_; }

namespace stats {

Stats* current() { return tls_stats; }

void add_flops(double n) {
  if (tls_stats != nullptr) {
    tls_stats->flops[static_cast<int>(tls_phase)] += n;
  }
}

void add_comm(CollectiveKind k, double bytes) {
  if (tls_stats != nullptr) {
    tls_stats->comm_bytes[static_cast<int>(k)] += bytes;
    tls_stats->comm_bytes_by_phase[static_cast<int>(tls_phase)] += bytes;
    tls_stats->messages[static_cast<int>(k)] += 1;
  }
}

double now() {
  using clock = std::chrono::steady_clock;
  // Monotonicity is load-bearing: TraceSpan durations and cross-rank trace
  // lanes would go negative / misalign under a wall-clock (system_clock)
  // adjustment.
  static_assert(clock::is_steady, "timing must use a monotonic clock");
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

Phase swap_phase(Phase p) {
  const Phase prev = tls_phase;
  tls_phase = p;
  return prev;
}

}  // namespace stats

}  // namespace rahooi
