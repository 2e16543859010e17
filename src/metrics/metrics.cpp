#include "metrics/metrics.hpp"

#include <cmath>

namespace rahooi::metrics {

namespace {

thread_local Registry* tls_registry = nullptr;
thread_local MemScope tls_mem_scope = MemScope::tensor;

}  // namespace

const char* mem_scope_name(MemScope s) {
  switch (s) {
    case MemScope::tensor:
      return "tensor";
    case MemScope::dist_tensor:
      return "dist_tensor";
    case MemScope::pack_buffer:
      return "pack_buffer";
    case MemScope::checkpoint:
      return "checkpoint";
    case MemScope::dt_memo:
      return "dt_memo";
    case MemScope::count_:
      break;
  }
  return "unknown";
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::fault_retries:
      return "fault_retries";
    case Counter::solver_fallbacks:
      return "solver_fallbacks";
    case Counter::solver_sweeps:
      return "solver_sweeps";
    case Counter::checkpoint_writes:
      return "checkpoint_writes";
    case Counter::serve_submitted:
      return "serve_submitted";
    case Counter::serve_completed:
      return "serve_completed";
    case Counter::serve_cache_hits:
      return "serve_cache_hits";
    case Counter::serve_shed:
      return "serve_shed";
    case Counter::serve_deadline_misses:
      return "serve_deadline_misses";
    case Counter::serve_failed:
      return "serve_failed";
    case Counter::serve_retries:
      return "serve_retries";
    case Counter::serve_resumes:
      return "serve_resumes";
    case Counter::serve_preemptions:
      return "serve_preemptions";
    case Counter::count_:
      break;
  }
  return "unknown";
}

const char* serve_stage_name(ServeStage s) {
  switch (s) {
    case ServeStage::queue:
      return "queue";
    case ServeStage::solve:
      return "solve";
    case ServeStage::total:
      return "total";
    case ServeStage::count_:
      break;
  }
  return "unknown";
}

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1)
  const int idx = (exp - 1) - kMinExponent;
  if (idx <= 0) return 0;
  if (idx >= static_cast<int>(kBuckets)) return kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Walk the cumulative distribution to the bucket containing the target
  // rank, then interpolate linearly inside the bucket's value range
  // (uniform-within-bucket assumption — exact at bucket edges, at worst a
  // factor-of-2 wide estimate, the log2 scheme's resolution).
  const double target = q * double(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double next = cum + double(buckets[i]);
    if (next >= target) {
      const double lo =
          i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) + kMinExponent);
      const double hi = std::ldexp(1.0, static_cast<int>(i) + kMinExponent + 1);
      const double frac = (target - cum) / double(buckets[i]);
      double v = lo + frac * (hi - lo);
      if (v < min) v = min;
      if (v > max) v = max;
      return v;
    }
    cum = next;
  }
  return max;
}

void Registry::clear() {
  collectives_ = {};
  gauges_ = {};
  serve_queue_ = {};
  serve_stages_ = {};
  counters_ = {};
  named_.clear();
  events_.clear();
}

Registry* registry() { return tls_registry; }

ScopedRegistry::ScopedRegistry(Registry& r) : prev_(tls_registry) {
  tls_registry = &r;
}

ScopedRegistry::~ScopedRegistry() { tls_registry = prev_; }

MemScope current_mem_scope() { return tls_mem_scope; }

MemScopeGuard::MemScopeGuard(MemScope s) : prev_(tls_mem_scope) {
  tls_mem_scope = s;
}

MemScopeGuard::~MemScopeGuard() { tls_mem_scope = prev_; }

}  // namespace rahooi::metrics
