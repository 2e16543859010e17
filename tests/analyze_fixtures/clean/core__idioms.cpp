// Clean fixture: the allowed spelling of every per-file rule's pattern.
#include "core/idioms.hpp"

#include <cstdio>
#include <memory>

namespace fixture {

struct TraceSpan {
  explicit TraceSpan(const char*) {}
};

struct Comm {
  Comm() = default;
  Comm(const Comm&) = delete;  // `= delete` is not a naked delete
  void barrier() {}
};

// Collective under a live named span: allowed.
inline void sync(Comm& world) {
  TraceSpan span("sweep");
  world.barrier();
}

// Formatting with snprintf (not printf) is allowed in library code.
inline int format(char* buf, int n) {
  return std::snprintf(buf, static_cast<std::size_t>(n), "rank report");
}

// Ownership via smart pointers, not naked new.
inline std::unique_ptr<int> owned() { return std::make_unique<int>(7); }

// Timing through the shared stats clock (not a raw steady_clock) is
// allowed anywhere in library code.
inline double elapsed(double t0) { return stats::now() - t0; }

// A sanctioned suppression with a written reason analyzes clean.
inline void report_once() {
  // rahooi-analyze: allow(no-cout: fixture demonstrating sanctioned suppression)
  printf("fixture\n");
}

// Taxonomy throw and bare rethrow are both allowed.
inline void taxonomy() { throw precondition_error("bad argument"); }
inline void rethrow() {
  try {
    taxonomy();
  } catch (...) {
    throw;
  }
}

}  // namespace fixture
