// Seeded fixture: TraceSpan constructed as a discarded temporary — the span
// closes on the same statement and times nothing. Exactly one
// guard-discard finding fires.

struct TraceSpan {
  explicit TraceSpan(const char*) {}
};

inline void trace() {
  TraceSpan("llsv");
}
