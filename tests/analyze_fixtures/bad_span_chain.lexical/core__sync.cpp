// Seeded fixture: a src/core collective with no live prof::TraceSpan in
// any enclosing scope, and no TraceSpan member in its class. Exactly one
// span-chain finding fires.

struct Comm {
  void barrier() {}
};

inline void sync(Comm& world) {
  world.barrier();
}
