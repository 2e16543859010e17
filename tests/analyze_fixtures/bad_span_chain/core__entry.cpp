// Seeded fixture: a src/core call chain reaches a collective with no live
// prof::TraceSpan anywhere on the path. The leaf lives outside the span
// zone (serve__leaf.cpp), so only the call from src/core is reported,
// exactly once.
namespace rahooi {
namespace comm { class Comm; }

void flush_ranks(comm::Comm& world);

void finalize(comm::Comm& world) {
  flush_ranks(world);
}

}  // namespace rahooi
