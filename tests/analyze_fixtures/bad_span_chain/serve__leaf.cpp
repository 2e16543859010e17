// The unspanned leaf: a barrier with no TraceSpan. src/serve is outside
// the span-chain zone, so this file is clean in isolation; the exposure
// only matters once src/core reaches it.
namespace rahooi {

void flush_ranks(comm::Comm& world) {
  world.barrier();
}

}  // namespace rahooi
