#pragma once
// Counter-based (stateless) random number generation.
//
// Distributed tensor generation requires that every rank can produce the
// entries of its own block without communication, and that the generated
// tensor is identical for every processor-grid decomposition. A counter-based
// generator gives exactly that: entry i of stream `seed` is a pure function
// hash(seed, i), so blocks can be filled in any order on any rank.
//
// The mixing function is the splitmix64 finalizer, which passes standard
// statistical test batteries when used as a counter hash and is far cheaper
// than cryptographic alternatives — appropriate for synthetic test data.

#include <cstdint>

namespace rahooi {

/// Stateless counter-based RNG. All methods are const and thread-safe.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed) noexcept : seed_(seed) {}

  /// Raw 64 mixed bits for counter `i`.
  std::uint64_t bits(std::uint64_t i) const noexcept {
    return mix(seed_ + 0x9e3779b97f4a7c15ULL * (i + 1));
  }

  /// Uniform double in [0, 1) for counter `i`.
  double uniform(std::uint64_t i) const noexcept {
    // 53 significant bits -> exactly representable uniform grid.
    return static_cast<double>(bits(i) >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi) for counter `i`.
  double uniform(std::uint64_t i, double lo, double hi) const noexcept {
    return lo + (hi - lo) * uniform(i);
  }

  /// Standard normal deviate for counter `i` (Box–Muller on two substreams).
  /// |normal(i)| <= sqrt(-2 ln 2^-53) < 8.58 — the guard against log(0)
  /// bounds the deviate.
  double normal(std::uint64_t i) const noexcept;

  /// Standard normal deviate at the 2-D counter (i, j): entry (i, j) of a
  /// conceptually unbounded Gaussian matrix. The column is folded through
  /// stream() rather than i + j * rows arithmetic, so the deviate is a pure
  /// function of the *global* (row, column) pair — independent of any local
  /// matrix shape — which is what makes matrices drawn this way identical
  /// on every processor grid.
  double normal2(std::uint64_t i, std::uint64_t j) const noexcept {
    return stream(j).normal(i);
  }

  std::uint64_t seed() const noexcept { return seed_; }

  /// Derive an independent stream, e.g. one per tensor mode or per dataset
  /// component. Streams with distinct tags are statistically independent.
  CounterRng stream(std::uint64_t tag) const noexcept {
    return CounterRng(mix(seed_ ^ mix(tag + 0x632be59bd9b4e019ULL)));
  }

 private:
  static std::uint64_t mix(std::uint64_t z) noexcept {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t seed_;
};

}  // namespace rahooi
