#ifndef PSPC_SRC_COMMON_RANDOM_H_
#define PSPC_SRC_COMMON_RANDOM_H_

#include <cstdint>

/// Deterministic pseudo-random number generation.
///
/// All stochastic components of the library (graph generators, query
/// workloads) draw from `Rng`, a splitmix64-seeded xoshiro256**
/// generator. Fixed seeds make every dataset, test, and benchmark
/// bit-reproducible across runs and thread counts — a prerequisite for
/// the paper's "index is identical for any number of threads" claim to
/// be checkable.
namespace pspc {

/// xoshiro256** PRNG. Not cryptographic; fast and high-quality for
/// simulation workloads. Copyable; copies evolve independently.
class Rng {
 public:
  /// Seeds the four 64-bit lanes via splitmix64 so that any seed
  /// (including 0) yields a well-mixed initial state.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform value in `[0, bound)`. `bound` must be non-zero.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform value in `[lo, hi]` (inclusive). Requires `lo <= hi`.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in `[0, 1)`.
  double NextDouble();

  /// Bernoulli draw with probability `p` of returning true.
  bool NextBool(double p);

  /// Returns a new generator seeded from this one; use to hand
  /// independent streams to parallel workers deterministically.
  Rng Split();

 private:
  uint64_t state_[4];
};

}  // namespace pspc

#endif  // PSPC_SRC_COMMON_RANDOM_H_
