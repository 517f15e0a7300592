#ifndef MDBS_COMMON_RNG_H_
#define MDBS_COMMON_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mdbs {

/// Deterministic 64-bit PRNG (xoshiro256**). All randomness in the library
/// flows through explicitly seeded instances so every experiment is
/// reproducible from its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p.
  bool NextBernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBelow(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator; used to give each component its
  /// own stream so adding randomness in one place does not perturb others.
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// Zipf(theta) sampler over {0, ..., n-1} using the classic Gray et al.
/// rejection-free method with precomputed constants. theta = 0 is uniform:
/// Next(rng) is exactly rng->NextBelow(n), and construction is O(1).
/// theta > 0 precomputes an O(n) zeta sum. `n` must be > 0.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Rng* rng);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  // Unused (left zero) when theta == 0.
  double alpha_ = 0;
  double zetan_ = 0;
  double eta_ = 0;
};

}  // namespace mdbs

#endif  // MDBS_COMMON_RNG_H_
