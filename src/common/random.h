// Deterministic pseudo-random number generation. All stochastic code in the
// library draws from an explicitly seeded Rng so experiments and tests are
// reproducible bit-for-bit across runs.
#ifndef EEP_COMMON_RANDOM_H_
#define EEP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eep {

/// \brief xoshiro256++ pseudo-random generator with distribution helpers.
///
/// Seeded through splitmix64 so that any 64-bit seed yields a well-mixed
/// state. Not cryptographically secure; the privacy mechanisms in this
/// repository are research artifacts and a production deployment would swap
/// in a secure noise source behind the same interface.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same seed produce the
  /// same stream.
  explicit Rng(uint64_t seed = 0xEE9D5EEDULL);

  /// Next raw 64-bit output.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Fills out[0..n) with n independent Uniform() draws. Equivalent to n
  /// successive Uniform() calls (same stream consumption, same values); the
  /// bulk form exists so batch samplers pay the per-call overhead once.
  void FillUniform(double* out, size_t n);

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with the given mean (= 1/rate). Requires mean > 0.
  double Exponential(double mean);

  /// Laplace (double exponential) with location 0 and the given scale b:
  /// density (1/2b) exp(-|x|/b). Requires scale > 0.
  double Laplace(double scale);

  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Pareto with minimum xm > 0 and tail index alpha > 0.
  double Pareto(double xm, double alpha);

  /// Draws an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// Categorical(weights) for a caller that holds `total`, the weights
  /// summed in index order from 0.0: the same draw returns the same index,
  /// without re-summing fixed weights on every call.
  size_t Categorical(const std::vector<double>& weights, double total);

  /// Fisher-Yates shuffle of [0, n) indices; returns the permutation.
  std::vector<uint32_t> Permutation(uint32_t n);

  /// Splits off an independently seeded child generator. Children derived
  /// with distinct `stream` values have decorrelated state, which lets
  /// parallel workloads draw reproducible noise. Advances this generator by
  /// one draw, so successive Fork() calls yield distinct children even for
  /// the same `stream`.
  Rng Fork(uint64_t stream);

  /// Derives the `stream`-th substream WITHOUT advancing this generator:
  /// the child depends only on the current state and `stream`, so
  /// `rng.Substream(k)` is the same generator no matter how many other
  /// substreams were taken first or from which thread. This is the
  /// primitive behind sharded noise drawing: shard k of a parallel release
  /// always sees the same stream regardless of worker count or shard
  /// visit order.
  Rng Substream(uint64_t stream) const;

 private:
  uint64_t s_[4];
};

}  // namespace eep

#endif  // EEP_COMMON_RANDOM_H_
