// Analytic probability distributions used by the privacy mechanisms.
//
// Unlike the raw sampling helpers on Rng, these classes expose densities and
// CDFs so tests can verify admissibility inequalities (Def. 8.3 of the paper)
// directly against the math, and so inverse-transform sampling stays exact.
#ifndef EEP_COMMON_DISTRIBUTIONS_H_
#define EEP_COMMON_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/random.h"
#include "common/status.h"

namespace eep {

/// \brief Laplace(0, b) with density (1/2b)·exp(-|x|/b).
class LaplaceDistribution {
 public:
  /// Creates the distribution; fails unless scale > 0.
  static Result<LaplaceDistribution> Create(double scale);

  double scale() const { return scale_; }
  /// Probability density at x.
  double Pdf(double x) const;
  /// Cumulative distribution at x.
  double Cdf(double x) const;
  /// Inverse CDF (quantile) for u in (0,1).
  double Quantile(double u) const;
  /// One draw.
  double Sample(Rng& rng) const;
  /// Fills out[0..n) with n draws. Consumes exactly n uniforms (the same
  /// stream positions as n Sample() calls) through the same inverse
  /// transform as Rng::Laplace, but evaluated with the vectorizable
  /// FastLogPositive — values may differ from the scalar draws in the
  /// last ulp. Exists so batch release paths amortize per-draw call
  /// overhead and vectorize the transform.
  void SampleN(Rng& rng, double* out, size_t n) const;
  /// E|X| = b.
  double MeanAbs() const { return scale_; }
  /// Var X = 2 b^2.
  double Variance() const { return 2.0 * scale_ * scale_; }

 private:
  explicit LaplaceDistribution(double scale) : scale_(scale) {}
  double scale_;
};

/// \brief The paper's smooth-sensitivity noise density h(z) ∝ 1/(1 + |z|^γ)
/// for γ = 4 (Algorithm 2, "Smooth Gamma").
///
/// Normalization: ∫ dz/(1+z⁴) = π/√2, so h(z) = (√2/π) / (1+z⁴).
/// The CDF has the closed form (for z ≥ 0, with c = √2/π):
///
///   F(z) = 1/2 + c·[ (1/(4√2))·ln((z²+√2 z+1)/(z²−√2 z+1))
///                  + (1/(2√2))·(atan(√2 z+1) + atan(√2 z−1)) ]
///
/// Moments: E Z = 0, E|Z| = √2/2 ≈ 0.7071, Var Z = 1.
/// (The paper's appendix computes the L1 integral without the normalizing
/// constant and reports π/2; the normalized value is (√2/π)(π/2) = √2/2.
/// Both are Θ(1), so Lemma 8.8's bound is unaffected. MeanAbs and Smooth
/// Gamma's ExpectedL1Error use √2/2, which sampled errors match.)
class GeneralizedCauchy4 {
 public:
  GeneralizedCauchy4() = default;

  /// Probability density at z.
  double Pdf(double z) const;
  /// Cumulative distribution at z (closed form above).
  double Cdf(double z) const;
  /// Inverse CDF by monotone bisection + Newton polish; |error| < 1e-12.
  /// `u` within one ulp of 0 or 1 is clamped to the numerically attainable
  /// range of Cdf (which saturates just below 1 in floating point), so the
  /// result is finite for every u in (0, 1).
  double Quantile(double u) const;
  /// Batched inverse CDF: out[i] = Quantile(u[i]) for i in [0, n), via a
  /// bracketed Newton hybrid seeded from the central/tail expansions of
  /// the CDF — ~5 CDF evaluations per element instead of the ~60 of the
  /// bisection path, which dominates Smooth Gamma's batch sampling.
  /// Wherever the inversion is numerically well-conditioned the result
  /// satisfies Cdf(out[i]) = u[i] to ~1e-10 and matches Quantile(); in the
  /// extreme tails (u within ~1e-13 of 0 or 1, where the computed CDF
  /// saturates) both paths return finite quantiles beyond |z| ~ 1e4 whose
  /// exact values may differ. The chased tail mass is floored at the mass
  /// beyond |z| = 2^20, so the result is finite for every u in [0, 1].
  /// In-place use (out == u) is allowed.
  void QuantileN(const double* u, double* out, size_t n) const;
  /// One draw via inverse transform.
  double Sample(Rng& rng) const;
  /// E|Z| = √2/2.
  double MeanAbs() const;
  /// Var Z = 1.
  double Variance() const { return 1.0; }
};

/// \brief Ramp distribution on [s, t] with linearly decreasing density,
/// p(x) ∝ (t − x), used by the QWI-style noise-infusion fuzz factors.
///
/// The published QWI methodology draws the distortion magnitude |f−1| from a
/// ramp between s and t that concentrates mass near s (small distortions are
/// more likely than large ones).
class RampDistribution {
 public:
  /// Fails unless 0 < s < t.
  static Result<RampDistribution> Create(double s, double t);

  double s() const { return s_; }
  double t() const { return t_; }
  double Pdf(double x) const;
  double Cdf(double x) const;
  /// Inverse transform: x = t − (t−s)·sqrt(1−u).
  double Quantile(double u) const;
  double Sample(Rng& rng) const;
  /// E X = s + (t−s)/3.
  double Mean() const { return s_ + (t_ - s_) / 3.0; }

 private:
  RampDistribution(double s, double t) : s_(s), t_(t) {}
  double s_;
  double t_;
};

}  // namespace eep

#endif  // EEP_COMMON_DISTRIBUTIONS_H_
