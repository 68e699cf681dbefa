#include "common/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace eep {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

void Rng::FillUniform(double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // full range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t draw;
  do {
    draw = NextUint64();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % span);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; one draw per call keeps the stream position deterministic.
  double u1 = Uniform();
  double u2 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u = Uniform();
  while (u <= 0.0) u = Uniform();
  return -mean * std::log(u);
}

double Rng::Laplace(double scale) {
  assert(scale > 0.0);
  // Inverse transform on u ~ U(-1/2, 1/2).
  const double u = Uniform() - 0.5;
  const double mag = std::max(1e-300, 1.0 - 2.0 * std::abs(u));
  return (u >= 0.0 ? -1.0 : 1.0) * scale * std::log(mag);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Pareto(double xm, double alpha) {
  assert(xm > 0.0 && alpha > 0.0);
  double u = Uniform();
  while (u <= 0.0) u = Uniform();
  return xm / std::pow(u, 1.0 / alpha);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  return Categorical(weights, total);
}

size_t Rng::Categorical(const std::vector<double>& weights, double total) {
  assert(total > 0.0);
  double target = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Numeric edge: land on the last bucket.
}

std::vector<uint32_t> Rng::Permutation(uint32_t n) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(UniformInt(0, i - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Rng Rng::Fork(uint64_t stream) {
  // Mix the child's stream id with fresh output so children are decorrelated
  // from the parent and from each other.
  const uint64_t seed = NextUint64() ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return Rng(seed);
}

Rng Rng::Substream(uint64_t stream) const {
  // Hash the full 256-bit state together with the stream id through
  // splitmix64; the parent state is read, never advanced, so the mapping
  // (state, stream) -> child is a pure function.
  uint64_t mix = stream;
  uint64_t seed = SplitMix64(mix);
  for (uint64_t word : s_) {
    mix ^= word;
    seed ^= SplitMix64(mix);
  }
  return Rng(seed);
}

}  // namespace eep
