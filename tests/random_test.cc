#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/stats.h"

namespace eep {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(RngTest, LaplaceMomentsMatchTheory) {
  Rng rng(29);
  RunningStats stats;
  RunningStats abs_stats;
  const double scale = 2.5;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.Laplace(scale);
    stats.Add(x);
    abs_stats.Add(std::abs(x));
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  // E|X| = scale, Var = 2 scale^2.
  EXPECT_NEAR(abs_stats.mean(), scale, 0.05);
  EXPECT_NEAR(stats.variance(), 2.0 * scale * scale, 0.3);
}

TEST(RngTest, ParetoTailIndex) {
  Rng rng(31);
  // For Pareto(xm, alpha), P(X > 2 xm) = 2^-alpha.
  const double xm = 10.0, alpha = 1.5;
  int exceed = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Pareto(xm, alpha);
    EXPECT_GE(x, xm);
    if (x > 2.0 * xm) ++exceed;
  }
  EXPECT_NEAR(static_cast<double>(exceed) / n, std::pow(2.0, -alpha), 0.01);
}

TEST(RngTest, FillUniformMatchesScalarStream) {
  Rng bulk_rng(41), scalar_rng(41);
  std::vector<double> buf(129);
  bulk_rng.FillUniform(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], scalar_rng.Uniform()) << "draw " << i;
  }
  EXPECT_EQ(bulk_rng.NextUint64(), scalar_rng.NextUint64());
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(41);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalZeroWeightNeverChosen) {
  Rng rng(43);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.Categorical(weights), 1u);
}

TEST(RngTest, CategoricalWithTotalMatchesTheOneArgumentForm) {
  constexpr double kMax = std::numeric_limits<double>::max();
  std::vector<double> places;  // the generator's population^0.8 shape
  for (int i = 0; i < 320; ++i) {
    places.push_back(std::pow(30.0 + 4700.0 * i, 0.8));
  }
  const std::vector<std::vector<double>> cases = {
      {1.0, 3.0, 6.0},
      {2.5},
      {0.0, 1.0, 0.0},
      {0.1, 0.2, 0.3, 0.0},  // inexact sum, zero last weight
      // The sum overflows to +inf, so no subtraction ever reaches a
      // negative target: every draw lands on the last bucket through the
      // numeric-edge return.
      {kMax, kMax},
      places,
  };
  for (size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(k);
    const std::vector<double>& weights = cases[k];
    double total = 0.0;
    for (double w : weights) total += w;
    Rng one(71 + k);
    Rng two(71 + k);
    std::vector<int> counts(weights.size(), 0);
    for (int i = 0; i < 100000; ++i) {
      const size_t index = one.Categorical(weights);
      ASSERT_EQ(two.Categorical(weights, total), index) << "draw " << i;
      ++counts[index];
    }
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] == 0.0) {
        EXPECT_EQ(counts[i], 0) << "bucket " << i;
      }
    }
    if (std::isinf(total)) {
      EXPECT_EQ(counts.back(), 100000);
    }
    EXPECT_EQ(one.NextUint64(), two.NextUint64());
  }
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(47);
  auto perm = rng.Permutation(100);
  std::set<uint32_t> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 100u);
  EXPECT_EQ(*values.begin(), 0u);
  EXPECT_EQ(*values.rbegin(), 99u);
}

TEST(RngTest, ForkedStreamsAreDecorrelated) {
  Rng parent(53);
  Rng child1 = parent.Fork(0);
  Rng child2 = parent.Fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.NextUint64() == child2.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(59), b(59);
  Rng ca = a.Fork(3), cb = b.Fork(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ca.NextUint64(), cb.NextUint64());
}

TEST(RngTest, SubstreamDoesNotAdvanceParent) {
  Rng a(61), b(61);
  Rng child = a.Substream(5);
  (void)child;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, SubstreamIndependentOfDerivationOrder) {
  // The property sharded runners rely on: shard k's stream is the same no
  // matter how many other shards were derived first (or concurrently).
  Rng parent(67);
  Rng direct = parent.Substream(7);
  for (uint64_t k = 0; k < 7; ++k) (void)parent.Substream(k);
  Rng after_others = parent.Substream(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(direct.NextUint64(), after_others.NextUint64());
  }
}

TEST(RngTest, SubstreamsAreDecorrelated) {
  Rng parent(71);
  Rng s0 = parent.Substream(0);
  Rng s1 = parent.Substream(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0.NextUint64() == s1.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, SubstreamsDoNotOverlapSmoke) {
  // Non-overlap smoke test: the first 4096 outputs of 16 sibling
  // substreams are pairwise disjoint as 64-bit values (a collision among
  // 65536 draws from a good generator has probability ~1e-10).
  Rng parent(73);
  std::set<uint64_t> seen;
  size_t draws = 0;
  for (uint64_t stream = 0; stream < 16; ++stream) {
    Rng child = parent.Substream(stream);
    for (int i = 0; i < 4096; ++i) {
      seen.insert(child.NextUint64());
      ++draws;
    }
  }
  EXPECT_EQ(seen.size(), draws);
}

}  // namespace
}  // namespace eep
