// Paper-scale regression: generates the 1:1 LODES extract preset
// (GeneratorConfig::PaperExtract, 10.9M jobs) and checks that the columnar
// group-by, the fused workload engine (one shared scan + cube roll-ups vs
// independent MarginalQuery::Compute) and the sharded release pipeline all
// stay bit-identical across thread counts at that scale.
//
// Minutes of CPU and gigabytes of RAM: the test body only runs when
// EEP_SLOW_TESTS is set, and its CTest entry carries the `slow` label so
// CI can target it with `ctest -L slow` (the Release job does); a default
// `ctest -j` reports it as skipped in milliseconds.
#include <gtest/gtest.h>

#include <cstdlib>

#include "grouping_checks.h"
#include "lodes/generator.h"
#include "lodes/marginal.h"
#include "lodes/workload.h"
#include "release/pipeline.h"
#include "table/group_by.h"

namespace eep {
namespace {

TEST(PaperScaleTest, PaperExtractReleasesBitIdenticallyAcrossThreads) {
  if (std::getenv("EEP_SLOW_TESTS") == nullptr) {
    GTEST_SKIP() << "set EEP_SLOW_TESTS=1 to run the 10.9M-job preset";
  }
  const lodes::GeneratorConfig config = lodes::GeneratorConfig::PaperExtract();
  ASSERT_EQ(config.target_jobs, 10'900'000);
  auto generated = lodes::SyntheticLodesGenerator(config).Generate();
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const lodes::LodesDataset& data = generated.value();
  // The generator overshoots target_jobs by at most one establishment.
  EXPECT_GE(data.num_jobs(), config.target_jobs);
  EXPECT_LT(data.num_jobs(), config.target_jobs + config.max_estab_size);
  // The paper's extract has ~527k establishments; the preset's size
  // distribution should land in the same regime.
  EXPECT_GT(data.num_establishments(), 400'000);
  EXPECT_LT(data.num_establishments(), 700'000);

  // The columnar group-by engine must produce a bit-identical grouping for
  // every worker count at the full 10.9M-row extract (the release-equality
  // check below exercises it end to end; this pins the grouping itself,
  // including the per-establishment contribution lists).
  {
    const std::vector<std::string> columns =
        lodes::MarginalSpec::EstablishmentMarginal().AllColumns();
    auto single = table::GroupCountByEstablishment(
                      data.worker_full(), columns, lodes::kColEstabId,
                      table::GroupByOptions{1})
                      .value();
    EXPECT_GT(single.cells.size(), 5'000u);
    for (int threads : {2, 4, 8}) {
      auto parallel = table::GroupCountByEstablishment(
                          data.worker_full(), columns, lodes::kColEstabId,
                          table::GroupByOptions{threads})
                          .value();
      table::ExpectSameCells(single, parallel,
                             "threads=" + std::to_string(threads));
    }
  }

  // Fused workload engine at full scale: both paper tabulations from ONE
  // 10.9M-row group-by, every derived cell equal to the independent
  // MarginalQuery::Compute, for every thread count.
  {
    std::vector<lodes::MarginalQuery> independent;
    for (const auto& spec : lodes::WorkloadSpec::PaperTabulations().marginals) {
      independent.push_back(lodes::MarginalQuery::Compute(data, spec).value());
    }
    for (int threads : {1, 2, 4, 8}) {
      lodes::WorkloadComputeStats stats;
      auto fused = lodes::ComputeWorkload(
          data, lodes::WorkloadSpec::PaperTabulations(), threads,
          /*cache=*/nullptr, &stats);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      ASSERT_EQ(stats.full_table_scans, 1) << "threads=" << threads;
      // The paper union is tight, so the planner must fuse it as ONE cover
      // group, serving the establishment marginal by prefix merge.
      ASSERT_EQ(stats.cover_groups, 1) << "threads=" << threads;
      EXPECT_GE(stats.prefix_merges, 1) << "threads=" << threads;
      for (size_t m = 0; m < independent.size(); ++m) {
        const auto& expected = independent[m].cells();
        const auto& actual = fused.value()[m].cells();
        ASSERT_EQ(expected.size(), actual.size())
            << "marginal " << m << " threads " << threads;
        for (size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(expected[i].key, actual[i].key) << "threads=" << threads;
          ASSERT_EQ(expected[i].count, actual[i].count)
              << "threads=" << threads;
          ASSERT_EQ(expected[i].x_v, actual[i].x_v) << "threads=" << threads;
          ASSERT_EQ(expected[i].num_estabs, actual[i].num_estabs)
              << "threads=" << threads;
          ASSERT_EQ(expected[i].place_code, actual[i].place_code)
              << "threads=" << threads;
        }
      }
    }
  }

  // Wide-union workload at full scale: the all-8-attribute union makes the
  // fused base ~one item per row, so the planner must SPLIT it into cover
  // groups — and every marginal must still match the independent compute,
  // through a prefix roll-up (establishment), a non-prefix roll-up that
  // sorts the base cells (industry x sex x education) and the exact hits.
  {
    const lodes::WorkloadSpec wide =
        lodes::WorkloadSpec::ByName(
            "establishment,industry_sexedu,sexedu,full_demographics")
            .value();
    std::vector<lodes::MarginalQuery> independent;
    for (const auto& spec : wide.marginals) {
      independent.push_back(
          lodes::MarginalQuery::Compute(data, spec, /*num_threads=*/4)
              .value());
    }
    for (int threads : {1, 4}) {
      lodes::WorkloadComputeStats stats;
      auto fused = lodes::ComputeWorkload(data, wide, threads,
                                          /*cache=*/nullptr, &stats);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      EXPECT_GE(stats.cover_groups, 2) << "threads=" << threads;
      EXPECT_LT(stats.full_table_scans,
                static_cast<int>(wide.marginals.size()));
      EXPECT_GE(stats.prefix_merges, 1) << "threads=" << threads;
      EXPECT_GE(stats.parallel_rollups, 1) << "threads=" << threads;
      for (size_t m = 0; m < independent.size(); ++m) {
        const auto& expected = independent[m].cells();
        const auto& actual = fused.value()[m].cells();
        ASSERT_EQ(expected.size(), actual.size())
            << "marginal " << m << " threads " << threads;
        for (size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(expected[i].key, actual[i].key)
              << "marginal " << m << " threads " << threads;
          ASSERT_EQ(expected[i].count, actual[i].count)
              << "marginal " << m << " threads " << threads;
          ASSERT_EQ(expected[i].x_v, actual[i].x_v)
              << "marginal " << m << " threads " << threads;
        }
      }
    }
  }

  release::WorkloadReleaseConfig release_config;
  release_config.workload = {{lodes::MarginalSpec::EstablishmentMarginal()}};
  release_config.mechanism = eval::MechanismKind::kSmoothLaplace;
  release_config.alpha = 0.1;
  release_config.epsilon = 2.0;
  release_config.delta = 0.05;
  release_config.round_counts = false;  // Full-precision comparison.
  release_config.shard_size = 1024;
  release_config.num_threads = 1;
  Rng rng1(99);
  auto single =
      release::RunReleaseWorkload(data, release_config, nullptr, rng1);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_GT(single.value()[0].rows.size(), 5'000u);
  for (int threads : {2, 4, 8}) {
    release_config.num_threads = threads;
    Rng rng_n(99);
    auto parallel =
        release::RunReleaseWorkload(data, release_config, nullptr, rng_n);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel.value(), single.value()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace eep
