// Google-benchmark micro-benchmarks: per-cell throughput of each
// mechanism's ReleaseBatch, noise-sampler cost, marginal-engine and SDL
// release cost. Engineering numbers (not figures from the paper) that
// justify running the full 10.9M-job extract: every mechanism releases a
// cell in well under a microsecond.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/distributions.h"
#include "lodes/generator.h"
#include "lodes/marginal.h"
#include "mechanisms/geometric.h"
#include "mechanisms/laplace.h"
#include "mechanisms/log_laplace.h"
#include "mechanisms/smooth_gamma.h"
#include "mechanisms/smooth_laplace.h"
#include "mechanisms/truncated_laplace.h"
#include "sdl/noise_infusion.h"

namespace eep {
namespace {

// ---------------------------------------------------------------------------
// Batch release throughput: one ReleaseBatch call over 1024 cells.
// Per-cell time = reported time / 1024.
// ---------------------------------------------------------------------------

constexpr size_t kBatchCells = 1024;

std::vector<mechanisms::CellQuery> BatchCells() {
  std::vector<mechanisms::CellQuery> cells(kBatchCells);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].true_count = static_cast<int64_t>(100 + i % 900);
    cells[i].x_v = static_cast<int64_t>(1 + i % 64);
  }
  return cells;
}

void ReleaseLoop(benchmark::State& state,
                 const mechanisms::CountMechanism& mech,
                 std::vector<mechanisms::CellQuery> cells = BatchCells()) {
  Rng rng(17);
  std::vector<double> out;
  out.reserve(cells.size());
  for (auto _ : state) {
    out.clear();
    const Status st = mech.ReleaseBatch(cells, rng, &out);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cells.size()));
}

#define EEP_BATCH_BENCH(Name, MakeMech)               \
  void BM_##Name##_Batch1k(benchmark::State& state) { \
    ReleaseLoop(state, (MakeMech));                   \
  }                                                   \
  BENCHMARK(BM_##Name##_Batch1k);

EEP_BATCH_BENCH(EdgeLaplace,
                mechanisms::EdgeLaplaceMechanism::Create(1.0).value())
EEP_BATCH_BENCH(
    LogLaplace,
    mechanisms::LogLaplaceMechanism::Create({0.1, 2.0, 0.0}).value())
EEP_BATCH_BENCH(
    SmoothLaplace,
    mechanisms::SmoothLaplaceMechanism::Create({0.1, 2.0, 0.05}).value())
EEP_BATCH_BENCH(
    SmoothGamma,
    mechanisms::SmoothGammaMechanism::Create({0.1, 2.0, 0.0}).value())
EEP_BATCH_BENCH(
    Geometric, mechanisms::GeometricMechanism::Create({0.1, 2.0, 0.05}).value())

#undef EEP_BATCH_BENCH

// Truncated Laplace needs per-establishment contributions on every cell.
std::vector<mechanisms::CellQuery> TruncatedCells(
    const std::vector<table::EstabContribution>& contribs) {
  std::vector<mechanisms::CellQuery> cells = BatchCells();
  for (auto& cell : cells) cell.contributions = contribs;
  return cells;
}

const std::vector<table::EstabContribution> kContribs = {
    {1, 400}, {2, 300}, {3, 534}};

void BM_TruncatedLaplace_Batch1k(benchmark::State& state) {
  auto mech = mechanisms::TruncatedLaplaceMechanism::Create(1000, 1.0, {})
                  .value();
  ReleaseLoop(state, mech, TruncatedCells(kContribs));
}
BENCHMARK(BM_TruncatedLaplace_Batch1k);

void BM_FillUniform1k(benchmark::State& state) {
  Rng rng(18);
  std::vector<double> buf(kBatchCells);
  for (auto _ : state) {
    rng.FillUniform(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_FillUniform1k);

void BM_LaplaceSample(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Laplace(2.0));
  }
}
BENCHMARK(BM_LaplaceSample);

void BM_GeneralizedCauchySample(benchmark::State& state) {
  Rng rng(2);
  GeneralizedCauchy4 dist;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(rng));
  }
}
BENCHMARK(BM_GeneralizedCauchySample);

lodes::LodesDataset& BenchData() {
  static lodes::LodesDataset* data = [] {
    lodes::GeneratorConfig config;
    config.seed = 77;
    config.target_jobs = 50000;
    config.num_places = 80;
    return new lodes::LodesDataset(
        lodes::SyntheticLodesGenerator(config).Generate().value());
  }();
  return *data;
}

void BM_MarginalCompute(benchmark::State& state) {
  auto& data = BenchData();
  for (auto _ : state) {
    auto query = lodes::MarginalQuery::Compute(
        data, lodes::MarginalSpec::EstablishmentMarginal());
    benchmark::DoNotOptimize(query.ok());
  }
  state.SetItemsProcessed(state.iterations() * data.num_jobs());
}
BENCHMARK(BM_MarginalCompute);

void BM_WorkerMarginalCompute(benchmark::State& state) {
  auto& data = BenchData();
  for (auto _ : state) {
    auto query = lodes::MarginalQuery::Compute(
        data, lodes::MarginalSpec::WorkplaceBySexEducation());
    benchmark::DoNotOptimize(query.ok());
  }
  state.SetItemsProcessed(state.iterations() * data.num_jobs());
}
BENCHMARK(BM_WorkerMarginalCompute);

void BM_SdlFullRelease(benchmark::State& state) {
  auto& data = BenchData();
  auto query = lodes::MarginalQuery::Compute(
                   data, lodes::MarginalSpec::EstablishmentMarginal())
                   .value();
  const auto* ids_col =
      data.workplaces().ColumnByName(lodes::kColEstabId).value();
  const auto& ids = *ids_col->AsInt64().value();
  Rng rng(8);
  auto infusion = sdl::NoiseInfusion::Create({}, ids, rng).value();
  for (auto _ : state) {
    auto release = infusion.Release(query, rng);
    benchmark::DoNotOptimize(release.ok());
  }
  state.SetItemsProcessed(state.iterations() * query.cells().size());
}
BENCHMARK(BM_SdlFullRelease);

void BM_GeneratorThroughput(benchmark::State& state) {
  lodes::GeneratorConfig config;
  config.seed = 123;
  config.target_jobs = 20000;
  config.num_places = 40;
  for (auto _ : state) {
    auto data = lodes::SyntheticLodesGenerator(config).Generate();
    benchmark::DoNotOptimize(data.ok());
  }
  state.SetItemsProcessed(state.iterations() * config.target_jobs);
}
BENCHMARK(BM_GeneratorThroughput);

}  // namespace
}  // namespace eep

BENCHMARK_MAIN();
