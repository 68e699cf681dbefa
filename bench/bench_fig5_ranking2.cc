// Figure 5 of the paper: Spearman rank correlation for Ranking 2 — cells
// of the place x industry x ownership marginal ranked by the count of
// FEMALE workers with a BACHELOR'S degree or higher, released under weak
// privacy (single query -> full epsilon per cell).
//
// Paper findings reproduced: only Smooth Laplace approaches correlation 1
// at eps >= 4 overall; restricted to large-population strata, Log-Laplace
// and Smooth Laplace do well at every tested epsilon.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf("=== Figure 5: Spearman rank correlation — Ranking 2 ===\n");
  std::printf(
      "Cells ranked by count of females with a college degree (BA+)\n");
  bench::PrintDatasetSummary(data, setup);

  eval::Workloads workloads(&data, setup.experiment);
  eval::WorkloadGrids grids;
  auto points = workloads.Figure5(grids);
  if (!points.ok()) {
    std::fprintf(stderr, "figure 5 failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }
  bench::PrintFigureSeries(points.value(), "Spearman correlation");
  bench::PrintStratifiedPanels(points.value(), 0.1, "Spearman correlation");
  bench::MaybeWriteCsv(flags, points.value());
  return 0;
}
