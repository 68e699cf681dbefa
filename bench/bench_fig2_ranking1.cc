// Figure 2 of the paper: Spearman rank correlation between the ordering of
// marginal cells (place x industry x ownership, ranked by employment
// count) released by a formally private mechanism and the ordering
// released by the legacy SDL — Ranking 1, the OnTheMap "Area Comparison"
// scenario. Higher is better; 1.0 = identical ranking.
//
// Paper findings reproduced: Smooth Laplace correlation ~1 for eps >= 2;
// the other two approach 1 at eps >= 4; correlations are higher in larger
// population strata.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf("=== Figure 2: Spearman rank correlation — Ranking 1 ===\n");
  std::printf("Cells of Place x Industry x Ownership ranked by count\n");
  bench::PrintDatasetSummary(data, setup);

  eval::Workloads workloads(&data, setup.experiment);
  eval::WorkloadGrids grids;
  auto points = workloads.Figure2(grids);
  if (!points.ok()) {
    std::fprintf(stderr, "figure 2 failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }
  bench::PrintFigureSeries(points.value(), "Spearman correlation");
  bench::PrintStratifiedPanels(points.value(), 0.1, "Spearman correlation");
  bench::MaybeWriteCsv(flags, points.value());
  return 0;
}
