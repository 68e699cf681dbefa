// Figure 4 of the paper: average L1 error ratio for Workload 3 — the FULL
// place x industry x ownership x sex x education marginal under weak
// (alpha, eps)-ER-EE privacy. Parallel composition across worker cells of
// one establishment does NOT hold for weak privacy (Thm 7.5), so the
// plotted budget epsilon is split across the d = |dom(sex x education)| = 8
// worker cells: each count is released at epsilon/8.
//
// Paper findings reproduced (Finding 3): all mechanisms worse than SDL;
// Log-Laplace within ~10x for alpha <= 0.05 and eps >= 4; Smooth Laplace
// within 10x at eps = 4 for every alpha, within ~3x at alpha = 0.01. The
// x-axis grid matches the paper: eps in {1, 2, 4, 8, 10, 16, 20}.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf(
      "=== Figure 4: L1 error ratio vs SDL — Workload 3 (full worker "
      "marginal) ===\n");
  std::printf(
      "Place x Industry x Ownership x Sex x Education, per-cell budget "
      "eps/8\n");
  bench::PrintDatasetSummary(data, setup);

  eval::Workloads workloads(&data, setup.experiment);
  eval::WorkloadGrids grids;
  grids.epsilons = {1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 20.0};  // paper grid
  auto points = workloads.Figure4(grids);
  if (!points.ok()) {
    std::fprintf(stderr, "figure 4 failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }
  bench::PrintFigureSeries(points.value(), "L1 error ratio");
  bench::PrintStratifiedPanels(points.value(), 0.05, "L1 error ratio");
  bench::MaybeWriteCsv(flags, points.value());

  for (const auto& p : points.value()) {
    if (p.epsilon == 4.0 && p.alpha == 0.01 && p.feasible) {
      std::printf("at (eps=4, alpha=0.01): %-14s ratio = %.3f\n",
                  eval::MechanismKindName(p.kind), p.overall);
    }
  }
  return 0;
}
