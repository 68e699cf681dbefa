// Figure 3 of the paper: average L1 error ratio for Workload 2 — a SINGLE
// (sex x education) query on the workplace marginal (we use the
// female-with-BA+ slice), released under weak (alpha, eps)-ER-EE privacy.
// A single query parallel-composes across establishments, so each cell
// gets the full epsilon.
//
// Paper findings reproduced (Finding 2): Log-Laplace within ~3x of SDL;
// Smooth Laplace roughly matches SDL and beats it at eps=4.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf(
      "=== Figure 3: L1 error ratio vs SDL — Workload 2 (single query) "
      "===\n");
  std::printf(
      "One (sex=F, education=BA+) query on Place x Industry x Ownership\n");
  bench::PrintDatasetSummary(data, setup);

  eval::Workloads workloads(&data, setup.experiment);
  eval::WorkloadGrids grids;
  auto points = workloads.Figure3(grids);
  if (!points.ok()) {
    std::fprintf(stderr, "figure 3 failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }
  bench::PrintFigureSeries(points.value(), "L1 error ratio");
  bench::PrintStratifiedPanels(points.value(), 0.1, "L1 error ratio");
  bench::MaybeWriteCsv(flags, points.value());

  for (const auto& p : points.value()) {
    if (p.epsilon == 4.0 && p.alpha == 0.1 && p.feasible) {
      std::printf("at (eps=4, alpha=0.1): %-14s ratio = %.3f%s\n",
                  eval::MechanismKindName(p.kind), p.overall,
                  p.overall < 1.0 ? "  (better than SDL)" : "");
    }
  }
  return 0;
}
