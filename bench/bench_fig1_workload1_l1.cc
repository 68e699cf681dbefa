// Figure 1 of the paper: average L1 error ratio (provably private
// mechanism vs. legacy input noise infusion) for Workload 1 — the
// employment-count marginal over Census place x NAICS sector x ownership,
// with no worker attributes. Lower is better; 1.0 means "as accurate as
// the current SDL"; values < 1 mean the formally private release is MORE
// accurate than the legacy system.
//
// Paper findings reproduced here (Finding 1):
//  * Log-Laplace and Smooth Gamma within ~3x of SDL at eps=2, alpha=0.1;
//  * Smooth Laplace better than SDL there;
//  * ratios improve with epsilon and degrade with alpha.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf("=== Figure 1: L1 error ratio vs SDL — Workload 1 ===\n");
  std::printf("Place x Industry x Ownership, no worker attributes\n");
  bench::PrintDatasetSummary(data, setup);

  eval::Workloads workloads(&data, setup.experiment);
  eval::WorkloadGrids grids;  // paper grid: eps {0.25..4}, alpha {.01...2}
  auto points = workloads.Figure1(grids);
  if (!points.ok()) {
    std::fprintf(stderr, "figure 1 failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }
  bench::PrintFigureSeries(points.value(), "L1 error ratio");
  bench::PrintStratifiedPanels(points.value(), 0.1, "L1 error ratio");
  bench::MaybeWriteCsv(flags, points.value());

  // Finding 1 summary line at the paper's baseline point.
  for (const auto& p : points.value()) {
    if (p.epsilon == 2.0 && p.alpha == 0.1 && p.feasible) {
      std::printf("at (eps=2, alpha=0.1): %-14s ratio = %.3f%s\n",
                  eval::MechanismKindName(p.kind), p.overall,
                  p.overall < 1.0 ? "  (better than SDL)" : "");
    }
  }
  return 0;
}
