// Finding 6 of the paper: the node-differentially-private Truncated
// Laplace baseline (Section 6) is dramatically worse than both the SDL
// baseline and the ER-EE-private mechanisms, and increasing epsilon buys
// almost nothing because the error is dominated by the bias of removing
// large establishments.
//
// Sweeps the paper's truncation thresholds theta in {2, 20, 50, 100, 200,
// 500} against epsilon in {0.25, ..., 4} on Workload 1 (L1 ratio vs SDL)
// and Ranking 1 (Spearman).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf(
      "=== Finding 6: Truncated Laplace (node-DP) on Workload 1 / Ranking "
      "1 ===\n");
  bench::PrintDatasetSummary(data, setup);

  eval::Workloads workloads(&data, setup.experiment);
  const std::vector<int64_t> thetas = {2, 20, 50, 100, 200, 500};
  const std::vector<double> epsilons = {0.25, 0.5, 1.0, 2.0, 4.0};
  auto points = workloads.Finding6(thetas, epsilons);
  if (!points.ok()) {
    std::fprintf(stderr, "finding 6 failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }

  TextTable table({"theta", "epsilon", "removed estabs", "removed jobs",
                   "L1 ratio vs SDL", "Spearman"});
  for (const auto& p : points.value()) {
    table.AddRow({FormatDouble(static_cast<double>(p.theta)),
                  FormatDouble(p.epsilon),
                  FormatDouble(static_cast<double>(p.removed_estabs)),
                  FormatDouble(static_cast<double>(p.removed_jobs)),
                  FormatDouble(p.error_ratio, 4),
                  FormatDouble(p.spearman, 3)});
  }
  table.Print(std::cout);

  // Finding 6 headline numbers.
  double best_ratio_at_4 = 1e300;
  double best_spearman = -1.0;
  for (const auto& p : points.value()) {
    if (p.epsilon == 4.0) {
      best_ratio_at_4 = std::min(best_ratio_at_4, p.error_ratio);
    }
    best_spearman = std::max(best_spearman, p.spearman);
  }
  std::printf(
      "\nbest L1 ratio over all theta at eps=4: %.2f (paper: >= 10x "
      "SDL)\nbest Spearman over the whole sweep: %.3f (paper: <= 0.7)\n",
      best_ratio_at_4, best_spearman);
  return 0;
}
