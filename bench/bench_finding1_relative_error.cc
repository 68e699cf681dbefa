// The per-cell relative-error statement inside Finding 1 of the paper:
// "For Log-Laplace, the relative L1 is within 10 percentage points of the
//  relative error of SDL for 65% of the counts at alpha = 0.1 and eps = 2.
//  Smooth Laplace and Smooth Gamma are within 10 percentage points for
//  75% and 29% of the counts, respectively."
//
// Reproduced on the synthetic extract at the same (alpha, eps) and
// threshold, plus a sweep over epsilon.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf(
      "=== Finding 1 detail: share of cells with relative error within 10pp"
      " of SDL ===\n");
  bench::PrintDatasetSummary(data, setup);

  auto query = lodes::MarginalQuery::Compute(
                   data, lodes::MarginalSpec::EstablishmentMarginal())
                   .value();
  eval::ExperimentRunner runner(&data, setup.experiment);

  TextTable table({"mechanism", "eps", "share within 10pp",
                   "mean rel err (mech)", "mean rel err (SDL)",
                   "paper @ eps=2"});
  const double alpha = 0.1;
  const char* paper_values[] = {"65%", "75%", "29%"};
  int row = 0;
  for (eval::MechanismKind kind :
       {eval::MechanismKind::kLogLaplace, eval::MechanismKind::kSmoothLaplace,
        eval::MechanismKind::kSmoothGamma}) {
    for (double eps : {1.0, 2.0, 4.0}) {
      auto mech = eval::MakeMechanism(kind, alpha, eps, 0.05);
      if (!mech.ok()) {
        table.AddRow({eval::MechanismKindName(kind), FormatDouble(eps), "-",
                      "-", "-", ""});
        continue;
      }
      auto cmp = runner.CompareRelativeError(query, *mech.value(), 0.10);
      if (!cmp.ok()) {
        std::fprintf(stderr, "comparison failed: %s\n",
                     cmp.status().ToString().c_str());
        return 1;
      }
      table.AddRow({eval::MechanismKindName(kind), FormatDouble(eps),
                    FormatDouble(100.0 * cmp.value().fraction_within, 3) +
                        "%",
                    FormatDouble(cmp.value().mean_mechanism_rel, 3),
                    FormatDouble(cmp.value().mean_baseline_rel, 3),
                    eps == 2.0 ? paper_values[row] : ""});
    }
    ++row;
  }
  table.Print(std::cout);
  return 0;
}
