// Appendix A context: before noise infusion, agencies protected tables by
// primary cell suppression (Fellegi 1972). This bench quantifies what that
// costs on the Workload-1 marginal — the share of cells and of employment
// withheld under classical threshold/dominance rules — next to the L1
// error of noise infusion and of the paper's formally private mechanisms,
// which publish EVERY cell.
#include "bench_common.h"
#include "sdl/suppression.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf(
      "=== Appendix A: primary cell suppression vs perturbative release "
      "===\n");
  bench::PrintDatasetSummary(data, setup);

  auto query = bench::ValueOrExit(
      lodes::MarginalQuery::Compute(
          data, lodes::MarginalSpec::EstablishmentMarginal()),
      "establishment marginal");

  TextTable table({"rule (min estabs / dominance)", "cells suppressed",
                   "share of cells", "share of employment"});
  for (const auto& [min_estabs, dominance] :
       std::vector<std::pair<int64_t, double>>{
           {2, 0.95}, {3, 0.8}, {3, 0.6}, {5, 0.8}}) {
    sdl::SuppressionParams params;
    params.min_establishments = min_estabs;
    params.dominance_share = dominance;
    auto result = bench::ValueOrExit(sdl::SuppressMarginal(query, params),
                                     "cell suppression");
    table.AddRow({FormatDouble(static_cast<double>(min_estabs)) + " / " +
                      FormatDouble(dominance),
                  FormatDouble(static_cast<double>(result.suppressed_cells)),
                  FormatDouble(100.0 * result.SuppressedCellShare(), 3) + "%",
                  FormatDouble(100.0 * result.SuppressedEmploymentShare(),
                               3) +
                      "%"});
  }
  table.Print(std::cout);

  std::printf(
      "\nfor contrast, perturbative schemes publish all %zu cells; their "
      "cost is noise, not absence:\n",
      query.cells().size());
  eval::ExperimentRunner runner(&data, setup.experiment);
  const double sdl_err =
      bench::ValueOrExit(runner.SdlError(query), "noise infusion error")
          .overall;
  std::printf("  noise infusion total L1: %.0f\n", sdl_err);
  auto mech = bench::ValueOrExit(
      eval::MakeMechanism(eval::MechanismKind::kSmoothLaplace, 0.1, 2.0, 0.05),
      "Smooth Laplace");
  std::printf(
      "  Smooth Laplace (eps=2, alpha=0.1) total L1: %.0f — provable "
      "privacy, zero suppression\n",
      bench::ValueOrExit(runner.MechanismError(query, *mech),
                         "Smooth Laplace error")
          .overall);
  return 0;
}
