// Table 2 of the paper: minimum epsilon for which the Smooth Laplace
// mechanism is feasible at a given (alpha, delta) — the boundary of the
// constraint 1 + alpha <= e^{eps / (2 ln(1/delta))}, i.e.
// eps_min = 2 ln(1/delta) ln(1+alpha).
//
// We print our closed form next to the values printed in the paper. Two of
// the paper's six entries match the closed form. Its three delta = 0.05
// entries equal the closed form at delta = 0.005 to every printed digit
// (0.105, 1.01, 1.932), and its (5e-4, 0.20) entry 2.13 matches neither
// delta (the closed form gives 2.77 there).
#include <cstdio>
#include <iostream>

#include "common/text_table.h"
#include "privacy/parameters.h"

int main() {
  using namespace eep;
  std::printf("=== Table 2: minimum epsilon given alpha and delta ===\n\n");

  struct PaperEntry {
    double delta;
    double alpha;
    double paper_eps;
  };
  const PaperEntry paper[] = {
      {0.05, 0.01, 0.105}, {0.05, 0.10, 1.01},  {0.05, 0.20, 1.932},
      {5e-4, 0.01, 0.15},  {5e-4, 0.10, 1.45},  {5e-4, 0.20, 2.13},
  };

  TextTable table({"delta", "alpha", "eps_min (closed form)",
                   "eps printed in paper"});
  for (const auto& entry : paper) {
    const double ours =
        privacy::MinEpsilonForSmoothLaplace(entry.alpha, entry.delta)
            .value();
    table.AddRow({FormatDouble(entry.delta), FormatDouble(entry.alpha),
                  FormatDouble(ours, 4), FormatDouble(entry.paper_eps, 4)});
  }
  table.Print(std::cout);

  std::printf(
      "\nclosed form: eps_min = 2 ln(1/delta) ln(1+alpha); the (5e-4, "
      "0.01/0.10)\nrows match the paper exactly; its delta = 0.05 rows "
      "equal the closed form at\ndelta = 0.005, and its (5e-4, 0.2) "
      "entry matches neither delta.\n\n");

  // Feasibility frontier for the figure grids: which (alpha, eps) pairs
  // are usable at delta = 0.05 (the setting of Figures 1-5).
  std::printf("feasible (alpha, eps) pairs at delta = 0.05:\n");
  TextTable grid({"alpha", "eps=0.25", "eps=0.5", "eps=1", "eps=2",
                  "eps=4"});
  for (double alpha : {0.01, 0.05, 0.1, 0.15, 0.2}) {
    std::vector<std::string> row = {FormatDouble(alpha)};
    for (double eps : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      row.push_back(
          privacy::CheckSmoothLaplaceFeasible({alpha, eps, 0.05}).ok()
              ? "yes"
              : "-");
    }
    grid.AddRow(std::move(row));
  }
  grid.Print(std::cout);
  return 0;
}
