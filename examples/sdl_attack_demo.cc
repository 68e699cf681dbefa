// A narrative walk-through of the Section 5.2 inference attacks against
// the legacy input-noise-infusion SDL, and why the formally private
// mechanisms resist them.
//
// Scenario: "Milltown" has exactly one manufacturer. The published
// (sex x education)-by-workplace marginal therefore exposes cells that all
// belong to that single establishment, each equal to the same confidential
// fuzz factor times the true count.
//
// Build & run:  ./build/examples/sdl_attack_demo
#include <cstdio>
#include <vector>

#include "mechanisms/smooth_laplace.h"
#include "sdl/attacks.h"
#include "sdl/noise_infusion.h"

int main() {
  using namespace eep;

  // The manufacturer's confidential workforce histogram over 4 education
  // bins (the attacker does NOT know these).
  const std::vector<int64_t> truth = {40, 120, 60, 20};
  std::printf("confidential workforce histogram:    40  120   60   20\n");

  Rng rng(31415);
  auto infusion = sdl::NoiseInfusion::Create({}, {1001}, rng).value();
  std::vector<double> published;
  for (int64_t c : truth) {
    published.push_back(infusion.ReleaseCell({{1001, c}}, c, rng).value());
  }
  std::printf("SDL publishes:                     ");
  for (double v : published) std::printf("%6.1f", v);
  std::printf("\n\n");

  // Attack 1: shape. The common factor cancels in the normalization.
  auto shape = sdl::InferEstablishmentShape(published, 2.5).value();
  std::printf("[attack 1: shape] inferred composition:");
  for (double s : shape.inferred_shape) std::printf(" %.4f", s);
  std::printf("  exact=%s\n", shape.exact ? "YES (Def. 4.3 violated)" : "no");

  // Attack 2: size. A manager who knows one true cell recovers the fuzz
  // factor and then everything else.
  auto size =
      sdl::ReconstructEstablishmentSize(published, 1, 120, 2.5).value();
  std::printf(
      "[attack 2: size]  attacker knows cell 1 = 120 workers ->\n"
      "                  fuzz factor %.6f (truth %.6f), total workforce "
      "%.0f (truth 240)  (Def. 4.2 violated)\n",
      size.inferred_factor, infusion.FactorOf(1001).value(),
      size.reconstructed_total);

  // Attack 3: re-identification via preserved zeros. Suppose exactly one
  // employee has a college degree; the SDL preserves zero cells, so the
  // single positive BA+ cell reveals that employee's sex.
  // Cells: [M x 4 education bins, F x 4 education bins], BA+ is index 3/7.
  const std::vector<int64_t> cells_with_unique_grad = {12, 30, 8, 0,
                                                       10, 25, 6, 1};
  std::vector<double> published2;
  for (int64_t c : cells_with_unique_grad) {
    published2.push_back(infusion.ReleaseCell({{1001, c}}, c, rng).value());
  }
  std::vector<bool> is_ba = {false, false, false, true,
                             false, false, false, true};
  auto reid = sdl::ReidentifyWorker(published2, is_ba).value();
  std::printf(
      "[attack 3: re-id] unique positive BA+ cell -> the only graduate is "
      "%s  (Def. 4.1 violated)\n\n",
      reid.unique_match ? (reid.matched_cell == 7 ? "FEMALE" : "MALE")
                        : "ambiguous");

  // Contrast: the same publication under Smooth Laplace at
  // (alpha=0.1, eps=2, delta=0.05).
  auto mech =
      mechanisms::SmoothLaplaceMechanism::Create({0.1, 2.0, 0.05}).value();
  std::vector<mechanisms::CellQuery> cells;
  for (int64_t c : truth) cells.push_back({c, c, nullptr});
  std::vector<double> private_release;
  const Status released = mech.ReleaseBatch(cells, rng, &private_release);
  if (!released.ok()) {
    std::fprintf(stderr, "%s\n", released.ToString().c_str());
    return 1;
  }
  std::printf("Smooth Laplace publishes:          ");
  for (double v : private_release) std::printf("%6.1f", v);
  std::printf("\n");
  auto private_shape =
      sdl::InferEstablishmentShape(private_release, 2.5).value();
  std::printf("[attack 1 retried] inferred composition:");
  for (double s : private_shape.inferred_shape) std::printf(" %.4f", s);
  std::printf(
      "\n                  -> off by independent per-cell noise; Def. 4.3 "
      "bounds any Bayes factor at e^eps.\n");
  auto private_size =
      sdl::ReconstructEstablishmentSize(private_release, 1, 120, 2.5)
          .value();
  std::printf(
      "[attack 2 retried] 'reconstructed' total %.1f vs truth 240 -> the "
      "one-cell trick no longer transfers.\n",
      private_size.reconstructed_total);
  std::printf(
      "[attack 3 retried] zero cells receive noise like any other cell, "
      "so absence can no longer be asserted.\n");
  return 0;
}
