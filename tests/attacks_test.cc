// End-to-end demonstrations that the Sec. 5.2 attacks succeed against the
// SDL baseline — the executable backing of Table 1's "No" row — and that
// the smooth-sensitivity mechanisms break the attacks' preconditions.
#include "sdl/attacks.h"

#include <gtest/gtest.h>

#include <cmath>

#include "mechanisms/smooth_laplace.h"
#include "sdl/noise_infusion.h"

namespace eep::sdl {
namespace {

constexpr double kSmallCellLimit = 2.5;

// The single-establishment scenario of Sec. 5.2: a marginal where one
// workplace combo matches exactly one establishment, cells = 4 education
// levels. True histogram below; all counts above the small-cell limit.
const std::vector<int64_t> kTrueCells = {40, 120, 60, 20};

std::vector<double> SdlPublish(const std::vector<int64_t>& cells, Rng& rng,
                               NoiseInfusion* infusion_out = nullptr) {
  NoiseInfusionParams params;
  auto infusion = NoiseInfusion::Create(params, {1}, rng).value();
  std::vector<double> published;
  for (int64_t c : cells) {
    published.push_back(infusion.ReleaseCell({{1, c}}, c, rng).value());
  }
  if (infusion_out) *infusion_out = infusion;
  return published;
}

TEST(ShapeAttackTest, RecoversExactShapeFromSdl) {
  Rng rng(23);
  const auto published = SdlPublish(kTrueCells, rng);
  auto result =
      InferEstablishmentShape(published, kSmallCellLimit).value();
  ASSERT_TRUE(result.exact);
  const double total = 240.0;
  for (size_t i = 0; i < kTrueCells.size(); ++i) {
    EXPECT_NEAR(result.inferred_shape[i], kTrueCells[i] / total, 1e-9)
        << "shape leaked exactly despite noise infusion";
  }
}

TEST(ShapeAttackTest, SmallCellsBreakExactness) {
  Rng rng(29);
  const std::vector<int64_t> cells = {40, 2, 60, 20};  // one small cell
  const auto published = SdlPublish(cells, rng);
  auto result =
      InferEstablishmentShape(published, kSmallCellLimit).value();
  EXPECT_FALSE(result.exact);
}

TEST(ShapeAttackTest, InputValidation) {
  EXPECT_FALSE(InferEstablishmentShape({}, kSmallCellLimit).ok());
  EXPECT_FALSE(
      InferEstablishmentShape({0.0, 0.0}, kSmallCellLimit).ok());
  EXPECT_FALSE(
      InferEstablishmentShape({-1.0, 5.0}, kSmallCellLimit).ok());
}

TEST(SizeAttackTest, ReconstructsFactorAndTotal) {
  Rng rng(31);
  NoiseInfusion infusion = NoiseInfusion::Create({}, {1}, rng).value();
  std::vector<double> published;
  for (int64_t c : kTrueCells) {
    published.push_back(infusion.ReleaseCell({{1, c}}, c, rng).value());
  }
  // Attacker knows cell 1 truly holds 120 workers.
  auto result =
      ReconstructEstablishmentSize(published, 1, 120, kSmallCellLimit)
          .value();
  EXPECT_NEAR(result.inferred_factor, infusion.FactorOf(1).value(), 1e-9);
  EXPECT_NEAR(result.reconstructed_total, 240.0, 1e-6)
      << "total employment disclosed exactly (violates Def. 4.2)";
  for (size_t i = 0; i < kTrueCells.size(); ++i) {
    EXPECT_NEAR(result.reconstructed_counts[i],
                static_cast<double>(kTrueCells[i]), 1e-6);
  }
}

TEST(SizeAttackTest, FailsWhenKnownCellIsSmall) {
  std::vector<double> published = {44.0, 2.0, 66.0};
  EXPECT_EQ(ReconstructEstablishmentSize(published, 1, 2, kSmallCellLimit)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(SizeAttackTest, InputValidation) {
  std::vector<double> published = {44.0};
  EXPECT_FALSE(
      ReconstructEstablishmentSize(published, 5, 10, kSmallCellLimit).ok());
  EXPECT_FALSE(
      ReconstructEstablishmentSize(published, 0, 0, kSmallCellLimit).ok());
}

TEST(ReidentificationTest, UniquePositiveCellRevealsVictim) {
  // 8 cells (sex x education); the victim is the only college-educated
  // worker. Zeros preserved by the SDL expose the victim's sex: only the
  // (F, BA+) cell is positive among BA+ cells.
  std::vector<double> published = {5.5, 10.2, 3.3, 0.0,   // male cells
                                   4.4, 8.8, 2.2, 1.0};   // female cells
  std::vector<bool> is_college = {false, false, false, true,
                                  false, false, false, true};
  auto result = ReidentifyWorker(published, is_college).value();
  ASSERT_TRUE(result.unique_match);
  EXPECT_EQ(result.matched_cell, 7u) << "victim identified as female BA+";
}

TEST(ReidentificationTest, MultipleMatchesNoReidentification) {
  std::vector<double> published = {1.0, 2.0};
  std::vector<bool> property = {true, true};
  EXPECT_FALSE(ReidentifyWorker(published, property).value().unique_match);
}

TEST(ReidentificationTest, LengthMismatchRejected) {
  EXPECT_FALSE(ReidentifyWorker({1.0}, {true, false}).ok());
}

// ---------------------------------------------------------------------------
// Contrast: the same attacks fail against the formally private release.
// ---------------------------------------------------------------------------

// kTrueCells as mechanism inputs: a single establishment, so the whole
// cell is one employer (x_v = count).
std::vector<mechanisms::CellQuery> SingleEmployerCells() {
  std::vector<mechanisms::CellQuery> cells;
  for (int64_t c : kTrueCells) cells.push_back({c, c, nullptr});
  return cells;
}

TEST(AttackContrastTest, SmoothLaplaceBreaksShapeAttack) {
  privacy::PrivacyParams params{0.1, 2.0, 0.05};
  auto mech = mechanisms::SmoothLaplaceMechanism::Create(params).value();
  Rng rng(37);
  std::vector<double> published;
  ASSERT_TRUE(mech.ReleaseBatch(SingleEmployerCells(), rng, &published).ok());
  auto result =
      InferEstablishmentShape(published, kSmallCellLimit).value();
  // Independent per-cell noise: the inferred shape cannot match the truth
  // to SDL precision. Check total deviation is material.
  double deviation = 0.0;
  for (size_t i = 0; i < kTrueCells.size(); ++i) {
    deviation += std::abs(result.inferred_shape[i] - kTrueCells[i] / 240.0);
  }
  EXPECT_GT(deviation, 1e-3);
}

TEST(AttackContrastTest, SmoothLaplaceBreaksSizeAttack) {
  privacy::PrivacyParams params{0.1, 2.0, 0.05};
  auto mech = mechanisms::SmoothLaplaceMechanism::Create(params).value();
  Rng rng(41);
  std::vector<double> published;
  ASSERT_TRUE(mech.ReleaseBatch(SingleEmployerCells(), rng, &published).ok());
  auto result =
      ReconstructEstablishmentSize(published, 1, 120, kSmallCellLimit)
          .value();
  // The "factor" reconstructed from one cell does not transfer: totals are
  // off by noise on every cell rather than matching exactly.
  EXPECT_GT(std::abs(result.reconstructed_total - 240.0), 0.5);
}

}  // namespace
}  // namespace eep::sdl
