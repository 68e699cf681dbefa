// Ablation bench for design choices the paper leaves open (not figures in
// the paper, but engineering questions its algorithms raise):
//
//  A. Log-Laplace bias correction (Lemma 8.2): does multiplying by
//     (1 - lambda^2) reduce L1 error on real marginals?
//  B. Smooth Gamma epsilon split: the paper's eps2 = 5 ln(1+alpha)
//     (minimal dilation) vs a naive equal split eps1 = eps2 = eps/2.
//  C. SDL fuzz-factor distribution: QWI-style ramp vs uniform on [s, t] —
//     how much does the baseline's own error move?
//  D. Integer release: Smooth Geometric vs Smooth Laplace at the same
//     (alpha, eps, delta).
#include "bench_common.h"
#include "mechanisms/log_laplace.h"
#include "mechanisms/smooth_gamma.h"
#include "mechanisms/smooth_laplace.h"
#include "mechanisms/geometric.h"
#include "privacy/sensitivity.h"

namespace eep {
namespace {

// Equal-split variant of Smooth Gamma for ablation B: wraps the production
// mechanism's noise with a suboptimal budget split (eps1 = eps2 = eps/2),
// implemented via the same smooth-sensitivity formula.
class EqualSplitSmoothGamma : public mechanisms::CountMechanism {
 public:
  EqualSplitSmoothGamma(double alpha, double epsilon)
      : alpha_(alpha), eps1_(epsilon / 2.0), eps2_(epsilon / 2.0) {}

  std::string name() const override { return "Smooth Gamma (equal split)"; }

  Status ReleaseBatch(const std::vector<mechanisms::CellQuery>& cells,
                      Rng& rng, std::vector<double>* out) const override {
    std::vector<double> scale(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      EEP_ASSIGN_OR_RETURN(scale[i], NoiseScale(cells[i]));
    }
    std::vector<double> eta(cells.size());
    rng.FillUniform(eta.data(), eta.size());
    noise_.QuantileN(eta.data(), eta.data(), eta.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      out->push_back(static_cast<double>(cells[i].true_count) +
                     scale[i] * eta[i]);
    }
    return Status::OK();
  }

  Result<double> ExpectedL1Error(
      const mechanisms::CellQuery& cell) const override {
    EEP_ASSIGN_OR_RETURN(double scale, NoiseScale(cell));
    return scale * noise_.MeanAbs();
  }

 private:
  Result<double> NoiseScale(const mechanisms::CellQuery& cell) const {
    EEP_ASSIGN_OR_RETURN(
        double smooth,
        privacy::SmoothSensitivity(cell.x_v, alpha_, eps2_ / 5.0));
    return smooth / (eps1_ / 5.0);
  }
  double alpha_;
  double eps1_;
  double eps2_;
  GeneralizedCauchy4 noise_;
};

}  // namespace
}  // namespace eep

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);
  bench::BenchSetup setup = bench::SetupFromFlags(flags);
  lodes::LodesDataset data = bench::MustGenerate(setup);

  std::printf("=== Ablations: design choices ===\n");
  bench::PrintDatasetSummary(data, setup);

  auto query = bench::ValueOrExit(
      lodes::MarginalQuery::Compute(
          data, lodes::MarginalSpec::EstablishmentMarginal()),
      "establishment marginal");
  eval::ExperimentRunner runner(&data, setup.experiment);
  const double alpha = 0.1, eps = 2.0, delta = 0.05;

  // --- A: Log-Laplace bias correction. --------------------------------
  {
    auto biased = bench::ValueOrExit(
        mechanisms::LogLaplaceMechanism::Create({alpha, eps, 0.0}),
        "ablation A, biased Log-Laplace");
    auto debiased = bench::ValueOrExit(
        mechanisms::LogLaplaceMechanism::Create({alpha, eps, 0.0}, true),
        "ablation A, debiased Log-Laplace");
    const double err_biased =
        bench::ValueOrExit(runner.MechanismError(query, biased),
                           "ablation A, biased Log-Laplace error")
            .overall;
    const double err_debiased =
        bench::ValueOrExit(runner.MechanismError(query, debiased),
                           "ablation A, debiased Log-Laplace error")
            .overall;
    std::printf(
        "A. Log-Laplace L1 (alpha=%.2f, eps=%.1f): biased %.1f vs "
        "debiased %.1f (%+.1f%%)\n",
        alpha, eps, err_biased, err_debiased,
        100.0 * (err_debiased - err_biased) / err_biased);
  }

  // --- B: Smooth Gamma budget split. -----------------------------------
  {
    auto paper_split = bench::ValueOrExit(
        mechanisms::SmoothGammaMechanism::Create({alpha, eps, 0.0}),
        "ablation B, Smooth Gamma");
    EqualSplitSmoothGamma equal_split(alpha, eps);
    const double err_paper =
        bench::ValueOrExit(runner.MechanismError(query, paper_split),
                           "ablation B, paper split error")
            .overall;
    const double err_equal =
        bench::ValueOrExit(runner.MechanismError(query, equal_split),
                           "ablation B, equal split error")
            .overall;
    std::printf(
        "B. Smooth Gamma L1: paper split (eps2=5ln(1+a)) %.1f vs equal "
        "split %.1f (equal split %+.1f%%)\n",
        err_paper, err_equal,
        100.0 * (err_equal - err_paper) / err_paper);
  }

  // --- C: SDL ramp vs uniform fuzz factors. ----------------------------
  {
    eval::ExperimentConfig uniform_cfg = setup.experiment;
    uniform_cfg.sdl_params.ramp_distribution = false;
    eval::ExperimentRunner uniform_runner(&data, uniform_cfg);
    const double ramp_err =
        bench::ValueOrExit(runner.SdlError(query), "ablation C, ramp error")
            .overall;
    const double uniform_err =
        bench::ValueOrExit(uniform_runner.SdlError(query),
                           "ablation C, uniform error")
            .overall;
    std::printf(
        "C. SDL baseline L1: ramp factors %.1f vs uniform factors %.1f "
        "(uniform %+.1f%%)\n",
        ramp_err, uniform_err,
        100.0 * (uniform_err - ramp_err) / ramp_err);
  }

  // --- D: integer vs continuous smooth release. ------------------------
  {
    auto continuous = bench::ValueOrExit(
        mechanisms::SmoothLaplaceMechanism::Create({alpha, eps, delta}),
        "ablation D, Smooth Laplace");
    auto integer = bench::ValueOrExit(
        mechanisms::GeometricMechanism::Create({alpha, eps, delta}),
        "ablation D, Smooth Geometric");
    const double err_cont =
        bench::ValueOrExit(runner.MechanismError(query, continuous),
                           "ablation D, Smooth Laplace error")
            .overall;
    const double err_int =
        bench::ValueOrExit(runner.MechanismError(query, integer),
                           "ablation D, Smooth Geometric error")
            .overall;
    std::printf(
        "D. Smooth Laplace L1 %.1f vs Smooth Geometric (integer) %.1f "
        "(integer %+.1f%%)\n",
        err_cont, err_int, 100.0 * (err_int - err_cont) / err_cont);
  }
  return 0;
}
