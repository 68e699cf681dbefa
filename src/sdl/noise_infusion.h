// Input noise infusion — the production SDL scheme the paper compares
// against (Section 5.1, after Abowd-Stephens-Vilhuber TP-2006-02):
//
//  * Each establishment w receives one confidential, time-invariant
//    multiplicative distortion factor f_w in [1-t, 1-s] ∪ [1+s, 1+t],
//    bounded away from 1 on both sides.
//  * A marginal cell is released as sum_w f_w · h(w, c) over contributing
//    establishments.
//  * Cells whose TRUE count lies in (0, S) are replaced by a draw from a
//    posterior-predictive distribution on {1, ..., floor(S)} (S = 2.5).
//  * Exact zeros are released unmodified — the property the Sec. 5.2
//    re-identification attack exploits.
#ifndef EEP_SDL_NOISE_INFUSION_H_
#define EEP_SDL_NOISE_INFUSION_H_

#include <cstdint>
#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "lodes/marginal.h"
#include "sdl/small_cell.h"

namespace eep::sdl {

/// \brief Parameters of the noise-infusion scheme.
///
/// The production values of (s, t) are themselves confidential; the defaults
/// sit in the publicly documented range for QWI-style fuzz factors.
struct NoiseInfusionParams {
  /// Inner edge of the distortion band (distortions are at least this big).
  double s = 0.10;
  /// Outer edge of the distortion band.
  double t = 0.25;
  /// Small-cell limit S: true counts in (0, S) get replaced.
  double small_cell_limit = 2.5;
  /// Draw |f-1| from the QWI-style ramp (mass concentrated near s) when
  /// true; uniform on [s, t] when false (ablation knob).
  bool ramp_distribution = true;

  Status Validate() const;
};

/// \brief Assigns and stores the per-establishment distortion factors and
/// perturbs marginal queries with them.
///
/// One NoiseInfusion instance corresponds to one "production system": the
/// factors are drawn once and reused across every query, exactly as the
/// deployed SDL does (that reuse is what the shape attack exploits).
class NoiseInfusion {
 public:
  /// Draws a distortion factor for every establishment id in `estab_ids`.
  static Result<NoiseInfusion> Create(NoiseInfusionParams params,
                                      const std::vector<int64_t>& estab_ids,
                                      Rng& rng);

  const NoiseInfusionParams& params() const { return params_; }

  /// The confidential factor for one establishment (exposed for the attack
  /// demonstrations and tests; the production system would never reveal it).
  Result<double> FactorOf(int64_t estab_id) const;

  /// Releases a marginal: for each cell of `query` (in cells() order),
  /// returns the published value per the scheme above.
  Result<std::vector<double>> Release(const lodes::MarginalQuery& query,
                                      Rng& rng) const;

  /// Releases a single cell given its establishment contributions and true
  /// count (the building block of Release()).
  Result<double> ReleaseCell(table::ContributionSpan contributions,
                             int64_t true_count, Rng& rng) const;
  /// The same for a braced list, e.g. ReleaseCell({{estab, count}}, ...).
  Result<double> ReleaseCell(
      std::initializer_list<table::EstabContribution> contributions,
      int64_t true_count, Rng& rng) const {
    return ReleaseCell({contributions.begin(), contributions.size()},
                       true_count, rng);
  }

 private:
  NoiseInfusion(NoiseInfusionParams params, SmallCellSampler sampler)
      : params_(params), small_cells_(sampler) {}

  NoiseInfusionParams params_;
  SmallCellSampler small_cells_;
  std::unordered_map<int64_t, double> factors_;
};

}  // namespace eep::sdl

#endif  // EEP_SDL_NOISE_INFUSION_H_
