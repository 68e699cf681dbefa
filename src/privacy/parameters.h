// Privacy parameters for (alpha, epsilon[, delta])-ER-EE privacy
// (Definitions 7.2, 7.4 and 9.1 of the paper), with the feasibility
// constraints each mechanism imposes and the Table 2 minimum-epsilon rule.
#ifndef EEP_PRIVACY_PARAMETERS_H_
#define EEP_PRIVACY_PARAMETERS_H_

#include "common/status.h"

namespace eep::privacy {

/// \brief Whether a guarantee holds against all informed attackers (strong,
/// Def. 7.2) or only weak attackers with uniform priors over worker
/// attributes (Def. 7.4).
enum class AdversaryModel {
  kInformed,  ///< Strong (alpha, eps)-ER-EE privacy.
  kWeak,      ///< Weak (alpha, eps)-ER-EE privacy.
};

const char* AdversaryModelName(AdversaryModel model);

/// \brief An (alpha, epsilon, delta) privacy target.
///
/// alpha bounds the multiplicative establishment-size indistinguishability
/// band; epsilon the log Bayes factor; delta the failure probability
/// (0 for pure privacy). alpha = 0 degenerates to edge-DP, alpha = infinity
/// to node-DP (Section 7.2).
struct PrivacyParams {
  double alpha = 0.1;
  double epsilon = 1.0;
  double delta = 0.0;

  /// Basic sanity: alpha >= 0, epsilon > 0, delta in [0, 1).
  Status Validate() const;
};

/// Feasibility of the Smooth Gamma mechanism (Algorithm 2): requires
/// 1 + alpha < e^{epsilon/5} so that the dilation budget epsilon_2 =
/// 5·ln(1+alpha) leaves epsilon_1 > 0.
Status CheckSmoothGammaFeasible(const PrivacyParams& params);

/// Feasibility of the Smooth Laplace mechanism (Algorithm 3): requires
/// delta in (0, 1) and 1 + alpha <= e^{epsilon / (2 ln(1/delta))}.
Status CheckSmoothLaplaceFeasible(const PrivacyParams& params);

/// Minimum epsilon for which Smooth Laplace is feasible at given
/// (alpha, delta): epsilon_min = 2 · ln(1/delta) · ln(1+alpha).
/// This is the closed form behind the paper's Table 2. Its delta = 5e-4
/// entries for alpha 0.01 and 0.10 match it; its three delta = 0.05
/// entries equal it at delta = 0.005 to every printed digit, and its
/// (5e-4, 0.20) entry 2.13 matches neither (the closed form gives 2.77).
Result<double> MinEpsilonForSmoothLaplace(double alpha, double delta);

/// Log-Laplace noise parameter lambda = 2·ln(1+alpha)/epsilon (Alg. 1).
/// The mechanism's expectation is bounded only when lambda < 1 (Lemma 8.2)
/// and its squared relative error bound needs lambda < 1/2 (Thm. 8.3).
Result<double> LogLaplaceLambda(const PrivacyParams& params);

}  // namespace eep::privacy

#endif  // EEP_PRIVACY_PARAMETERS_H_
