// KL-divergence DRO via the Donsker-Varadhan dual.
//
//   sup_{Q : KL(Q || P_hat) <= rho} E_Q[l]
//     = inf_{lambda > 0} { lambda * rho + lambda * log (1/n) sum_i e^{l_i / lambda} }
//
// The dual is a 1-D convex minimization; at the optimum the worst-case
// distribution is the exponential tilt q_i ∝ exp(l_i / lambda*). Gradients
// in theta follow from Danskin's theorem: grad = sum_i q_i* grad l_i.
#pragma once

#include "linalg/vector_ops.hpp"
#include "models/dataset.hpp"
#include "models/loss.hpp"
#include "optim/objective.hpp"

namespace drel::dro {

struct KlDualSolution {
    double value = 0.0;          ///< the robust (worst-case) expected loss
    double lambda = 0.0;         ///< optimal dual temperature
    linalg::Vector weights;      ///< worst-case distribution q* (sums to 1)
};

/// Solves the 1-D dual given the per-example losses. rho == 0 degenerates
/// to the empirical mean with uniform weights.
KlDualSolution solve_kl_dual(const linalg::Vector& losses, double rho);

/// The KL-robust empirical loss as an Objective:
///   f(theta) = sup_{KL <= rho} E_Q[phi_i(theta)] + (l2/2)||theta||^2.
/// Convex in theta (pointwise sup of convex functions).
class KlDroObjective final : public optim::Objective {
 public:
    KlDroObjective(const models::Dataset& data, const models::Loss& loss, double rho,
                   double l2 = 0.0);

    std::size_t dim() const override;
    double eval(const linalg::Vector& theta, linalg::Vector* grad) const override;

 private:
    const models::Dataset* data_;
    const models::Loss* loss_;
    double rho_;
    double l2_;
};

}  // namespace drel::dro
