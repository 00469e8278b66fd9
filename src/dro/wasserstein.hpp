// Wasserstein DRO for linear models: exact duality.
//
// For a margin loss phi (convex, decreasing, L-Lipschitz) and the type-1
// Wasserstein ball with L2 transport cost on FEATURES only (labels and the
// constant bias coordinate cannot be transported),
//
//   sup_{Q : W1(Q, P_hat) <= rho} E_Q[ phi(y <theta, x>) ]
//     = (1/n) sum_i phi(y_i <theta, x_i>)  +  rho * L * ||theta_feat||_2
//
// (Shafieezadeh-Abadeh et al. 2015; the strong dual's inner sup is attained
// by shifting every example's margin at unit cost per unit ||theta_feat||).
// theta_feat is theta restricted to the perturbable coordinates, i.e.
// everything but the trailing bias weight.
//
// This header provides both the closed form (an optim::Objective, used by
// the learners) and the generic numeric dual (used by tests and by
// bench_fig8_duality to certify the closed form).
#pragma once

#include "models/dataset.hpp"
#include "models/loss.hpp"
#include "optim/objective.hpp"

namespace drel::dro {

/// Number of perturbable (transportable) leading coordinates of theta; the
/// remaining trailing coordinates (the bias) are cost-infinite to move.
std::size_t perturbable_dims(const models::Dataset& data) noexcept;

/// ||theta restricted to its first `perturbable` coords||_2.
double feature_norm(const linalg::Vector& theta, std::size_t perturbable);

/// Subgradient of feature_norm extended by zeros (the zero vector at 0).
linalg::Vector feature_norm_subgradient(const linalg::Vector& theta, std::size_t perturbable);

/// Closed-form Wasserstein-robust empirical loss:
///   f(theta) = (1/n) sum_i phi_i(theta) + rho * L * feature_norm(theta)
///              + (l2/2) ||theta||^2.
/// Requires a margin loss with finite Lipschitz constant.
class WassersteinDroObjective final : public optim::Objective {
 public:
    WassersteinDroObjective(const models::Dataset& data, const models::Loss& loss, double rho,
                            double l2 = 0.0);

    std::size_t dim() const override;
    double eval(const linalg::Vector& theta, linalg::Vector* grad) const override;

 private:
    const models::Dataset* data_;
    const models::Loss* loss_;
    double rho_;
    double l2_;
    std::size_t perturbable_;
};

/// Generic numeric dual evaluation of the same sup (no closed form used):
///   inf_{lambda >= L*||theta_feat||} { lambda*rho
///        + (1/n) sum_i sup_{s>=0} [ phi(m_i - s*||theta_feat||) - lambda*s ] }
/// Solved with nested 1-D optimization. Exists to certify the closed form;
/// O(n * iterations) per call.
double wasserstein_robust_value_numeric(const linalg::Vector& theta,
                                        const models::Dataset& data, const models::Loss& loss,
                                        double rho);

}  // namespace drel::dro
