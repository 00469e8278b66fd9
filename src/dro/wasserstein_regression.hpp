// Wasserstein DRO for linear regression — exact type-2 duality.
//
// For squared loss l(theta; x, y) = (y - <theta, x>)^2 and the order-2
// Wasserstein ball with transport cost ||dx||_2^2 on features (labels and
// the trailing bias coordinate immutable), Blanchet, Kang & Murthy (2019)
// prove
//
//   sup_{Q : W2(Q, P_hat) <= rho} E_Q[(y - <theta, x>)^2]
//     = ( sqrt( E_{P_hat}[(y - <theta, x>)^2] ) + rho * ||theta_feat||_2 )^2
//
// — the square of a "sqrt-ridge" objective. The right-hand side is convex
// in theta (composition of the convex, nonnegative sqrt-MSE + norm with the
// increasing convex square), so the robust regression fit stays a smooth
// convex program. This module provides the objective and its gradient.
#pragma once

#include "models/dataset.hpp"
#include "optim/objective.hpp"
#include "stats/rng.hpp"

namespace drel::dro {

class WassersteinRegressionObjective final : public optim::Objective {
 public:
    /// Labels in `data` are real-valued responses.
    WassersteinRegressionObjective(const models::Dataset& data, double rho, double l2 = 0.0);

    std::size_t dim() const override;
    double eval(const linalg::Vector& theta, linalg::Vector* grad) const override;

    /// Plain mean squared error at theta (the rho = 0 value).
    double mse(const linalg::Vector& theta) const;

 private:
    const models::Dataset* data_;
    double rho_;
    double l2_;
    std::size_t perturbable_;
};

}  // namespace drel::dro
