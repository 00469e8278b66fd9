// Chi-square DRO via the Cressie-Read dual.
//
// With D_chi2(Q || P_hat) = (1/2n) sum_i (n q_i - 1)^2,
//
//   sup_{Q : D_chi2 <= rho} E_Q[l] =
//     inf_{lambda >= 0, eta} { lambda*rho + eta
//         + (1/n) sum_i [ a_i + a_i^2/(2 lambda)  if a_i >= -lambda
//                         -lambda/2               otherwise ] },   a_i = l_i - eta.
//
// The dual is jointly convex in (lambda, eta); we minimize by nesting two
// 1-D convex searches. The worst case is the clipped linear tilt
// q_i* = max(0, 1 + a_i/lambda*) / n.
#pragma once

#include "linalg/vector_ops.hpp"
#include "models/dataset.hpp"
#include "models/loss.hpp"
#include "optim/objective.hpp"

namespace drel::dro {

struct ChiSquareDualSolution {
    double value = 0.0;
    double lambda = 0.0;
    double eta = 0.0;
    linalg::Vector weights;   ///< worst-case distribution (sums to ~1)
};

ChiSquareDualSolution solve_chi_square_dual(const linalg::Vector& losses, double rho);

/// Chi-square-robust empirical loss as an Objective (Danskin gradient).
class ChiSquareDroObjective final : public optim::Objective {
 public:
    ChiSquareDroObjective(const models::Dataset& data, const models::Loss& loss, double rho,
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
