// Loss functions of the linear hypothesis class.
//
// All classification losses are *margin* losses: per-example loss is
// phi(y * <theta, x>) for a convex, decreasing scalar phi. This structure is
// what makes the Wasserstein-DRO dual collapse to a closed form (the inner
// sup over feature perturbations shifts the margin by at most
// rho * ||theta||_*; see dro/wasserstein.hpp), so the Lipschitz modulus of
// phi is part of the interface. Squared loss is carried as a separate
// regression loss with the same interface shape.
#pragma once

#include <memory>
#include <string>

namespace drel::models {

enum class LossKind { kLogistic, kSmoothedHinge, kSquared, kHuber };

/// Convex scalar loss phi applied to the classification margin z = y <w, x>
/// (or to the residual z = y - <w, x> for regression losses).
class Loss {
 public:
    virtual ~Loss() = default;

    virtual LossKind kind() const noexcept = 0;
    virtual std::string name() const = 0;

    /// True for margin losses (argument is y<w,x>), false for residual
    /// losses (argument is y - <w,x>).
    virtual bool is_margin_loss() const noexcept = 0;

    virtual double phi(double z) const = 0;
    virtual double dphi(double z) const = 0;

    /// Global Lipschitz constant of phi; +inf if unbounded (squared loss).
    virtual double lipschitz() const noexcept = 0;
};

/// phi(z) = log(1 + exp(-z)); Lipschitz 1, smoothness 1/4.
std::unique_ptr<Loss> make_logistic_loss();

/// Quadratically smoothed hinge (Rennie): 0 for z>=1, (1-z)^2/2 for
/// 0<z<1, 0.5-z for z<=0; Lipschitz 1, smoothness 1.
std::unique_ptr<Loss> make_smoothed_hinge_loss();

/// Regression: phi(r) = r^2 / 2 on the residual r = y - <w,x>.
std::unique_ptr<Loss> make_squared_loss();

/// Regression: Huber with threshold delta; Lipschitz delta, smoothness 1.
std::unique_ptr<Loss> make_huber_loss(double delta = 1.0);

std::unique_ptr<Loss> make_loss(LossKind kind);

}  // namespace drel::models
