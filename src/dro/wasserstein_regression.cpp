#include "dro/wasserstein_regression.hpp"

#include <cmath>
#include <stdexcept>

#include "dro/wasserstein.hpp"

namespace drel::dro {

WassersteinRegressionObjective::WassersteinRegressionObjective(const models::Dataset& data,
                                                               double rho, double l2)
    : data_(&data), rho_(rho), l2_(l2), perturbable_(perturbable_dims(data)) {
    if (data.empty()) throw std::invalid_argument("WassersteinRegression: empty dataset");
    if (!(rho >= 0.0)) throw std::invalid_argument("WassersteinRegression: rho must be >= 0");
    if (l2 < 0.0) throw std::invalid_argument("WassersteinRegression: l2 must be >= 0");
}

std::size_t WassersteinRegressionObjective::dim() const { return data_->dim(); }

double WassersteinRegressionObjective::mse(const linalg::Vector& theta) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < data_->size(); ++i) {
        const double r = data_->label(i) - linalg::dot(theta, data_->feature_row(i));
        acc += r * r;
    }
    return acc / static_cast<double>(data_->size());
}

double WassersteinRegressionObjective::eval(const linalg::Vector& theta,
                                            linalg::Vector* grad) const {
    if (theta.size() != dim()) {
        throw std::invalid_argument("WassersteinRegression: dimension mismatch");
    }
    const std::size_t n = data_->size();
    // Accumulate MSE and its gradient.
    double mse_value = 0.0;
    linalg::Vector mse_grad;
    if (grad) mse_grad = linalg::zeros(dim());
    for (std::size_t i = 0; i < n; ++i) {
        const linalg::Vector xi = data_->feature_row(i);
        const double r = data_->label(i) - linalg::dot(theta, xi);
        mse_value += r * r;
        if (grad) linalg::axpy(-2.0 * r, xi, mse_grad);
    }
    mse_value /= static_cast<double>(n);
    if (grad) linalg::scale(mse_grad, 1.0 / static_cast<double>(n));

    const double root = std::sqrt(std::max(mse_value, 1e-300));
    const double norm = feature_norm(theta, perturbable_);
    const double outer = root + rho_ * norm;
    double value = outer * outer;
    if (grad) {
        // d/dtheta (sqrt(MSE) + rho*||theta_f||)^2
        //   = 2*outer * ( grad(MSE)/(2 sqrt(MSE)) + rho * subgrad norm ).
        *grad = mse_grad;
        linalg::scale(*grad, outer / root);
        if (rho_ > 0.0) {
            linalg::axpy(2.0 * outer * rho_, feature_norm_subgradient(theta, perturbable_),
                         *grad);
        }
    }
    if (l2_ > 0.0) {
        value += 0.5 * l2_ * linalg::dot(theta, theta);
        if (grad) linalg::axpy(l2_, theta, *grad);
    }
    return value;
}

}  // namespace drel::dro
