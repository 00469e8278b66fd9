// Interfaces shared by all solvers in drel::optim.
//
// An Objective is a differentiable scalar function of a parameter vector.
// Solvers only ever see this interface, so the same L-BFGS drives plain ERM,
// the Wasserstein-DRO dual surrogate and the EM M-step without adaptation.
#pragma once

#include <string>

#include "linalg/vector_ops.hpp"

namespace drel::optim {

class Objective {
 public:
    virtual ~Objective() = default;

    /// Problem dimension.
    virtual std::size_t dim() const = 0;

    /// Returns f(x); if `grad` is non-null it is resized and filled with ∇f(x).
    virtual double eval(const linalg::Vector& x, linalg::Vector* grad) const = 0;

    double value(const linalg::Vector& x) const { return eval(x, nullptr); }

    linalg::Vector gradient(const linalg::Vector& x) const {
        linalg::Vector g;
        eval(x, &g);
        return g;
    }

    /// Central-difference gradient; the solvers never call this, but the
    /// tests use it to validate every analytic gradient in the repository.
    linalg::Vector numerical_gradient(const linalg::Vector& x, double h = 1e-6) const;
};

/// Outcome of an iterative solver run.
struct OptimResult {
    linalg::Vector x;
    double value = 0.0;
    double grad_norm = 0.0;
    int iterations = 0;
    bool converged = false;
    std::string message;
};

/// Shared stopping rules.
struct StoppingCriteria {
    int max_iterations = 500;
    double grad_tolerance = 1e-7;       ///< stop when ||grad||_inf below this
    double value_tolerance = 1e-12;     ///< stop when relative decrease below this
};

}  // namespace drel::optim
