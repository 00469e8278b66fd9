// Gradient descent with backtracking line search. The fine-tuning baseline
// runs a fixed budget of its steps from the cloud prior's mean.
#pragma once

#include "optim/objective.hpp"

namespace drel::optim {

struct GradientDescentOptions {
    StoppingCriteria stopping;
    double initial_step = 1.0;
};

OptimResult minimize_gradient_descent(const Objective& objective, linalg::Vector x0,
                                      const GradientDescentOptions& options = {});

}  // namespace drel::optim
