#include "optim/lbfgs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "optim/line_search.hpp"

namespace drel::optim {

OptimResult minimize_lbfgs(const Objective& objective, linalg::Vector x0,
                           const LbfgsOptions& options) {
    if (x0.size() != objective.dim()) {
        throw std::invalid_argument("minimize_lbfgs: x0 dimension mismatch");
    }
    if (options.history < 1) throw std::invalid_argument("minimize_lbfgs: history must be >= 1");
    DREL_PROFILE_SCOPE("optim.lbfgs");

    OptimResult result;
    result.x = std::move(x0);
    linalg::Vector grad;
    double fx = objective.eval(result.x, &grad);

    // The (s, y) corrections live in a ring of `history` slots: slot
    // (oldest + i) % m holds the i-th oldest pair. A new pair is built in
    // the scratch s/y and swapped into its slot only if it passes the
    // curvature check, so a rejected pair never disturbs the ring. Slots
    // start empty and take their buffers from the swap, so a solve that
    // stops after a few steps allocates only what it used; every buffer is
    // then reused across iterations.
    const std::size_t m = static_cast<std::size_t>(options.history);
    std::vector<linalg::Vector> ring_s(m);  // x_{k+1} - x_k
    std::vector<linalg::Vector> ring_y(m);  // g_{k+1} - g_k
    std::vector<double> ring_rho(m);        // 1 / <y, s>
    std::size_t oldest = 0;
    std::size_t count = 0;
    const auto slot = [&](std::size_t i) { return (oldest + i) % m; };
    std::vector<double> alpha(m);
    linalg::Vector q;
    linalg::Vector direction;
    linalg::Vector x_new;
    linalg::Vector s;
    linalg::Vector y;

    for (int it = 0; it < options.stopping.max_iterations; ++it) {
        result.iterations = it;
        const double gnorm = linalg::norm_inf(grad);
        if (gnorm <= options.stopping.grad_tolerance) {
            result.converged = true;
            result.message = "gradient tolerance reached";
            break;
        }

        // Two-loop recursion: d = -H_k * grad, newest pair first.
        q = grad;
        for (std::size_t i = count; i-- > 0;) {
            const std::size_t k = slot(i);
            alpha[i] = ring_rho[k] * linalg::dot(ring_s[k], q);
            linalg::axpy(-alpha[i], ring_y[k], q);
        }
        if (count > 0) {
            const std::size_t last = slot(count - 1);
            const double gamma = linalg::dot(ring_s[last], ring_y[last]) /
                                 linalg::dot(ring_y[last], ring_y[last]);
            linalg::scale(q, gamma);
        }
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t k = slot(i);
            const double beta = ring_rho[k] * linalg::dot(ring_y[k], q);
            linalg::axpy(alpha[i] - beta, ring_s[k], q);
        }
        direction = q;
        linalg::scale(direction, -1.0);

        // Fall back to steepest descent if curvature information went stale.
        if (!(linalg::dot(grad, direction) < 0.0)) {
            direction = grad;
            linalg::scale(direction, -1.0);
            oldest = 0;
            count = 0;
        }

        const double init_step = count == 0 ? 1.0 / std::max(1.0, linalg::norm2(grad)) : 1.0;
        LineSearchResult ls = strong_wolfe(objective, result.x, fx, grad, direction, init_step,
                                           options.c1, options.c2);
        if (!ls.success) {
            result.message = "line search failed";
            break;
        }

        // The accepted probe was evaluated at exactly this point (copy +
        // axpy is the line search's own probe), so its value and gradient
        // are the new iterate's: no second eval.
        x_new = result.x;
        linalg::axpy(ls.step, direction, x_new);
        linalg::Vector grad_new = std::move(ls.gradient);
        const double f_new = ls.value;

        linalg::sub_into(x_new, result.x, s);
        linalg::sub_into(grad_new, grad, y);
        const double sy = linalg::dot(s, y);
        if (sy > 1e-12 * linalg::norm2(s) * linalg::norm2(y)) {
            // A full ring overwrites its oldest pair.
            const std::size_t k = count < m ? slot(count) : oldest;
            if (count < m) {
                ++count;
            } else {
                oldest = (oldest + 1) % m;
            }
            std::swap(ring_s[k], s);
            std::swap(ring_y[k], y);
            ring_rho[k] = 1.0 / sy;
        }

        const double decrease = fx - f_new;
        std::swap(result.x, x_new);
        grad = std::move(grad_new);
        fx = f_new;
        if (decrease >= 0.0 &&
            decrease <= options.stopping.value_tolerance * (std::fabs(fx) + 1.0)) {
            result.converged = true;
            result.message = "value tolerance reached";
            result.iterations = it + 1;
            break;
        }
    }
    result.value = fx;
    result.grad_norm = linalg::norm_inf(grad);
    if (result.message.empty()) result.message = "max iterations reached";
    static obs::Counter& solves = obs::Registry::global().counter("optim.lbfgs_solves");
    static obs::Counter& iterations =
        obs::Registry::global().counter("optim.lbfgs_iterations");
    solves.add(1);
    iterations.add(static_cast<std::uint64_t>(result.iterations));
    return result;
}

}  // namespace drel::optim
