#include "optim/line_search.hpp"

#include <cmath>
#include <utility>

namespace drel::optim {
namespace {

linalg::Vector advance(const linalg::Vector& x, double t, const linalg::Vector& d) {
    linalg::Vector out = x;
    linalg::axpy(t, d, out);
    return out;
}

}  // namespace

LineSearchResult backtracking_armijo(const Objective& objective, const linalg::Vector& x,
                                     double fx, const linalg::Vector& grad,
                                     const linalg::Vector& direction, double initial_step,
                                     double c1, double shrink, int max_evals) {
    LineSearchResult result;
    const double slope = linalg::dot(grad, direction);
    if (!(slope < 0.0)) return result;  // not a descent direction

    double t = initial_step;
    for (int e = 0; e < max_evals; ++e) {
        const double ft = objective.value(advance(x, t, direction));
        ++result.evaluations;
        if (std::isfinite(ft) && ft <= fx + c1 * t * slope) {
            result.step = t;
            result.value = ft;
            result.success = true;
            return result;
        }
        t *= shrink;
        if (t < 1e-20) break;
    }
    return result;
}

LineSearchResult strong_wolfe(const Objective& objective, const linalg::Vector& x, double fx,
                              const linalg::Vector& grad, const linalg::Vector& direction,
                              double initial_step, double c1, double c2, int max_evals) {
    LineSearchResult result;
    const double slope0 = linalg::dot(grad, direction);
    if (!(slope0 < 0.0)) return result;
    if (std::isinf(slope0)) {
        // <grad, d> overflowed (|grad| above ~1e154): every Armijo bound
        // would be -inf and no probe could pass. Search the same ray along
        // d * 2^-k, with the first k (in steps of 32) whose slope is finite,
        // and map the step back. Power-of-two scaling is exact, so the
        // accepted probe is still advance(x, step, d) unless a component of
        // d drops to a subnormal.
        linalg::Vector scaled = direction;
        int k = 0;
        double slope = slope0;
        while (std::isinf(slope) && k < 2048) {
            linalg::scale(scaled, 0x1p-32);
            k += 32;
            slope = linalg::dot(grad, scaled);
        }
        if (!(slope < 0.0) || std::isinf(slope)) return result;
        result = strong_wolfe(objective, x, fx, grad, scaled, std::ldexp(initial_step, k), c1,
                              c2, max_evals);
        result.step = std::ldexp(result.step, -k);
        return result;
    }

    // The latest probe point and its gradient, one buffer each for the whole
    // search. The point is rebuilt as copy-of-x + axpy, exactly what
    // advance() computes; the gradient is cleared before every eval, so
    // each probe starts from an empty vector exactly as a fresh one would.
    linalg::Vector probe;
    linalg::Vector g;
    auto phi = [&](double t, double* dphi) {
        probe = x;
        linalg::axpy(t, direction, probe);
        g.clear();
        const double f = objective.eval(probe, &g);
        ++result.evaluations;
        if (dphi) *dphi = linalg::dot(g, direction);
        return f;
    };
    // Every acceptance is of the probe phi just evaluated.
    auto accept = [&](double t, double f_t) {
        result.step = t;
        result.value = f_t;
        result.gradient = std::move(g);
        result.success = true;
    };

    // Zoom stage (Nocedal & Wright algorithm 3.6): bisection-based.
    auto zoom = [&](double lo, double f_lo, double hi) -> bool {
        for (int z = 0; z < max_evals; ++z) {
            const double t = 0.5 * (lo + hi);
            double dphi_t = 0.0;
            const double f_t = phi(t, &dphi_t);
            if (!std::isfinite(f_t) || f_t > fx + c1 * t * slope0 || f_t >= f_lo) {
                hi = t;
            } else {
                if (std::fabs(dphi_t) <= -c2 * slope0) {
                    accept(t, f_t);
                    return true;
                }
                if (dphi_t * (hi - lo) >= 0.0) hi = lo;
                lo = t;
                f_lo = f_t;
            }
            if (std::fabs(hi - lo) < 1e-16) break;
        }
        // Accept the best Armijo point found even if curvature failed; this
        // keeps L-BFGS making progress on ill-conditioned tails.
        double dphi_lo = 0.0;
        const double f_final = phi(lo, &dphi_lo);
        if (lo > 0.0 && std::isfinite(f_final) && f_final <= fx + c1 * lo * slope0) {
            accept(lo, f_final);
            return true;
        }
        return false;
    };

    double t_prev = 0.0;
    double f_prev = fx;
    double t = initial_step;
    const double t_max = 1e10;
    for (int e = 0; e < max_evals; ++e) {
        double dphi_t = 0.0;
        const double f_t = phi(t, &dphi_t);
        if (!std::isfinite(f_t) || f_t > fx + c1 * t * slope0 || (e > 0 && f_t >= f_prev)) {
            zoom(t_prev, f_prev, t);
            return result;
        }
        if (std::fabs(dphi_t) <= -c2 * slope0) {
            accept(t, f_t);
            return result;
        }
        if (dphi_t >= 0.0) {
            zoom(t, f_t, t_prev);
            return result;
        }
        t_prev = t;
        f_prev = f_t;
        t = std::min(2.0 * t, t_max);
    }
    return result;
}

}  // namespace drel::optim
