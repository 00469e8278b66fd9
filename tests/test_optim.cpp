#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "optim/admm.hpp"
#include "optim/gradient_descent.hpp"
#include "optim/lbfgs.hpp"
#include "optim/line_search.hpp"
#include "optim/objective.hpp"
#include "optim/scalar.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::optim {
namespace {

/// f(x) = 0.5 x^T A x - b^T x with SPD A; optimum at A x = b.
class QuadraticObjective final : public Objective {
 public:
    QuadraticObjective(linalg::Matrix a, linalg::Vector b) : a_(std::move(a)), b_(std::move(b)) {}

    std::size_t dim() const override { return b_.size(); }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        const linalg::Vector ax = a_.matvec(x);
        if (grad) {
            *grad = ax;
            linalg::axpy(-1.0, b_, *grad);
        }
        return 0.5 * linalg::dot(x, ax) - linalg::dot(b_, x);
    }

 private:
    linalg::Matrix a_;
    linalg::Vector b_;
};

QuadraticObjective random_quadratic(std::size_t n, stats::Rng& rng) {
    linalg::Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.normal();
    }
    linalg::Matrix a = m.matmul(m.transposed());
    a.add_diagonal(1.0);
    return QuadraticObjective(std::move(a), rng.standard_normal_vector(n));
}

/// Rosenbrock in 2-D — the classic nonconvex line-search stress test.
class RosenbrockObjective final : public Objective {
 public:
    std::size_t dim() const override { return 2; }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        if (grad) {
            *grad = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        }
        return a * a + 100.0 * b * b;
    }
};

/// f(x) = sum_i log(1 + exp(<a_i, x>)) + 0.5 * lambda * ||x||^2: smooth,
/// strictly convex and not quadratic, so a line search needs several
/// probes and every value and gradient bit comes from real arithmetic.
class SoftplusObjective final : public Objective {
 public:
    SoftplusObjective(std::size_t n, std::size_t rows, double lambda, stats::Rng& rng)
        : lambda_(lambda) {
        for (std::size_t i = 0; i < rows; ++i) {
            rows_.push_back(linalg::scaled(rng.standard_normal_vector(n), 2.0));
        }
    }

    std::size_t dim() const override { return rows_.front().size(); }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        double value = 0.5 * lambda_ * linalg::dot(x, x);
        if (grad) *grad = linalg::scaled(x, lambda_);
        for (const linalg::Vector& a : rows_) {
            const double z = linalg::dot(a, x);
            value += z > 0.0 ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
            if (grad) linalg::axpy(1.0 / (1.0 + std::exp(-z)), a, *grad);
        }
        return value;
    }

 private:
    std::vector<linalg::Vector> rows_;
    double lambda_;
};

/// f(x) = |x| in 1-D: |f'| never shrinks, so no probe can meet the
/// curvature condition and strong_wolfe can only succeed through the zoom
/// fallback (the best Armijo point).
class AbsObjective final : public Objective {
 public:
    std::size_t dim() const override { return 1; }
    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        if (grad) *grad = {x[0] > 0.0 ? 1.0 : (x[0] < 0.0 ? -1.0 : 0.0)};
        return std::fabs(x[0]);
    }
};

/// Counts every eval it forwards.
class CountingObjective final : public Objective {
 public:
    explicit CountingObjective(const Objective& inner) : inner_(inner) {}
    std::size_t dim() const override { return inner_.dim(); }
    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        ++evals_;
        return inner_.eval(x, grad);
    }
    std::size_t evals() const noexcept { return evals_; }

 private:
    const Objective& inner_;
    mutable std::size_t evals_ = 0;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ----------------------------------------------------------- finite checks

TEST(Objective, NumericalGradientMatchesAnalytic) {
    stats::Rng rng(21);
    const QuadraticObjective q = random_quadratic(5, rng);
    const linalg::Vector x = rng.standard_normal_vector(5);
    const linalg::Vector analytic = q.gradient(x);
    const linalg::Vector numeric = q.numerical_gradient(x);
    EXPECT_LT(test_support::distance2(analytic, numeric), 1e-5);
}

// ------------------------------------------------------------- line search

TEST(LineSearch, ArmijoAcceptsDescentDirection) {
    stats::Rng rng(22);
    const QuadraticObjective q = random_quadratic(4, rng);
    const linalg::Vector x = rng.standard_normal_vector(4);
    linalg::Vector grad;
    const double fx = q.eval(x, &grad);
    const LineSearchResult r =
        backtracking_armijo(q, x, fx, grad, linalg::scaled(grad, -1.0));
    ASSERT_TRUE(r.success);
    EXPECT_LT(r.value, fx);
}

TEST(LineSearch, ArmijoRejectsAscentDirection) {
    stats::Rng rng(23);
    const QuadraticObjective q = random_quadratic(4, rng);
    const linalg::Vector x = rng.standard_normal_vector(4);
    linalg::Vector grad;
    const double fx = q.eval(x, &grad);
    const LineSearchResult r = backtracking_armijo(q, x, fx, grad, grad);
    EXPECT_FALSE(r.success);
}

TEST(LineSearch, StrongWolfeSatisfiesBothConditions) {
    stats::Rng rng(24);
    const QuadraticObjective q = random_quadratic(6, rng);
    const linalg::Vector x = rng.standard_normal_vector(6);
    linalg::Vector grad;
    const double fx = q.eval(x, &grad);
    const linalg::Vector d = linalg::scaled(grad, -1.0);
    const double c1 = 1e-4;
    const double c2 = 0.9;
    const LineSearchResult r = strong_wolfe(q, x, fx, grad, d, 1.0, c1, c2);
    ASSERT_TRUE(r.success);
    // Armijo:
    EXPECT_LE(r.value, fx + c1 * r.step * linalg::dot(grad, d) + 1e-12);
    // Curvature:
    linalg::Vector x_new = x;
    linalg::axpy(r.step, d, x_new);
    linalg::Vector grad_new;
    q.eval(x_new, &grad_new);
    EXPECT_LE(std::fabs(linalg::dot(grad_new, d)), -c2 * linalg::dot(grad, d) + 1e-9);
}

// The accepted probe's value and gradient are handed back so L-BFGS need
// not evaluate the new iterate again; they must be exactly what a fresh eval
// at copy + axpy(step, d) — the point L-BFGS forms — returns. One test per
// acceptance path of strong_wolfe.

void expect_matches_fresh_eval(const Objective& f, const linalg::Vector& x,
                               const linalg::Vector& d, const LineSearchResult& r) {
    ASSERT_TRUE(r.success);
    linalg::Vector x_new = x;
    linalg::axpy(r.step, d, x_new);
    linalg::Vector grad;
    const double value = f.eval(x_new, &grad);
    EXPECT_TRUE(same_bits(r.value, value)) << r.value << " vs " << value;
    EXPECT_TRUE(same_bits(r.gradient, grad));
}

TEST(LineSearchAccepted, FirstProbeReturnsItsOwnGradient) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        stats::Rng rng(300 + seed);
        linalg::Matrix m(6, 6);
        for (std::size_t r = 0; r < 6; ++r) {
            for (std::size_t c = 0; c < 6; ++c) m(r, c) = rng.normal();
        }
        linalg::Matrix a = m.matmul(m.transposed());
        a.add_diagonal(1.0);
        const QuadraticObjective q(a, rng.standard_normal_vector(6));
        const linalg::Vector x = rng.standard_normal_vector(6);
        linalg::Vector grad;
        const double fx = q.eval(x, &grad);
        // The Newton direction reaches the minimizer at t = 1: the first
        // probe meets both Wolfe conditions.
        const linalg::Vector d = linalg::scaled(linalg::Cholesky(a).solve(grad), -1.0);
        const LineSearchResult r = strong_wolfe(q, x, fx, grad, d, 1.0);
        EXPECT_EQ(r.evaluations, 1);
        EXPECT_EQ(r.step, 1.0);
        expect_matches_fresh_eval(q, x, d, r);
    }
}

TEST(LineSearchAccepted, ZoomReturnsItsOwnGradient) {
    const double c1 = 1e-4;
    const double c2 = 0.9;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        stats::Rng rng(400 + seed);
        const SoftplusObjective f(5, 12, 0.1, rng);
        const linalg::Vector x = rng.standard_normal_vector(5);
        linalg::Vector grad;
        const double fx = f.eval(x, &grad);
        const linalg::Vector d = linalg::scaled(grad, -1.0);
        const double slope0 = linalg::dot(grad, d);
        // A first step far past the minimizer fails Armijo, so the search
        // zooms straight away.
        const double init = 50.0;
        linalg::Vector far = x;
        linalg::axpy(init, d, far);
        ASSERT_GT(f.value(far), fx + c1 * init * slope0);
        const LineSearchResult r = strong_wolfe(f, x, fx, grad, d, init, c1, c2);
        EXPECT_GE(r.evaluations, 2);
        EXPECT_LT(r.step, init);
        // A zoom acceptance meets the curvature condition; the fallback
        // never does (it re-probes a point that failed it).
        EXPECT_LE(std::fabs(linalg::dot(r.gradient, d)), -c2 * slope0);
        expect_matches_fresh_eval(f, x, d, r);
    }
}

TEST(LineSearchAccepted, ZoomFallbackReturnsItsOwnGradient) {
    const AbsObjective f;
    const linalg::Vector x{1.0};
    linalg::Vector grad;
    const double fx = f.eval(x, &grad);
    const linalg::Vector d{-1.0};
    const int max_evals = 8;
    const LineSearchResult r = strong_wolfe(f, x, fx, grad, d, 3.0, 1e-4, 0.9, max_evals);
    // One expansion probe, max_evals bisections, then the fallback re-probe.
    EXPECT_EQ(r.evaluations, 1 + max_evals + 1);
    EXPECT_GT(r.step, 0.0);
    EXPECT_GT(std::fabs(linalg::dot(r.gradient, d)), 0.9);
    expect_matches_fresh_eval(f, x, d, r);
}

/// a/2 |x - c|^2 with a = 2^500: at the origin every gradient component is
/// ~2^520, so the steepest-descent slope <grad, -grad> overflows to -inf.
class SteepBowl final : public Objective {
 public:
    std::size_t dim() const override { return 3; }
    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        if (grad) grad->assign(3, 0.0);
        double f = 0.0;
        for (std::size_t i = 0; i < 3; ++i) {
            const double r = x[i] - center()[i];
            f += 0.5 * kA * r * r;
            if (grad) (*grad)[i] = kA * r;
        }
        return f;
    }
    static const linalg::Vector& center() {
        static const linalg::Vector c{0x1p20, -0x1p19, 0x1.8p20};
        return c;
    }

 private:
    static constexpr double kA = 0x1p500;
};

TEST(LineSearchAccepted, OverflowingSlopeStillTakesAStep) {
    const SteepBowl f;
    const linalg::Vector x = linalg::zeros(3);
    linalg::Vector grad;
    const double fx = f.eval(x, &grad);
    linalg::Vector d = grad;
    linalg::scale(d, -1.0);
    ASSERT_TRUE(std::isfinite(fx));
    ASSERT_TRUE(std::isinf(linalg::dot(grad, d)));
    const LineSearchResult r = strong_wolfe(f, x, fx, grad, d, 1.0 / linalg::norm2(grad));
    ASSERT_TRUE(r.success);
    EXPECT_GT(r.step, 0.0);
    EXPECT_LT(r.value, fx);
    expect_matches_fresh_eval(f, x, d, r);
}

TEST(Lbfgs, ConvergesFromAGradientWhoseSquaredNormOverflows) {
    const SteepBowl f;
    const OptimResult r = minimize_lbfgs(f, linalg::zeros(3));
    EXPECT_TRUE(r.converged) << r.message;
    EXPECT_GE(r.iterations, 1);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(r.x[i], SteepBowl::center()[i], 1e-9 * 0x1p20) << "component " << i;
    }
}

// --------------------------------------------------------- gradient descent

TEST(GradientDescent, SolvesQuadraticToTolerance) {
    stats::Rng rng(25);
    const QuadraticObjective q = random_quadratic(6, rng);
    GradientDescentOptions options;
    options.stopping.max_iterations = 5000;
    options.stopping.grad_tolerance = 1e-8;
    options.stopping.value_tolerance = 0.0;  // force the gradient criterion
    const OptimResult r = minimize_gradient_descent(q, linalg::zeros(6), options);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.grad_norm, 1e-6);
}

TEST(GradientDescent, RejectsDimensionMismatch) {
    stats::Rng rng(26);
    const QuadraticObjective q = random_quadratic(3, rng);
    EXPECT_THROW(minimize_gradient_descent(q, linalg::zeros(4)), std::invalid_argument);
}

// ------------------------------------------------------------------- L-BFGS

TEST(Lbfgs, MatchesClosedFormQuadraticSolution) {
    stats::Rng rng(28);
    linalg::Matrix m(8, 8);
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) m(r, c) = rng.normal();
    }
    linalg::Matrix a = m.matmul(m.transposed());
    a.add_diagonal(1.0);
    const linalg::Vector b = rng.standard_normal_vector(8);
    const QuadraticObjective q(a, b);
    const OptimResult r = minimize_lbfgs(q, linalg::zeros(8));
    ASSERT_TRUE(r.converged);
    // Optimum solves A x = b.
    EXPECT_LT(test_support::distance2(a.matvec(r.x), b), 1e-5);
}

TEST(Lbfgs, SolvesRosenbrock) {
    const RosenbrockObjective f;
    LbfgsOptions options;
    options.stopping.max_iterations = 2000;
    const OptimResult r = minimize_lbfgs(f, {-1.2, 1.0}, options);
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], 1.0, 1e-4);
}

TEST(Lbfgs, FasterThanGradientDescentOnIllConditioned) {
    // Diagonal quadratic with condition number 1e4.
    linalg::Vector diag(10);
    for (std::size_t i = 0; i < 10; ++i) diag[i] = std::pow(10.0, static_cast<double>(i) / 2.25);
    const QuadraticObjective q(linalg::Matrix::diagonal(diag), linalg::constant(10, 1.0));
    const OptimResult lbfgs = minimize_lbfgs(q, linalg::zeros(10));
    GradientDescentOptions gd_options;
    gd_options.stopping.max_iterations = lbfgs.iterations + 5;
    const OptimResult gd = minimize_gradient_descent(q, linalg::zeros(10), gd_options);
    EXPECT_LT(lbfgs.value, gd.value - 1e-8);  // same budget, L-BFGS strictly better
}

TEST(Lbfgs, RespectsHistoryValidation) {
    stats::Rng rng(29);
    const QuadraticObjective q = random_quadratic(3, rng);
    LbfgsOptions options;
    options.history = 0;
    EXPECT_THROW(minimize_lbfgs(q, linalg::zeros(3), options), std::invalid_argument);
}

// The reference L-BFGS: the textbook loop with its corrections in a
// std::deque, newest at the back. With `reevaluate` it evaluates each
// accepted point again; without, it takes the point's value and gradient
// from the line search, as minimize_lbfgs does. minimize_lbfgs must agree
// with it bit for bit either way: the evals saved by the reuse are exactly
// one per accepted step, and its correction ring must walk the pairs in
// the deque's order.

struct ReferenceLbfgs {
    OptimResult result;
    std::size_t line_search_evals = 0;  ///< sum of ls.evaluations
    std::size_t accepted_steps = 0;
    std::size_t resets = 0;        ///< steepest-descent fallbacks
    std::size_t skipped_pairs = 0;  ///< pairs dropped by the <s, y> check
};

ReferenceLbfgs reference_lbfgs(const Objective& objective, linalg::Vector x0,
                               const LbfgsOptions& options, bool reevaluate = true) {
    ReferenceLbfgs ref;
    OptimResult& result = ref.result;
    result.x = std::move(x0);
    linalg::Vector grad;
    double fx = objective.eval(result.x, &grad);
    struct Correction {
        linalg::Vector s;
        linalg::Vector y;
        double rho;
    };
    std::deque<Correction> history;
    for (int it = 0; it < options.stopping.max_iterations; ++it) {
        result.iterations = it;
        if (linalg::norm_inf(grad) <= options.stopping.grad_tolerance) {
            result.converged = true;
            result.message = "gradient tolerance reached";
            break;
        }
        linalg::Vector q = grad;
        std::vector<double> alpha(history.size());
        for (std::size_t i = history.size(); i-- > 0;) {
            alpha[i] = history[i].rho * linalg::dot(history[i].s, q);
            linalg::axpy(-alpha[i], history[i].y, q);
        }
        if (!history.empty()) {
            const Correction& last = history.back();
            linalg::scale(q, linalg::dot(last.s, last.y) / linalg::dot(last.y, last.y));
        }
        for (std::size_t i = 0; i < history.size(); ++i) {
            const double beta = history[i].rho * linalg::dot(history[i].y, q);
            linalg::axpy(alpha[i] - beta, history[i].s, q);
        }
        linalg::Vector direction = linalg::scaled(q, -1.0);
        if (!(linalg::dot(grad, direction) < 0.0)) {
            direction = linalg::scaled(grad, -1.0);
            history.clear();
            ++ref.resets;
        }
        const double init_step =
            history.empty() ? 1.0 / std::max(1.0, linalg::norm2(grad)) : 1.0;
        const LineSearchResult ls = strong_wolfe(objective, result.x, fx, grad, direction,
                                                 init_step, options.c1, options.c2);
        ref.line_search_evals += static_cast<std::size_t>(ls.evaluations);
        if (!ls.success) {
            result.message = "line search failed";
            break;
        }
        ++ref.accepted_steps;
        linalg::Vector x_new = result.x;
        linalg::axpy(ls.step, direction, x_new);
        linalg::Vector grad_new;
        double f_new = ls.value;
        if (reevaluate) {
            f_new = objective.eval(x_new, &grad_new);
        } else {
            grad_new = ls.gradient;
        }
        Correction c;
        c.s = linalg::sub(x_new, result.x);
        c.y = linalg::sub(grad_new, grad);
        const double sy = linalg::dot(c.s, c.y);
        if (sy > 1e-12 * linalg::norm2(c.s) * linalg::norm2(c.y)) {
            c.rho = 1.0 / sy;
            history.push_back(std::move(c));
            if (history.size() > static_cast<std::size_t>(options.history)) {
                history.pop_front();
            }
        } else {
            ++ref.skipped_pairs;
        }
        const double decrease = fx - f_new;
        result.x = std::move(x_new);
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
    return ref;
}

void expect_one_eval_per_point(const Objective& f, const linalg::Vector& x0,
                               const LbfgsOptions& options) {
    const CountingObjective counted(f);
    const OptimResult r = minimize_lbfgs(counted, x0, options);
    const CountingObjective counted_ref(f);
    const ReferenceLbfgs ref = reference_lbfgs(counted_ref, x0, options);
    EXPECT_TRUE(same_bits(r.x, ref.result.x));
    EXPECT_TRUE(same_bits(r.value, ref.result.value));
    EXPECT_TRUE(same_bits(r.grad_norm, ref.result.grad_norm));
    EXPECT_EQ(r.iterations, ref.result.iterations);
    EXPECT_EQ(r.converged, ref.result.converged);
    EXPECT_EQ(r.message, ref.result.message);
    EXPECT_EQ(counted.evals(), 1 + ref.line_search_evals);
    EXPECT_EQ(counted_ref.evals(), counted.evals() + ref.accepted_steps);
    EXPECT_GT(ref.accepted_steps, 0u);
}

TEST(LbfgsEvalReuse, SoftplusOneEvalPerPoint) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        stats::Rng rng(500 + seed);
        const SoftplusObjective f(6, 20, 0.05, rng);
        LbfgsOptions options;
        options.history = 1 + static_cast<int>(seed % 4);
        expect_one_eval_per_point(f, rng.standard_normal_vector(6), options);
    }
}

TEST(LbfgsEvalReuse, RosenbrockAndQuadraticOneEvalPerPoint) {
    LbfgsOptions options;
    options.stopping.max_iterations = 2000;
    expect_one_eval_per_point(RosenbrockObjective{}, {-1.2, 1.0}, options);
    stats::Rng rng(600);
    const QuadraticObjective q = random_quadratic(8, rng);
    expect_one_eval_per_point(q, rng.standard_normal_vector(8), LbfgsOptions{});
}

/// f(x) = sum_i (x_i^2 - 1)^2 + coupling * sum_i x_i x_{i+1}: nonconvex,
/// with a minimum in each orthant the coupling favours.
class DoubleWellObjective final : public Objective {
 public:
    DoubleWellObjective(std::size_t n, double coupling) : n_(n), coupling_(coupling) {}
    std::size_t dim() const override { return n_; }
    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        double value = 0.0;
        if (grad) grad->assign(n_, 0.0);
        for (std::size_t i = 0; i < n_; ++i) {
            const double w = x[i] * x[i] - 1.0;
            value += w * w;
            if (grad) (*grad)[i] += 4.0 * x[i] * w;
            if (i + 1 < n_) {
                value += coupling_ * x[i] * x[i + 1];
                if (grad) {
                    (*grad)[i] += coupling_ * x[i + 1];
                    (*grad)[i + 1] += coupling_ * x[i];
                }
            }
        }
        return value;
    }

 private:
    std::size_t n_;
    double coupling_;
};

/// f(x) = sum_i |<a_i, x> - b_i|: piecewise linear, so a step the line
/// search accepts without crossing a kink leaves the gradient unchanged,
/// <s, y> = 0, and the correction pair is dropped.
class AbsoluteResidualObjective final : public Objective {
 public:
    AbsoluteResidualObjective(std::size_t n, std::size_t rows, stats::Rng& rng) {
        for (std::size_t i = 0; i < rows; ++i) {
            rows_.push_back(rng.standard_normal_vector(n));
            targets_.push_back(rng.normal());
        }
    }
    std::size_t dim() const override { return rows_.front().size(); }
    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        double value = 0.0;
        if (grad) grad->assign(dim(), 0.0);
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const double r = linalg::dot(rows_[i], x) - targets_[i];
            value += std::fabs(r);
            if (grad) linalg::axpy(r > 0.0 ? 1.0 : (r < 0.0 ? -1.0 : 0.0), rows_[i], *grad);
        }
        return value;
    }

 private:
    std::vector<linalg::Vector> rows_;
    std::vector<double> targets_;
};

struct RingCase {
    const Objective* objective;
    linalg::Vector x0;
    LbfgsOptions options;
};

TEST(LbfgsRing, MatchesDequeReferenceBitForBit) {
    stats::Rng rng(700);
    const SoftplusObjective softplus(8, 24, 0.01, rng);
    const DoubleWellObjective wells(10, 0.6);
    const RosenbrockObjective rosenbrock;
    const AbsoluteResidualObjective residuals(3, 15, rng);
    // Minimum at 0 with curvatures 1e10..6e10: driven to the underflow
    // floor, <grad, d> rounds to zero while <grad, grad> does not, so the
    // solver resets to steepest descent and keeps going.
    linalg::Matrix stiff_diag(6, 6);
    for (std::size_t i = 0; i < 6; ++i) stiff_diag(i, i) = 1e10 * static_cast<double>(i + 1);
    const QuadraticObjective stiff(std::move(stiff_diag), linalg::zeros(6));
    const QuadraticObjective isotropic(linalg::Matrix::identity(5) * 3.0, linalg::zeros(5));

    // All tolerances zero: the solver runs on past the floating-point floor.
    LbfgsOptions exhaustive;
    exhaustive.stopping.max_iterations = 300;
    exhaustive.stopping.grad_tolerance = 0.0;
    exhaustive.stopping.value_tolerance = 0.0;
    LbfgsOptions long_run;
    long_run.stopping.max_iterations = 2000;

    std::vector<RingCase> cases;
    for (int start = 0; start < 6; ++start) {
        cases.push_back({&wells, linalg::scaled(rng.standard_normal_vector(10), 1.5),
                         LbfgsOptions{}});
        cases.push_back({&softplus, rng.standard_normal_vector(8), exhaustive});
    }
    for (int start = 0; start < 3; ++start) {
        cases.push_back({&residuals, rng.standard_normal_vector(3), exhaustive});
        cases.push_back({&stiff, rng.standard_normal_vector(6), exhaustive});
    }
    cases.push_back({&isotropic, rng.standard_normal_vector(5), exhaustive});
    cases.push_back({&rosenbrock, {-1.2, 1.0}, long_run});

    std::size_t resets = 0;
    std::size_t skipped = 0;
    for (const int history : {1, 2, 10}) {
        for (std::size_t c = 0; c < cases.size(); ++c) {
            SCOPED_TRACE(::testing::Message() << "history " << history << ", case " << c);
            LbfgsOptions options = cases[c].options;
            options.history = history;
            const CountingObjective counted(*cases[c].objective);
            const OptimResult r = minimize_lbfgs(counted, cases[c].x0, options);
            const CountingObjective counted_ref(*cases[c].objective);
            const ReferenceLbfgs ref =
                reference_lbfgs(counted_ref, cases[c].x0, options, /*reevaluate=*/false);
            EXPECT_TRUE(same_bits(r.x, ref.result.x));
            EXPECT_TRUE(same_bits(r.value, ref.result.value));
            EXPECT_TRUE(same_bits(r.grad_norm, ref.result.grad_norm));
            EXPECT_EQ(r.iterations, ref.result.iterations);
            EXPECT_EQ(r.converged, ref.result.converged);
            EXPECT_EQ(r.message, ref.result.message);
            EXPECT_EQ(counted.evals(), counted_ref.evals());
            resets += ref.resets;
            skipped += ref.skipped_pairs;
        }
    }
    // The cases reach both branches that bypass or empty the ring.
    EXPECT_GT(resets, 0u);
    EXPECT_GT(skipped, 0u);
}

/// f(u, v) = G max(u - 1/2, 0) + H (v^4 / 8 - v c(u)), c(u) = clamp(2 (1 - u), 0, 1),
/// with G the largest double below 2^512 and H = 2^486: built so that the
/// first L-BFGS pair from (1, 0) poisons the ring. The gradient there is
/// (G, 0); the unit steepest-descent probe lands on the flat side of the
/// u-kink, where the gradient is (0, -H). The pair s ~ (-1, 0),
/// y = (-G, -H) passes the curvature check (<s, y> ~ G), but <y, y> =
/// G^2 + H^2 overflows, so gamma = 0 and the next two-loop direction is
/// exactly zero: a steepest-descent reset. Past it u stays put and the
/// solve is a quartic in v with optimum 2^(1/3), so quasi-Newton steps
/// follow; a ring that still held the poisoned pair would change them.
class ResetTrapObjective final : public Objective {
 public:
    std::size_t dim() const override { return 2; }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        const double u = x[0];
        const double v = x[1];
        const double c = std::clamp(2.0 * (1.0 - u), 0.0, 1.0);
        if (grad) {
            const double dc = u > 0.5 && u < 1.0 ? -2.0 : 0.0;
            *grad = {(u > 0.5 ? kG : 0.0) - kH * v * dc, kH * (0.5 * v * v * v - c)};
        }
        return kG * std::max(u - 0.5, 0.0) + kH * (0.125 * v * v * v * v - v * c);
    }

 private:
    static inline const double kG = std::nextafter(std::ldexp(1.0, 512), 0.0);
    static inline const double kH = std::ldexp(1.0, 486);
};

TEST(LbfgsRing, ResetEmptiesTheRingBeforeQuasiNewtonSteps) {
    const ResetTrapObjective trap;
    const linalg::Vector x0 = {1.0, 0.0};
    LbfgsOptions options;
    options.stopping.max_iterations = 12;
    options.stopping.grad_tolerance = 0.0;
    options.stopping.value_tolerance = 0.0;

    const CountingObjective counted(trap);
    const OptimResult r = minimize_lbfgs(counted, x0, options);
    const CountingObjective counted_ref(trap);
    const ReferenceLbfgs ref = reference_lbfgs(counted_ref, x0, options, /*reevaluate=*/false);
    EXPECT_EQ(ref.resets, 1u);
    EXPECT_EQ(ref.skipped_pairs, 0u);
    EXPECT_GE(ref.accepted_steps, 5u);
    EXPECT_TRUE(same_bits(r.x, ref.result.x));
    EXPECT_TRUE(same_bits(r.value, ref.result.value));
    EXPECT_EQ(r.iterations, ref.result.iterations);
    EXPECT_EQ(r.message, ref.result.message);
    EXPECT_EQ(counted.evals(), counted_ref.evals());

    // An emptied ring leaves nothing of the poisoned pair: from the reset
    // iterate on, the run is a fresh solve started there.
    LbfgsOptions one_step = options;
    one_step.stopping.max_iterations = 1;
    const linalg::Vector reset_iterate = minimize_lbfgs(trap, x0, one_step).x;
    LbfgsOptions rest = options;
    rest.stopping.max_iterations = options.stopping.max_iterations - 1;
    const OptimResult fresh = minimize_lbfgs(trap, reset_iterate, rest);
    EXPECT_TRUE(same_bits(r.x, fresh.x));
    EXPECT_TRUE(same_bits(r.value, fresh.value));
    EXPECT_TRUE(same_bits(r.grad_norm, fresh.grad_norm));
    EXPECT_EQ(r.message, fresh.message);
    EXPECT_NEAR(r.x[1], std::cbrt(2.0), 1e-12);
}

// ------------------------------------------------------------------ scalar

TEST(Scalar, GoldenSectionFindsParabolaMinimum) {
    const auto r = golden_section_minimize([](double x) { return (x - 2.5) * (x - 2.5); },
                                           -10.0, 10.0);
    EXPECT_NEAR(r.x, 2.5, 1e-7);
    EXPECT_TRUE(r.converged);
}

TEST(Scalar, ConvexRayExpandsBracket) {
    // Minimum far beyond the initial width.
    const auto r = minimize_convex_on_ray(
        [](double x) { return (x - 300.0) * (x - 300.0); }, 0.0, 1.0);
    EXPECT_NEAR(r.x, 300.0, 1e-4);
}

TEST(Scalar, ConvexRayHandlesBoundaryMinimum) {
    // Increasing function: minimum at the ray origin.
    const auto r = minimize_convex_on_ray([](double x) { return x; }, 2.0, 1.0);
    EXPECT_NEAR(r.x, 2.0, 1e-6);
}

// -------------------------------------------------------------------- ADMM

/// 0.5 (x - center)^2 in one dimension.
class ShiftedParabola final : public Objective {
 public:
    explicit ShiftedParabola(double center) : center_(center) {}
    std::size_t dim() const override { return 1; }
    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        if (grad) *grad = {x[0] - center_};
        return 0.5 * (x[0] - center_) * (x[0] - center_);
    }

 private:
    double center_;
};

TEST(Admm, ConsensusOfQuadraticsMatchesPooledSolution) {
    // Two quadratics 0.5(x-a)^2 and 0.5(x-b)^2: consensus optimum (a+b)/2.
    const ShiftedParabola f1(1.0);
    const ShiftedParabola f2(5.0);
    const AdmmResult r = minimize_consensus_admm({&f1, &f2}, {0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.z[0], 3.0, 1e-4);
}

TEST(Admm, MultiDimensionalConsensus) {
    stats::Rng rng(31);
    const QuadraticObjective q1 = random_quadratic(4, rng);
    const QuadraticObjective q2 = random_quadratic(4, rng);
    const QuadraticObjective q3 = random_quadratic(4, rng);
    const AdmmResult r = minimize_consensus_admm({&q1, &q2, &q3}, linalg::zeros(4));
    EXPECT_TRUE(r.converged);
    // The consensus optimum zeroes the summed gradient.
    linalg::Vector total = linalg::zeros(4);
    const std::vector<const Objective*> terms = {&q1, &q2, &q3};
    for (const Objective* f : terms) {
        linalg::axpy(1.0, f->gradient(r.z), total);
    }
    EXPECT_LT(linalg::norm_inf(total), 1e-3);
}

TEST(Admm, RejectsEmptyAndMismatched) {
    EXPECT_THROW(minimize_consensus_admm({}, {0.0}), std::invalid_argument);
    stats::Rng rng(32);
    const QuadraticObjective a = random_quadratic(2, rng);
    const QuadraticObjective b = random_quadratic(3, rng);
    EXPECT_THROW(minimize_consensus_admm({&a, &b}, linalg::zeros(2)), std::invalid_argument);
}

}  // namespace
}  // namespace drel::optim
