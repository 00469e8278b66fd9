#include "dp/batch_responsibilities.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "stats/multivariate_normal.hpp"

namespace drel::dp {
namespace {

// Must match multivariate_normal.cpp so the batched density reproduces the
// per-device constant term exactly.
constexpr double kLogTwoPi = 1.8378770664093454836;

obs::Counter& responsibility_evals() {
    static obs::Counter& c = obs::Registry::global().counter("dp.responsibility_evals");
    return c;
}

}  // namespace

BatchResponsibilities::BatchResponsibilities(const MixturePrior& prior) : prior_(&prior) {
    log_weights_.reserve(prior.num_components());
    log_dets_.reserve(prior.num_components());
    for (std::size_t k = 0; k < prior.num_components(); ++k) {
        // log of the same normalized double the prior cached at construction.
        log_weights_.push_back(std::log(prior.weights()[k]));
        log_dets_.push_back(prior.atom(k).log_det());
    }
}

void BatchResponsibilities::log_densities_into(const double* thetas, std::size_t count,
                                               double* out, util::Workspace& ws) const {
    DREL_PROFILE_SCOPE("dp.batch_log_densities");
    if (count == 0) return;
    const std::size_t d = dim();
    const std::size_t num_k = num_components();
    const linalg::simd::Kernels& kernels = linalg::simd::active();

    // Transpose once: coordinate r of every device contiguous, so each
    // substitution step streams over the batch axis.
    auto transposed = ws.vec(d * count);
    double* tt = transposed.data();
    for (std::size_t i = 0; i < count; ++i) {
        const double* theta = thetas + i * d;
        for (std::size_t r = 0; r < d; ++r) tt[r * count + i] = theta[r];
    }

    auto solve = ws.vec(d * count);
    auto quad = ws.vec(count);
    double* xt = solve.data();
    for (std::size_t k = 0; k < num_k; ++k) {
        const stats::MultivariateNormal& atom = prior_->atom(k);
        const double* mean = atom.mean().data();
        const linalg::Matrix& lower = atom.chol().lower();

        // Residual rows: xt[r] = theta[r] - mu_k[r] across the batch.
        for (std::size_t r = 0; r < d; ++r) {
            kernels.sub_const_n(tt + r * count, mean[r], xt + r * count, count);
        }
        // Forward substitution L y = residual, one coordinate at a time,
        // each step a count-wide elementwise kernel:
        //   y_r = (b_r - sum_{c<r} L(r,c) y_c) / L(r,r).
        for (std::size_t r = 0; r < d; ++r) {
            const double* l_row = lower.row_data(r);
            double* y_r = xt + r * count;
            for (std::size_t c = 0; c < r; ++c) {
                kernels.axpy_n(-l_row[c], xt + c * count, y_r, count);
            }
            kernels.div_const_n(y_r, l_row[r], count);
        }
        // quad[i] = ||L^{-1}(theta_i - mu_k)||^2, accumulated coordinate-
        // ascending — a fixed order, so batch-size independent.
        std::fill(quad.data(), quad.data() + count, 0.0);
        for (std::size_t r = 0; r < d; ++r) {
            kernels.add_sq_n(xt + r * count, quad.data(), count);
        }
        const double constant = static_cast<double>(d) * kLogTwoPi + log_dets_[k];
        for (std::size_t i = 0; i < count; ++i) {
            out[i * num_k + k] = log_weights_[k] - 0.5 * (constant + quad.data()[i]);
        }
    }
}

void BatchResponsibilities::responsibilities_into(const double* thetas, std::size_t count,
                                                  double* out, util::Workspace& ws) const {
    responsibility_evals().add(count);
    log_densities_into(thetas, count, out, ws);
    const std::size_t num_k = num_components();
    for (std::size_t i = 0; i < count; ++i) {
        double* row = out + i * num_k;
        // Same max-shifted log-sum-exp as linalg::softmax_inplace.
        const double m = *std::max_element(row, row + num_k);
        double acc = 0.0;
        for (std::size_t k = 0; k < num_k; ++k) acc += std::exp(row[k] - m);
        const double lse = m + std::log(acc);
        for (std::size_t k = 0; k < num_k; ++k) row[k] = std::exp(row[k] - lse);
    }
}

void BatchResponsibilities::score_match_into(const double* thetas, std::size_t count,
                                             const std::size_t* tags, double* accuracy_out,
                                             util::Workspace& ws) const {
    DREL_PROFILE_SCOPE("dp.batch_score_match");
    responsibility_evals().add(count);
    if (count == 0) return;
    const std::size_t num_k = num_components();
    auto densities = ws.vec(count * num_k);
    log_densities_into(thetas, count, densities.data(), ws);
    for (std::size_t i = 0; i < count; ++i) {
        const double* row = densities.data() + i * num_k;
        const std::size_t map_k =
            static_cast<std::size_t>(std::max_element(row, row + num_k) - row);
        accuracy_out[i] = map_k == tags[i] ? 1.0 : 0.0;
    }
}

}  // namespace drel::dp
