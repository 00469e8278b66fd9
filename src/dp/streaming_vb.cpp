#include "dp/streaming_vb.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "stats/distributions.hpp"
#include "stats/multivariate_normal.hpp"

namespace drel::dp {
namespace {

constexpr double kLogTwoPi = 1.8378770664093454836;

std::int64_t quantize(double value, double scale) {
    return static_cast<std::int64_t>(std::llround(value * scale));
}

}  // namespace

void StreamingSuffStats::merge(const StreamingSuffStats& other) {
    if (counts.size() != other.counts.size() || sums.size() != other.sums.size()) {
        throw std::invalid_argument("StreamingSuffStats::merge: shape mismatch");
    }
    num_observations += other.num_observations;
    for (std::size_t k = 0; k < counts.size(); ++k) counts[k] += other.counts[k];
    for (std::size_t i = 0; i < sums.size(); ++i) sums[i] += other.sums[i];
    static obs::Counter& merges = obs::Registry::global().counter("dp.streaming.merges");
    merges.add(1);
}

StreamingVb::StreamingVb(StreamingVbConfig config, const MixturePrior& init_prior)
    : config_(std::move(config)),
      base_precision_(0, 0),
      within_precision_(0, 0) {
    if (config_.truncation < 2) {
        throw std::invalid_argument("StreamingVb: truncation must be >= 2");
    }
    if (!(config_.alpha > 0.0)) {
        throw std::invalid_argument("StreamingVb: alpha must be > 0");
    }
    if (!(config_.prior_strength >= 0.0)) {
        throw std::invalid_argument("StreamingVb: prior_strength must be >= 0");
    }
    dim_ = config_.base_mean.size();
    if (dim_ == 0) throw std::invalid_argument("StreamingVb: empty base mean");
    if (init_prior.dim() != dim_) {
        throw std::invalid_argument("StreamingVb: init prior dimension mismatch");
    }

    const linalg::Cholesky base_chol =
        linalg::Cholesky::factor_with_jitter(config_.base_covariance);
    const linalg::Cholesky within_chol =
        linalg::Cholesky::factor_with_jitter(config_.within_covariance);
    base_precision_ = base_chol.inverse();
    within_precision_ = within_chol.inverse();
    base_precision_m0_ = base_precision_.matvec(config_.base_mean);

    // Seed the cumulative totals with pseudo-observations at the bootstrap
    // prior's atoms: component j opens with mass weight_j * prior_strength
    // at the atom mean. Quantized through the same fixed-point path as real
    // uploads, so the seed participates in the exact-merge contract.
    totals_ = make_stats();
    const std::size_t seeded =
        std::min<std::size_t>(config_.truncation, init_prior.num_components());
    if (config_.prior_strength > 0.0) {
        for (std::size_t j = 0; j < seeded; ++j) {
            const double mass = init_prior.weights()[j] * config_.prior_strength;
            totals_.counts[j] = quantize(mass, kCountScale);
            const linalg::Vector& mean = init_prior.atom(j).mean();
            for (std::size_t i = 0; i < dim_; ++i) {
                totals_.sums[j * dim_ + i] = quantize(mass * mean[i], kSumScale);
            }
        }
    }
    refresh_anchor();
}

StreamingSuffStats StreamingVb::make_stats() const {
    StreamingSuffStats stats;
    stats.counts.assign(config_.truncation, 0);
    stats.sums.assign(config_.truncation * dim_, 0);
    return stats;
}

void StreamingVb::accumulate(const linalg::Vector& theta, StreamingSuffStats& stats) const {
    if (theta.size() != dim_) {
        throw std::invalid_argument("StreamingVb::accumulate: dimension mismatch");
    }
    if (stats.counts.size() != config_.truncation || stats.sums.size() != config_.truncation * dim_) {
        throw std::invalid_argument("StreamingVb::accumulate: stats shape mismatch");
    }
    for (const double value : theta) {
        if (!std::isfinite(value)) {
            throw std::invalid_argument("StreamingVb::accumulate: non-finite theta");
        }
    }
    const std::size_t k_total = config_.truncation;
    linalg::Vector log_phi(k_total);
    linalg::Vector diff(dim_);
    for (std::size_t k = 0; k < k_total; ++k) {
        linalg::sub_into(theta, anchor_means_[k], diff);
        const double quad = anchor_predictive_[k].quad_form_inv(diff);
        log_phi[k] = anchor_log_pi_[k] + anchor_log_norm_[k] - 0.5 * quad;
    }
    linalg::softmax_inplace(log_phi);
    stats.num_observations += 1;
    for (std::size_t k = 0; k < k_total; ++k) {
        stats.counts[k] += quantize(log_phi[k], kCountScale);
        for (std::size_t i = 0; i < dim_; ++i) {
            stats.sums[k * dim_ + i] += quantize(log_phi[k] * theta[i], kSumScale);
        }
    }
}

void StreamingVb::apply(const StreamingSuffStats& stats) {
    totals_.merge(stats);
    static obs::Counter& ingested =
        obs::Registry::global().counter("dp.streaming.observations");
    ingested.add(stats.num_observations);
}

StreamingVb::Posterior StreamingVb::posterior_from_totals() const {
    const std::size_t k_total = config_.truncation;
    Posterior post;
    post.means.reserve(k_total);
    post.covs.reserve(k_total);
    post.gamma1 = linalg::Vector(k_total > 1 ? k_total - 1 : 0);
    post.gamma2 = linalg::Vector(post.gamma1.size());

    linalg::Vector occupancy(k_total);
    for (std::size_t k = 0; k < k_total; ++k) {
        occupancy[k] = static_cast<double>(totals_.counts[k]) / kCountScale;
    }
    double tail = 0.0;
    for (std::size_t k = k_total; k-- > 0;) {
        if (k + 1 < k_total) {
            post.gamma1[k] = 1.0 + occupancy[k];
            post.gamma2[k] = config_.alpha + tail;
        }
        tail += occupancy[k];
    }

    linalg::Vector weighted_sum(dim_);
    for (std::size_t k = 0; k < k_total; ++k) {
        for (std::size_t i = 0; i < dim_; ++i) {
            weighted_sum[i] = static_cast<double>(totals_.sums[k * dim_ + i]) / kSumScale;
        }
        linalg::Matrix lambda = within_precision_;
        lambda *= occupancy[k];
        lambda += base_precision_;
        const linalg::Cholesky chol(lambda);
        linalg::Vector mean = base_precision_m0_;
        const linalg::Vector mv = within_precision_.matvec(weighted_sum);
        linalg::axpy(1.0, mv, mean);
        chol.solve_in_place(mean);
        post.means.push_back(std::move(mean));
        post.covs.push_back(chol.inverse());
    }
    return post;
}

void StreamingVb::refresh_anchor() {
    const std::size_t k_total = config_.truncation;
    const Posterior post = posterior_from_totals();

    anchor_log_pi_ = linalg::Vector(k_total);
    double cum_log_1mv = 0.0;
    for (std::size_t k = 0; k < k_total; ++k) {
        if (k + 1 < k_total) {
            const double psi_sum = stats::digamma(post.gamma1[k] + post.gamma2[k]);
            anchor_log_pi_[k] = stats::digamma(post.gamma1[k]) - psi_sum + cum_log_1mv;
            cum_log_1mv += stats::digamma(post.gamma2[k]) - psi_sum;
        } else {
            anchor_log_pi_[k] = cum_log_1mv;  // v_K = 1
        }
    }

    anchor_means_ = post.means;
    anchor_predictive_.clear();
    anchor_predictive_.reserve(k_total);
    anchor_log_norm_ = linalg::Vector(k_total);
    for (std::size_t k = 0; k < k_total; ++k) {
        linalg::Matrix predictive = post.covs[k];
        predictive += config_.within_covariance;
        anchor_predictive_.push_back(linalg::Cholesky::factor_with_jitter(std::move(predictive)));
        anchor_log_norm_[k] =
            -0.5 * (static_cast<double>(dim_) * kLogTwoPi + anchor_predictive_[k].log_det());
    }
    static obs::Counter& refreshes =
        obs::Registry::global().counter("dp.streaming.anchor_refreshes");
    refreshes.add(1);
}

linalg::Vector StreamingVb::expected_weights() const {
    const std::size_t k_total = config_.truncation;
    const Posterior post = posterior_from_totals();
    linalg::Vector weights(k_total);
    double remaining = 1.0;
    for (std::size_t k = 0; k < k_total; ++k) {
        if (k + 1 < k_total) {
            const double e_v = post.gamma1[k] / (post.gamma1[k] + post.gamma2[k]);
            weights[k] = e_v * remaining;
            remaining *= (1.0 - e_v);
        } else {
            weights[k] = remaining;
        }
    }
    return weights;
}

MixturePrior StreamingVb::extract_prior(double min_weight) const {
    const Posterior post = posterior_from_totals();
    linalg::Vector weights(config_.truncation);
    double remaining = 1.0;
    for (std::size_t k = 0; k < config_.truncation; ++k) {
        if (k + 1 < config_.truncation) {
            const double e_v = post.gamma1[k] / (post.gamma1[k] + post.gamma2[k]);
            weights[k] = e_v * remaining;
            remaining *= (1.0 - e_v);
        } else {
            weights[k] = remaining;
        }
    }
    linalg::Vector kept_weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < config_.truncation; ++k) {
        if (weights[k] < min_weight) continue;
        linalg::Matrix spread = post.covs[k];
        spread += config_.within_covariance;
        kept_weights.push_back(weights[k]);
        atoms.emplace_back(post.means[k], std::move(spread));
    }
    if (atoms.empty()) {
        linalg::Matrix broad = config_.base_covariance;
        broad += config_.within_covariance;
        kept_weights.push_back(1.0);
        atoms.emplace_back(config_.base_mean, std::move(broad));
    }
    return MixturePrior(std::move(kept_weights), std::move(atoms));
}

}  // namespace drel::dp
