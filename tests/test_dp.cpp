#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "dp/crp.hpp"
#include "dp/dpmm_gibbs.hpp"
#include "dp/dpmm_variational.hpp"
#include "dp/mixture_prior.hpp"
#include "obs/metrics.hpp"
#include "stats/alias_table.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::dp {
namespace {

// --------------------------------------------------------------------- CRP

TEST(CountClusters, LargestContiguousLabelPlusOne) {
    EXPECT_EQ(count_clusters({}), 0u);
    EXPECT_EQ(count_clusters({0, 0, 0}), 1u);
    EXPECT_EQ(count_clusters({0, 1, 0, 2, 1, 2, 2}), 3u);
    EXPECT_EQ(count_clusters({2, 0, 1}), 3u);
}

// ------------------------------------------------------------ mixture prior

MixturePrior two_atom_prior() {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({2.0, 0.0}, 0.5));
    atoms.push_back(stats::MultivariateNormal::isotropic({-2.0, 0.0}, 0.5));
    return MixturePrior({0.7, 0.3}, std::move(atoms));
}

TEST(MixturePrior, WeightsNormalized) {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({0.0}, 1.0));
    atoms.push_back(stats::MultivariateNormal::isotropic({1.0}, 1.0));
    const MixturePrior prior({2.0, 6.0}, std::move(atoms));
    EXPECT_NEAR(prior.weights()[0], 0.25, 1e-12);
    EXPECT_NEAR(prior.weights()[1], 0.75, 1e-12);
}

TEST(MixturePrior, LogPdfMatchesManualMixture) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector x{0.5, 0.1};
    const double manual = std::log(0.7 * std::exp(prior.atom(0).log_pdf(x)) +
                                   0.3 * std::exp(prior.atom(1).log_pdf(x)));
    EXPECT_NEAR(prior.log_pdf(x), manual, 1e-10);
}

TEST(MixturePrior, ResponsibilitiesSumToOneAndTrackProximity) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector near_first = prior.responsibilities({2.0, 0.0});
    EXPECT_NEAR(linalg::sum(near_first), 1.0, 1e-12);
    EXPECT_GT(near_first[0], 0.95);
    const linalg::Vector near_second = prior.responsibilities({-2.0, 0.0});
    EXPECT_GT(near_second[1], 0.9);
    EXPECT_EQ(prior.map_component({-2.0, 0.0}), 1u);
}

TEST(MixturePrior, GradientMatchesFiniteDifference) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector x{0.3, -0.4};
    const linalg::Vector g = prior.log_pdf_gradient(x);
    const double h = 1e-6;
    for (std::size_t i = 0; i < 2; ++i) {
        linalg::Vector xp = x;
        linalg::Vector xm = x;
        xp[i] += h;
        xm[i] -= h;
        EXPECT_NEAR(g[i], (prior.log_pdf(xp) - prior.log_pdf(xm)) / (2.0 * h), 1e-5);
    }
}

TEST(MixturePrior, EmSurrogateIsTightMajorizer) {
    // Jensen: log p(theta) >= Q(theta; r) + H(r) for any r, equality at
    // r = responsibilities(theta).
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector theta{0.7, 0.2};
    const linalg::Vector r_star = prior.responsibilities(theta);
    auto entropy = [](const linalg::Vector& p) {
        double h = 0.0;
        for (const double v : p) {
            if (v > 0.0) h -= v * std::log(v);
        }
        return h;
    };
    EXPECT_NEAR(prior.em_surrogate(theta, r_star) + entropy(r_star), prior.log_pdf(theta),
                1e-10);
    // Any other responsibility vector gives a strict lower bound.
    const linalg::Vector r_other{0.5, 0.5};
    EXPECT_LE(prior.em_surrogate(theta, r_other) + entropy(r_other),
              prior.log_pdf(theta) + 1e-12);
}

TEST(MixturePrior, SurrogateGradientMatchesFiniteDifference) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector theta{0.7, 0.2};
    const linalg::Vector r{0.6, 0.4};
    const linalg::Vector g = prior.em_surrogate_gradient(theta, r);
    const double h = 1e-6;
    for (std::size_t i = 0; i < 2; ++i) {
        linalg::Vector tp = theta;
        linalg::Vector tm = theta;
        tp[i] += h;
        tm[i] -= h;
        EXPECT_NEAR(g[i],
                    (prior.em_surrogate(tp, r) - prior.em_surrogate(tm, r)) / (2.0 * h), 1e-5);
    }
}

TEST(MixturePrior, MeanAndMomentMatch) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector m = prior.mean();
    EXPECT_NEAR(m[0], 0.7 * 2.0 + 0.3 * (-2.0), 1e-12);
    const stats::MultivariateNormal g = prior.moment_matched_gaussian();
    EXPECT_NEAR(g.mean()[0], m[0], 1e-12);
    // Between-component spread must inflate the matched variance above the
    // within-component 0.5.
    EXPECT_GT(g.covariance()(0, 0), 2.0);
}

TEST(MixturePrior, SampleMomentsMatchMixture) {
    stats::Rng rng(7);
    const MixturePrior prior = two_atom_prior();
    stats::RunningStats first;
    for (int i = 0; i < 20000; ++i) first.push(prior.sample(rng)[0]);
    EXPECT_NEAR(first.mean(), prior.mean()[0], 0.05);
}

TEST(MixturePrior, Validation) {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({0.0}, 1.0));
    EXPECT_THROW(MixturePrior({1.0, 1.0}, std::move(atoms)), std::invalid_argument);
    std::vector<stats::MultivariateNormal> atoms2;
    atoms2.push_back(stats::MultivariateNormal::isotropic({0.0}, 1.0));
    EXPECT_THROW(MixturePrior({-1.0}, std::move(atoms2)), std::invalid_argument);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// A random full-covariance mixture in `dim` dimensions.
MixturePrior random_prior(std::size_t dim, std::size_t atoms, stats::Rng& rng) {
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> components;
    for (std::size_t k = 0; k < atoms; ++k) {
        linalg::Matrix m(dim, dim);
        for (std::size_t r = 0; r < dim; ++r) {
            for (std::size_t c = 0; c < dim; ++c) m(r, c) = rng.normal();
        }
        linalg::Matrix cov = m.matmul(m.transposed());
        cov.add_diagonal(0.5);
        weights.push_back(0.2 + rng.uniform());
        components.emplace_back(linalg::scaled(rng.standard_normal_vector(dim), 3.0),
                                std::move(cov));
    }
    return MixturePrior(std::move(weights), std::move(components));
}

// The fused prior pass must reproduce the textbook two passes bit for bit —
// value from each atom's log_pdf, gradient from each atom's
// precision_times_residual — including atoms whose responsibility is
// exactly zero (both skip them), and count as one surrogate eval.
TEST(FusedSurrogate, BitEqualToSeparateValueAndGradientPasses) {
    const obs::ScopedMetricsEnabledForTesting metrics_on(true);
    obs::Counter& evals = obs::Registry::global().counter("dp.em_surrogate_evals");
    util::Workspace ws;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        stats::Rng rng(700 + seed);
        const std::size_t dim = 1 + seed % 7;
        const std::size_t atoms = 1 + seed % 5;
        const MixturePrior prior = random_prior(dim, atoms, rng);
        const linalg::Vector theta = linalg::scaled(rng.standard_normal_vector(dim), 2.0);
        linalg::Vector r = prior.responsibilities(theta);
        // Zero out a pseudo-random subset of responsibilities.
        for (std::size_t k = 0; k < atoms; ++k) {
            if (rng.uniform() < 0.3) r[k] = 0.0;
        }

        double value = 0.0;
        linalg::Vector grad = linalg::zeros(dim);
        for (std::size_t k = 0; k < atoms; ++k) {
            if (r[k] == 0.0) continue;
            const stats::MultivariateNormal& atom = prior.atom(k);
            value += r[k] * (std::log(prior.weights()[k]) + atom.log_pdf(theta));
            linalg::axpy(-r[k], atom.precision_times_residual(theta), grad);
        }

        const std::uint64_t before = evals.total();
        linalg::Vector fused_grad = rng.standard_normal_vector(dim + 1);  // stale contents
        const double fused = prior.em_surrogate_with_gradient_ws(theta, r, &fused_grad, ws);
        EXPECT_EQ(evals.total(), before + 1);
        EXPECT_TRUE(same_bits(fused, value)) << "seed " << seed;
        EXPECT_TRUE(same_bits(fused_grad, grad)) << "seed " << seed;
        EXPECT_TRUE(same_bits(prior.em_surrogate_with_gradient_ws(theta, r, nullptr, ws), value));
        EXPECT_TRUE(same_bits(prior.em_surrogate_ws(theta, r, ws), value));
        EXPECT_TRUE(same_bits(prior.em_surrogate_gradient(theta, r), grad));
        EXPECT_EQ(ws.depth(), 0u);
    }
}

// ------------------------------------------------------------- DPMM fixture

/// Three well-separated 2-D clusters of "device parameters".
std::vector<linalg::Vector> clustered_observations(stats::Rng& rng, std::size_t per_cluster) {
    const std::vector<linalg::Vector> centers = {{6.0, 0.0}, {-6.0, 0.0}, {0.0, 6.0}};
    std::vector<linalg::Vector> obs;
    for (const auto& c : centers) {
        for (std::size_t i = 0; i < per_cluster; ++i) {
            linalg::Vector x = c;
            x[0] += 0.3 * rng.normal();
            x[1] += 0.3 * rng.normal();
            obs.push_back(std::move(x));
        }
    }
    return obs;
}

DpmmConfig dpmm_config() {
    DpmmConfig config;
    config.alpha = 1.0;
    config.base_mean = {0.0, 0.0};
    config.base_covariance = linalg::Matrix::identity(2) * 25.0;
    config.within_covariance = linalg::Matrix::identity(2) * 0.25;
    config.num_sweeps = 60;
    return config;
}

// -------------------------------------------------------------- DPMM Gibbs

TEST(DpmmGibbs, RecoversThreeClusters) {
    stats::Rng rng(8);
    DpmmGibbs sampler(clustered_observations(rng, 15), dpmm_config());
    sampler.run(rng);
    EXPECT_EQ(sampler.num_clusters(), 3u);
    // Members of the same planted cluster must share an assignment.
    const auto& z = sampler.assignments();
    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t i = 1; i < 15; ++i) {
            EXPECT_EQ(z[c * 15 + i], z[c * 15]) << "cluster " << c;
        }
    }
}

TEST(DpmmGibbs, ClusterPosteriorsNearPlantedCenters) {
    stats::Rng rng(9);
    DpmmGibbs sampler(clustered_observations(rng, 20), dpmm_config());
    sampler.run(rng);
    ASSERT_EQ(sampler.num_clusters(), 3u);
    // Without the escape atom, atom k is centred on cluster k's posterior
    // mean and weighted by its member count: 20 for every planted cluster.
    const MixturePrior prior = sampler.extract_prior(false);
    ASSERT_EQ(prior.num_components(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_NEAR(linalg::norm2(prior.atom(k).mean()), 6.0, 0.5);  // centers at radius 6
        EXPECT_DOUBLE_EQ(prior.weights()[k], prior.weights()[0]);
    }
}

TEST(DpmmGibbs, LogJointImprovesFromColdStart) {
    stats::Rng rng(10);
    DpmmGibbs sampler(clustered_observations(rng, 12), dpmm_config());
    const double before = sampler.log_joint();
    sampler.run(rng);
    EXPECT_GT(sampler.log_joint(), before + 10.0);
}

TEST(DpmmGibbs, ExtractPriorWeightsAndEscapeAtom) {
    stats::Rng rng(11);
    DpmmGibbs sampler(clustered_observations(rng, 10), dpmm_config());
    sampler.run(rng);
    const MixturePrior with_base = sampler.extract_prior(true);
    const MixturePrior without_base = sampler.extract_prior(false);
    EXPECT_EQ(with_base.num_components(), without_base.num_components() + 1);
    EXPECT_NEAR(linalg::sum(with_base.weights()), 1.0, 1e-12);
    // The escape atom carries the alpha/(N+alpha) share before renorm, so it
    // must be the lightest component.
    double min_weight = 1e9;
    for (const double w : with_base.weights()) min_weight = std::min(min_weight, w);
    EXPECT_NEAR(min_weight, 1.0 / 31.0, 0.02);
}

TEST(DpmmGibbs, AlphaResamplingStaysPositive) {
    stats::Rng rng(12);
    DpmmConfig config = dpmm_config();
    config.resample_alpha = true;
    config.num_sweeps = 40;
    DpmmGibbs sampler(clustered_observations(rng, 10), config);
    sampler.run(rng);
    EXPECT_GT(sampler.alpha(), 0.0);
    EXPECT_LT(sampler.alpha(), 50.0);
}

TEST(DpmmGibbs, SingleClusterDataCollapses) {
    stats::Rng rng(13);
    std::vector<linalg::Vector> obs;
    for (int i = 0; i < 30; ++i) {
        obs.push_back({0.1 * rng.normal(), 0.1 * rng.normal()});
    }
    DpmmGibbs sampler(std::move(obs), dpmm_config());
    sampler.run(rng);
    EXPECT_EQ(sampler.num_clusters(), 1u);
}

TEST(DpmmGibbs, Validation) {
    stats::Rng rng(14);
    EXPECT_THROW(DpmmGibbs({}, dpmm_config()), std::invalid_argument);
    DpmmConfig bad = dpmm_config();
    bad.alpha = 0.0;
    EXPECT_THROW(DpmmGibbs({{1.0, 2.0}}, bad), std::invalid_argument);
    DpmmConfig mismatched = dpmm_config();
    EXPECT_THROW(DpmmGibbs({{1.0, 2.0, 3.0}}, mismatched), std::invalid_argument);
}

// ------------------------------------------------- DPMM Gibbs mean cache

/// The collapsed Gibbs sampler without DpmmGibbs's sweep caches: every
/// predictive density recomputes its cluster's posterior mean from (count,
/// sum), and the base predictive is re-evaluated for every observation.
/// Same draws and same arithmetic, so DpmmGibbs must match it bit for bit.
/// Also counts the cluster compactions it performs, so the differential
/// test can prove it exercised them.
class UncachedGibbs {
 public:
    UncachedGibbs(std::vector<linalg::Vector> observations, DpmmConfig config)
        : obs_(std::move(observations)), config_(std::move(config)), dim_(obs_.front().size()) {
        base_precision_ = linalg::Cholesky::factor_with_jitter(config_.base_covariance).inverse();
        within_precision_ =
            linalg::Cholesky::factor_with_jitter(config_.within_covariance).inverse();
        base_precision_m0_ = base_precision_.matvec(config_.base_mean);
        assignments_.assign(obs_.size(), 0);
        counts_.assign(1, obs_.size());
        linalg::Vector total = linalg::zeros(dim_);
        for (const auto& o : obs_) linalg::axpy(1.0, o, total);
        sums_.assign(1, total);
    }

    const std::vector<std::size_t>& assignments() const noexcept { return assignments_; }
    double alpha() const noexcept { return config_.alpha; }
    std::size_t compactions() const noexcept { return compactions_; }

    void sweep(stats::Rng& rng) {
        for (std::size_t j = 0; j < obs_.size(); ++j) {
            remove(j);
            insert(j, draw(j, rng));
        }
        if (config_.resample_alpha) resample_alpha(rng);
    }

    void add_observation(linalg::Vector theta, stats::Rng& rng, int refresh_sweeps) {
        obs_.push_back(std::move(theta));
        assignments_.push_back(0);
        const std::size_t j = obs_.size() - 1;
        insert(j, draw(j, rng));
        for (int s = 0; s < refresh_sweeps; ++s) sweep(rng);
    }

    void run(stats::Rng& rng) {
        std::vector<std::size_t> best = assignments_;
        double best_lj = log_joint();
        double best_alpha = config_.alpha;
        for (int s = 0; s < config_.num_sweeps; ++s) {
            sweep(rng);
            const double lj = log_joint();
            if (lj > best_lj) {
                best_lj = lj;
                best = assignments_;
                best_alpha = config_.alpha;
            }
        }
        config_.alpha = best_alpha;
        const std::size_t k = count_clusters(best);
        assignments_ = std::move(best);
        counts_.assign(k, 0);
        sums_.assign(k, linalg::zeros(dim_));
        for (std::size_t j = 0; j < obs_.size(); ++j) {
            counts_[assignments_[j]] += 1;
            linalg::axpy(1.0, obs_[j], sums_[assignments_[j]]);
        }
    }

    MixturePrior extract_prior(bool include_base_atom) const {
        const double n = static_cast<double>(obs_.size());
        linalg::Vector weights;
        std::vector<stats::MultivariateNormal> atoms;
        for (std::size_t k = 0; k < counts_.size(); ++k) {
            const linalg::Cholesky& chol = *cache(counts_[k]).chol_lambda;
            linalg::Vector rhs = base_precision_m0_;
            linalg::axpy(1.0, within_precision_.matvec(sums_[k]), rhs);
            linalg::Vector mean = chol.solve(rhs);
            linalg::Matrix v = chol.inverse();
            v += config_.within_covariance;
            weights.push_back(static_cast<double>(counts_[k]) / (n + config_.alpha));
            atoms.emplace_back(std::move(mean), std::move(v));
        }
        if (include_base_atom) {
            linalg::Matrix broad = config_.base_covariance;
            broad += config_.within_covariance;
            weights.push_back(config_.alpha / (n + config_.alpha));
            atoms.emplace_back(config_.base_mean, std::move(broad));
        }
        return MixturePrior(std::move(weights), std::move(atoms));
    }

 private:
    struct CountCache {
        std::optional<linalg::Cholesky> chol_lambda;
        std::optional<linalg::Cholesky> chol_pred;
        double log_det_pred = 0.0;
    };

    const CountCache& cache(std::size_t count) const {
        if (count >= cache_.size()) cache_.resize(count + 1);
        CountCache& entry = cache_[count];
        if (entry.chol_pred) return entry;
        linalg::Matrix cov(dim_, dim_);
        if (count == 0) {
            cov = config_.base_covariance;
        } else {
            linalg::Matrix lambda = base_precision_;
            linalg::Matrix scaled_within = within_precision_;
            scaled_within *= static_cast<double>(count);
            lambda += scaled_within;
            entry.chol_lambda.emplace(lambda);
            cov = entry.chol_lambda->inverse();
        }
        cov += config_.within_covariance;
        entry.chol_pred.emplace(linalg::Cholesky::factor_with_jitter(std::move(cov)));
        entry.log_det_pred = entry.chol_pred->log_det();
        return entry;
    }

    double predictive_log_pdf(const linalg::Vector& x, std::size_t count,
                              const linalg::Vector& sum) const {
        const CountCache& c = cache(count);
        linalg::Vector diff(dim_);
        if (count == 0) {
            linalg::sub_into(x, config_.base_mean, diff);
        } else {
            linalg::Vector rhs = base_precision_m0_;
            linalg::Vector mv(dim_);
            within_precision_.matvec_into(sum, mv);
            linalg::axpy_n(1.0, mv.data(), rhs.data(), dim_);
            c.chol_lambda->solve_in_place(rhs);
            linalg::sub_into(x, rhs, diff);
        }
        c.chol_pred->solve_lower_in_place(diff);
        const double quad = linalg::dot_n(diff.data(), diff.data(), dim_);
        return -0.5 * (static_cast<double>(dim_) * 1.8378770664093454836 + c.log_det_pred +
                       quad);
    }

    std::size_t draw(std::size_t j, stats::Rng& rng) {
        linalg::Vector log_weights(counts_.size() + 1);
        for (std::size_t k = 0; k < counts_.size(); ++k) {
            log_weights[k] = std::log(static_cast<double>(counts_[k])) +
                             predictive_log_pdf(obs_[j], counts_[k], sums_[k]);
        }
        log_weights.back() =
            std::log(config_.alpha) + predictive_log_pdf(obs_[j], 0, linalg::Vector{});
        linalg::softmax_inplace(log_weights);
        sampler_.rebuild(log_weights.data(), log_weights.size());
        return sampler_.draw(rng);
    }

    void remove(std::size_t j) {
        const std::size_t k = assignments_[j];
        counts_[k] -= 1;
        linalg::axpy(-1.0, obs_[j], sums_[k]);
        if (counts_[k] == 0) {
            const std::size_t last = counts_.size() - 1;
            if (k != last) {
                ++compactions_;
                counts_[k] = counts_[last];
                sums_[k] = std::move(sums_[last]);
                for (std::size_t& z : assignments_) {
                    if (z == last) z = k;
                }
            }
            counts_.pop_back();
            sums_.pop_back();
        }
    }

    void insert(std::size_t j, std::size_t cluster) {
        if (cluster == counts_.size()) {
            counts_.push_back(0);
            sums_.push_back(linalg::zeros(dim_));
        }
        assignments_[j] = cluster;
        counts_[cluster] += 1;
        linalg::axpy(1.0, obs_[j], sums_[cluster]);
    }

    void resample_alpha(stats::Rng& rng) {
        const double a = config_.alpha_prior_shape;
        const double b = config_.alpha_prior_rate;
        const double n = static_cast<double>(obs_.size());
        const double k = static_cast<double>(counts_.size());
        const double eta = rng.beta(config_.alpha + 1.0, n);
        const double odds = (a + k - 1.0) / (n * (b - std::log(eta)));
        const double pi_eta = odds / (1.0 + odds);
        const double shape = (rng.uniform() < pi_eta) ? a + k : a + k - 1.0;
        config_.alpha = rng.gamma(shape, 1.0 / (b - std::log(eta)));
    }

    double log_joint() const {
        const double n = static_cast<double>(obs_.size());
        double lp = static_cast<double>(counts_.size()) * std::log(config_.alpha);
        for (const std::size_t c : counts_) lp += std::lgamma(static_cast<double>(c));
        for (double i = 0.0; i < n; i += 1.0) lp -= std::log(config_.alpha + i);
        for (std::size_t k = 0; k < counts_.size(); ++k) {
            std::size_t seen = 0;
            linalg::Vector partial = linalg::zeros(dim_);
            for (std::size_t j = 0; j < obs_.size(); ++j) {
                if (assignments_[j] != k) continue;
                lp += predictive_log_pdf(obs_[j], seen, partial);
                linalg::axpy(1.0, obs_[j], partial);
                ++seen;
            }
        }
        return lp;
    }

    std::vector<linalg::Vector> obs_;
    DpmmConfig config_;
    std::size_t dim_;
    linalg::Matrix base_precision_{0, 0};
    linalg::Matrix within_precision_{0, 0};
    linalg::Vector base_precision_m0_;
    std::vector<std::size_t> assignments_;
    std::vector<std::size_t> counts_;
    std::vector<linalg::Vector> sums_;
    mutable std::vector<CountCache> cache_;
    stats::AliasTable sampler_;
    std::size_t compactions_ = 0;
};

void expect_same_prior(const MixturePrior& a, const MixturePrior& b, std::uint64_t seed) {
    ASSERT_EQ(a.num_components(), b.num_components()) << "seed " << seed;
    EXPECT_TRUE(same_bits(a.weights(), b.weights())) << "seed " << seed;
    for (std::size_t k = 0; k < a.num_components(); ++k) {
        EXPECT_TRUE(same_bits(a.atom(k).mean(), b.atom(k).mean())) << "seed " << seed;
        const linalg::Matrix& ca = a.atom(k).covariance();
        const linalg::Matrix& cb = b.atom(k).covariance();
        for (std::size_t r = 0; r < ca.rows(); ++r) {
            for (std::size_t c = 0; c < ca.cols(); ++c) {
                EXPECT_TRUE(same_bits(ca(r, c), cb(r, c))) << "seed " << seed;
            }
        }
    }
}

// DpmmGibbs caches each cluster's predictive mean and each observation's
// base predictive density. Over random overlapping populations, a random
// script of add_observation / sweep / run — with and without alpha
// resampling, through many cluster births and compactions — must leave it
// in exactly the state of the uncached reference after every step.
TEST(GibbsMeanCache, MatchesUncachedSamplerBitForBit) {
    std::size_t total_compactions = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        stats::Rng data_rng(900 + seed);
        const std::size_t dim = 2 + seed % 3;
        const std::size_t modes = 2 + seed % 3;
        std::vector<linalg::Vector> centers;
        for (std::size_t m = 0; m < modes; ++m) {
            centers.push_back(linalg::scaled(data_rng.standard_normal_vector(dim), 2.5));
        }
        auto draw_point = [&] {
            linalg::Vector x = centers[data_rng.uniform_index(modes)];
            linalg::axpy(0.8, data_rng.standard_normal_vector(dim), x);
            return x;
        };
        std::vector<linalg::Vector> initial;
        for (std::size_t i = 0; i < 10 + seed % 7; ++i) initial.push_back(draw_point());

        DpmmConfig config;
        config.alpha = 0.5 + 0.5 * static_cast<double>(seed % 4);
        config.base_mean = linalg::zeros(dim);
        config.base_covariance = linalg::Matrix::identity(dim) * 9.0;
        config.within_covariance = linalg::Matrix::identity(dim) * 0.5;
        config.num_sweeps = 3;
        config.resample_alpha = seed % 2 == 0;

        DpmmGibbs cached(initial, config);
        UncachedGibbs reference(initial, config);
        stats::Rng rng_cached(seed);
        stats::Rng rng_reference(seed);
        for (int step = 0; step < 10; ++step) {
            switch (data_rng.uniform_index(3)) {
                case 0:
                    cached.sweep(rng_cached);
                    reference.sweep(rng_reference);
                    break;
                case 1: {
                    const linalg::Vector x = draw_point();
                    const int refresh = static_cast<int>(data_rng.uniform_index(3));
                    cached.add_observation(x, rng_cached, refresh);
                    reference.add_observation(x, rng_reference, refresh);
                    break;
                }
                default:
                    cached.run(rng_cached);
                    reference.run(rng_reference);
                    break;
            }
            ASSERT_EQ(cached.assignments(), reference.assignments())
                << "seed " << seed << " step " << step;
            ASSERT_TRUE(same_bits(cached.alpha(), reference.alpha()))
                << "seed " << seed << " step " << step;
        }
        expect_same_prior(cached.extract_prior(true), reference.extract_prior(true), seed);
        expect_same_prior(cached.extract_prior(false), reference.extract_prior(false), seed);
        total_compactions += reference.compactions();
    }
    // The script must actually have moved clusters into vacated slots.
    EXPECT_GT(total_compactions, 100u);
}

// -------------------------------------------------------- DPMM variational

VariationalConfig cavi_config() {
    VariationalConfig config;
    config.alpha = 1.0;
    config.base_mean = {0.0, 0.0};
    config.base_covariance = linalg::Matrix::identity(2) * 25.0;
    config.within_covariance = linalg::Matrix::identity(2) * 0.25;
    config.truncation = 8;
    return config;
}

TEST(DpmmVariational, ElboMonotone) {
    stats::Rng rng(15);
    DpmmVariational cavi(clustered_observations(rng, 12), cavi_config());
    // Manual run with explicit monotonicity check at every step.
    (void)cavi.run(rng);
    double previous = cavi.elbo();
    for (int i = 0; i < 10; ++i) {
        const double current = cavi.iterate();
        EXPECT_GE(current, previous - 1e-7);
        previous = current;
    }
}

TEST(DpmmVariational, ExpectedWeightsOnSimplex) {
    stats::Rng rng(16);
    DpmmVariational cavi(clustered_observations(rng, 10), cavi_config());
    cavi.run(rng);
    const linalg::Vector w = cavi.expected_weights();
    EXPECT_NEAR(linalg::sum(w), 1.0, 1e-9);
    for (const double v : w) EXPECT_GE(v, 0.0);
}

TEST(DpmmVariational, FindsThreeHeavyComponents) {
    stats::Rng rng(17);
    DpmmVariational cavi(clustered_observations(rng, 20), cavi_config());
    cavi.run(rng);
    const linalg::Vector w = cavi.expected_weights();
    std::size_t heavy = 0;
    for (const double v : w) {
        if (v > 0.1) ++heavy;
    }
    EXPECT_EQ(heavy, 3u);
}

TEST(DpmmVariational, ExtractedPriorDropsEmptyComponents) {
    stats::Rng rng(18);
    DpmmVariational cavi(clustered_observations(rng, 20), cavi_config());
    cavi.run(rng);
    const MixturePrior prior = cavi.extract_prior(0.05);
    EXPECT_LE(prior.num_components(), 4u);
    EXPECT_GE(prior.num_components(), 3u);
    EXPECT_NEAR(linalg::sum(prior.weights()), 1.0, 1e-12);
}

TEST(DpmmVariational, PriorMeansNearPlantedCenters) {
    stats::Rng rng(19);
    DpmmVariational cavi(clustered_observations(rng, 25), cavi_config());
    cavi.run(rng);
    const MixturePrior prior = cavi.extract_prior(0.05);
    std::size_t matched = 0;
    for (const linalg::Vector& center :
         std::vector<linalg::Vector>{{6.0, 0.0}, {-6.0, 0.0}, {0.0, 6.0}}) {
        for (std::size_t k = 0; k < prior.num_components(); ++k) {
            if (test_support::distance2(prior.atom(k).mean(), center) < 0.5) {
                ++matched;
                break;
            }
        }
    }
    EXPECT_EQ(matched, 3u);
}

TEST(DpmmVariational, Validation) {
    VariationalConfig bad = cavi_config();
    bad.truncation = 1;
    EXPECT_THROW(DpmmVariational({{1.0, 2.0}}, bad), std::invalid_argument);
    EXPECT_THROW(DpmmVariational({}, cavi_config()), std::invalid_argument);
}

// ----------------------------------------- Gibbs vs variational agreement

TEST(DpmmAgreement, BothInferencesShipSimilarPriors) {
    stats::Rng rng(20);
    const auto obs = clustered_observations(rng, 20);
    stats::Rng gibbs_rng(21);
    DpmmGibbs gibbs(obs, dpmm_config());
    gibbs.run(gibbs_rng);
    stats::Rng cavi_rng(22);
    DpmmVariational cavi(obs, cavi_config());
    cavi.run(cavi_rng);
    const MixturePrior pg = gibbs.extract_prior(false);
    const MixturePrior pv = cavi.extract_prior(0.05);
    // Same density (up to Monte Carlo noise) at a probe set of points.
    for (const linalg::Vector& probe :
         std::vector<linalg::Vector>{{6.0, 0.0}, {-6.0, 0.0}, {0.0, 6.0}}) {
        EXPECT_NEAR(pg.log_pdf(probe), pv.log_pdf(probe), 1.0) << probe[0] << "," << probe[1];
    }
}

}  // namespace
}  // namespace drel::dp
