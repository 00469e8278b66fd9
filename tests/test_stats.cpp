#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"

namespace drel::stats {
namespace {

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicFromSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkedStreamsDiffer) {
    Rng base(42);
    Rng a = base.fork(1);
    Rng b = base.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform()) ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministic) {
    Rng base(7);
    EXPECT_DOUBLE_EQ(base.fork(3).uniform(), Rng(7).fork(3).uniform());
}

TEST(Rng, UniformRange) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
    }
    EXPECT_THROW(rng.uniform(1.0, 1.0), std::invalid_argument);
}

TEST(Rng, NormalMomentsApproximate) {
    Rng rng(2);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) s.push(rng.normal(3.0, 2.0));
    EXPECT_NEAR(s.mean(), 3.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, GammaMomentsApproximate) {
    Rng rng(3);
    const double shape = 2.5;
    const double scale = 1.5;
    RunningStats s;
    for (int i = 0; i < 30000; ++i) s.push(rng.gamma(shape, scale));
    EXPECT_NEAR(s.mean(), shape * scale, 0.1);
    EXPECT_NEAR(s.variance(), shape * scale * scale, 0.3);
}

TEST(Rng, GammaSmallShapeStaysPositive) {
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) EXPECT_GT(rng.gamma(0.3, 1.0), 0.0);
}

TEST(Rng, BetaMomentsApproximate) {
    Rng rng(5);
    RunningStats s;
    for (int i = 0; i < 30000; ++i) s.push(rng.beta(2.0, 5.0));
    EXPECT_NEAR(s.mean(), 2.0 / 7.0, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
    Rng rng(6);
    std::vector<int> hits(3, 0);
    for (int i = 0; i < 30000; ++i) ++hits[rng.categorical({1.0, 2.0, 7.0})];
    EXPECT_NEAR(hits[2] / 30000.0, 0.7, 0.02);
    EXPECT_NEAR(hits[0] / 30000.0, 0.1, 0.02);
}

TEST(Rng, CategoricalRejectsInvalid) {
    Rng rng(7);
    EXPECT_THROW(rng.categorical({}), std::invalid_argument);
    EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(rng.categorical({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, DirichletOnSimplex) {
    Rng rng(8);
    for (int i = 0; i < 100; ++i) {
        const auto p = rng.dirichlet({0.5, 1.0, 2.0});
        EXPECT_NEAR(linalg::sum(p), 1.0, 1e-12);
        for (const double v : p) EXPECT_GE(v, 0.0);
    }
}

TEST(Rng, DirichletMeanMatchesAlphaRatio) {
    Rng rng(9);
    linalg::Vector acc(3, 0.0);
    const int n = 20000;
    for (int i = 0; i < n; ++i) linalg::axpy(1.0, rng.dirichlet({1.0, 2.0, 3.0}), acc);
    EXPECT_NEAR(acc[0] / n, 1.0 / 6.0, 0.01);
    EXPECT_NEAR(acc[2] / n, 3.0 / 6.0, 0.01);
}

TEST(Rng, PermutationIsValid) {
    Rng rng(10);
    const auto p = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (const std::size_t i : p) {
        ASSERT_LT(i, 50u);
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
    }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
    Rng rng(11);
    const auto s = rng.sample_without_replacement(20, 10);
    EXPECT_EQ(s.size(), 10u);
    std::vector<bool> seen(20, false);
    for (const std::size_t i : s) {
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
    }
    EXPECT_THROW(rng.sample_without_replacement(3, 5), std::invalid_argument);
}

// ----------------------------------------------------------- distributions

TEST(Distributions, NormalPdfIntegratesToKnownValue) {
    // At the mean, log pdf = -0.5 log(2 pi var).
    EXPECT_NEAR(log_normal_pdf(0.0, 0.0, 1.0), -0.5 * std::log(2.0 * M_PI), 1e-12);
    EXPECT_NEAR(log_normal_pdf(2.0, 0.0, 1.0), -0.5 * std::log(2.0 * M_PI) - 2.0, 1e-12);
}

TEST(Distributions, GammaPdfKnownPoint) {
    // Gamma(1, 1) is Exponential(1): pdf(x) = e^{-x}.
    EXPECT_NEAR(log_gamma_pdf(2.0, 1.0, 1.0), -2.0, 1e-12);
    EXPECT_TRUE(std::isinf(log_gamma_pdf(-1.0, 2.0, 1.0)));
}

TEST(Distributions, BetaPdfSymmetry) {
    EXPECT_NEAR(log_beta_pdf(0.3, 2.0, 5.0), log_beta_pdf(0.7, 5.0, 2.0), 1e-12);
    EXPECT_TRUE(std::isinf(log_beta_pdf(0.0, 2.0, 2.0)));
}

TEST(Distributions, DirichletUniformCase) {
    // Dirichlet(1,1,1) is uniform on the simplex: pdf = 2! = 2 everywhere.
    EXPECT_NEAR(log_dirichlet_pdf({0.2, 0.3, 0.5}, {1.0, 1.0, 1.0}), std::log(2.0), 1e-12);
}

TEST(Distributions, StudentTApproachesNormalForLargeDof) {
    const double t = log_student_t_pdf(1.3, 1e7, 0.0, 1.0);
    const double n = log_normal_pdf(1.3, 0.0, 1.0);
    EXPECT_NEAR(t, n, 1e-5);
}

TEST(Distributions, DigammaRecurrence) {
    // psi(x+1) = psi(x) + 1/x
    for (const double x : {0.3, 1.0, 2.5, 7.0}) {
        EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
    }
    // psi(1) = -Euler-Mascheroni.
    EXPECT_NEAR(digamma(1.0), -0.5772156649015329, 1e-10);
}

// ------------------------------------------------------ multivariate normal

TEST(MultivariateNormal, LogPdfMatchesUnivariate) {
    const MultivariateNormal mvn = MultivariateNormal::isotropic({0.5}, 2.0);
    EXPECT_NEAR(mvn.log_pdf({1.5}), log_normal_pdf(1.5, 0.5, 2.0), 1e-12);
}

TEST(MultivariateNormal, LogPdfDiagonalFactorizes) {
    const MultivariateNormal mvn =
        MultivariateNormal::diagonal({1.0, -1.0}, {2.0, 3.0});
    const double expected =
        log_normal_pdf(0.0, 1.0, 2.0) + log_normal_pdf(0.5, -1.0, 3.0);
    EXPECT_NEAR(mvn.log_pdf({0.0, 0.5}), expected, 1e-12);
}

TEST(MultivariateNormal, MahalanobisAtMeanIsZero) {
    Rng rng(12);
    linalg::Matrix cov = linalg::Matrix::identity(3);
    cov(0, 1) = cov(1, 0) = 0.4;
    const MultivariateNormal mvn({1.0, 2.0, 3.0}, cov);
    EXPECT_NEAR(mvn.mahalanobis_sq({1.0, 2.0, 3.0}), 0.0, 1e-12);
}

TEST(MultivariateNormal, SampleMomentsMatch) {
    Rng rng(13);
    linalg::Matrix cov(2, 2, {2.0, 0.7, 0.7, 1.0});
    const MultivariateNormal mvn({1.0, -1.0}, cov);
    std::vector<linalg::Vector> samples;
    for (int i = 0; i < 20000; ++i) samples.push_back(mvn.sample(rng));
    const linalg::Vector m = mean_rows(samples);
    EXPECT_NEAR(m[0], 1.0, 0.05);
    EXPECT_NEAR(m[1], -1.0, 0.05);
    const linalg::Matrix c = covariance_rows(samples);
    EXPECT_NEAR(c(0, 0), 2.0, 0.1);
    EXPECT_NEAR(c(0, 1), 0.7, 0.05);
}

TEST(MultivariateNormal, PrecisionTimesResidualIsGradient) {
    linalg::Matrix cov(2, 2, {1.5, 0.3, 0.3, 0.8});
    const MultivariateNormal mvn({0.0, 0.0}, cov);
    const linalg::Vector x{1.0, 2.0};
    // d/dx [-log pdf] = Sigma^{-1} (x - mu); check by finite differences.
    const double h = 1e-6;
    const linalg::Vector g = mvn.precision_times_residual(x);
    for (std::size_t i = 0; i < 2; ++i) {
        linalg::Vector xp = x;
        linalg::Vector xm = x;
        xp[i] += h;
        xm[i] -= h;
        const double numeric = -(mvn.log_pdf(xp) - mvn.log_pdf(xm)) / (2.0 * h);
        EXPECT_NEAR(g[i], numeric, 1e-5);
    }
}

TEST(MultivariateNormal, RejectsMismatchedShapes) {
    EXPECT_THROW(MultivariateNormal({1.0, 2.0}, linalg::Matrix::identity(3)),
                 std::invalid_argument);
    EXPECT_THROW(MultivariateNormal::diagonal({1.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(MultivariateNormal::diagonal({1.0}, {-1.0}), std::invalid_argument);
}

// -------------------------------------------------------------- descriptive

TEST(Descriptive, MeanVarianceKnown) {
    const linalg::Vector x{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(x), 2.5);
    EXPECT_NEAR(variance(x), 5.0 / 3.0, 1e-12);
    EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Descriptive, QuantilesAndMedian) {
    const linalg::Vector x{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(median(x), 2.5);
    EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(x, 1.0), 4.0);
    EXPECT_THROW(quantile(x, 1.5), std::invalid_argument);
}

TEST(Descriptive, NearestRankPicksTheCeilRankElement) {
    // The engine's latency-tail estimator: rank = ceil(q * n), 1-based,
    // clamped into the sample. Input must already be sorted.
    const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.25), 10.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.5), 20.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.51), 30.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.99), 40.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(nearest_rank({7.0}, 0.5), 7.0);
    // Empty sample reports 0 (the engine's "no latencies this round").
    EXPECT_DOUBLE_EQ(nearest_rank({}, 0.5), 0.0);
    EXPECT_THROW(nearest_rank(sorted, -0.1), std::invalid_argument);
    EXPECT_THROW(nearest_rank(sorted, 1.1), std::invalid_argument);
}

TEST(Descriptive, NearestRanksBySelectionEqualSortedNearestRank) {
    const std::vector<double> qs = {0.0, 0.5, 0.5, 0.99, 0.999, 1.0};
    Rng rng(91);
    const auto check = [&qs](const std::vector<double>& sample) {
        std::vector<double> sorted = sample;
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> scratch = sample;
        const std::vector<double> got = nearest_ranks(scratch, qs);
        ASSERT_EQ(got.size(), qs.size());
        for (std::size_t i = 0; i < qs.size(); ++i) {
            EXPECT_EQ(got[i], nearest_rank(sorted, qs[i]))
                << "n = " << sample.size() << ", q = " << qs[i];
        }
        std::sort(scratch.begin(), scratch.end());
        EXPECT_EQ(scratch, sorted);  // a reordering, nothing lost
    };
    for (const std::size_t n : std::vector<std::size_t>{0, 1, 2, 1000}) {
        std::vector<double> sample(n);
        for (double& v : sample) v = rng.normal();
        check(sample);
    }
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> sample(1 + rng.uniform_index(3000));
        // Half the trials draw from a handful of values: heavy ties.
        const bool ties = trial % 2 == 1;
        for (double& v : sample) {
            v = ties ? static_cast<double>(rng.uniform_index(4)) : rng.exponential(2.0);
        }
        check(sample);
    }
    std::vector<double> sample = {3.0, 1.0, 2.0};
    EXPECT_THROW(nearest_ranks(sample, {0.9, 0.5}), std::invalid_argument);
    EXPECT_THROW(nearest_ranks(sample, {1.5}), std::invalid_argument);
}

TEST(Descriptive, RunningStatsMatchesBatch) {
    Rng rng(14);
    RunningStats s;
    linalg::Vector values;
    for (int i = 0; i < 500; ++i) {
        const double v = rng.normal(2.0, 3.0);
        s.push(v);
        values.push_back(v);
    }
    EXPECT_NEAR(s.mean(), mean(values), 1e-10);
    EXPECT_NEAR(s.variance(), variance(values), 1e-8);
    EXPECT_EQ(s.count(), 500u);
    EXPECT_LE(s.min(), s.mean());
    EXPECT_GE(s.max(), s.mean());
}

TEST(Descriptive, CovarianceRowsKnownCase) {
    // Two perfectly correlated coordinates.
    std::vector<linalg::Vector> rows = {{0.0, 0.0}, {1.0, 2.0}, {2.0, 4.0}};
    const linalg::Matrix c = covariance_rows(rows);
    EXPECT_NEAR(c(0, 1) / std::sqrt(c(0, 0) * c(1, 1)), 1.0, 1e-12);
    EXPECT_THROW(covariance_rows({{1.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace drel::stats
