#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "data/csv_io.hpp"
#include "data/scenarios.hpp"
#include "data/shifts.hpp"
#include "data/task_generator.hpp"
#include "models/linear_model.hpp"
#include "models/metrics.hpp"
#include "stats/descriptive.hpp"
#include "test_support.hpp"

namespace drel::data {
namespace {

// ---------------------------------------------------------- task generator

TEST(TaskPopulation, SyntheticConstructionShape) {
    stats::Rng rng(1);
    const TaskPopulation pop = TaskPopulation::make_synthetic(6, 3, 2.0, 0.1, rng);
    EXPECT_EQ(pop.feature_dim(), 6u);
    EXPECT_EQ(pop.modes().front().mean.size(), 7u);  // theta = features + bias
    EXPECT_EQ(pop.num_modes(), 3u);
}

TEST(TaskPopulation, RejectsInvalidConfig) {
    stats::Rng rng(2);
    EXPECT_THROW(TaskPopulation::make_synthetic(0, 3, 2.0, 0.1, rng), std::invalid_argument);
    EXPECT_THROW(TaskPopulation::make_synthetic(5, 0, 2.0, 0.1, rng), std::invalid_argument);
    EXPECT_THROW(TaskPopulation({}), std::invalid_argument);
}

TEST(TaskPopulation, TaskComesFromDeclaredMode) {
    stats::Rng rng(3);
    const TaskPopulation pop = TaskPopulation::make_synthetic(4, 4, 5.0, 0.01, rng);
    for (int i = 0; i < 20; ++i) {
        const TaskSpec task = pop.sample_task(rng);
        ASSERT_LT(task.mode_index, 4u);
        // With tiny within-mode variance the sampled theta must be closest
        // to its own mode's mean.
        double best = 1e18;
        std::size_t best_mode = 99;
        for (std::size_t k = 0; k < 4; ++k) {
            const double dist =
                test_support::distance2(task.theta_star, pop.modes()[k].mean);
            if (dist < best) {
                best = dist;
                best_mode = k;
            }
        }
        EXPECT_EQ(best_mode, task.mode_index);
    }
}

TEST(TaskPopulation, GeneratedDataHasBiasColumnLast) {
    stats::Rng rng(4);
    const TaskPopulation pop = TaskPopulation::make_synthetic(5, 2, 2.0, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    const models::Dataset d = pop.generate(task, 50, rng);
    EXPECT_EQ(d.dim(), 6u);
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_DOUBLE_EQ(d.feature_row(i)[5], 1.0);
    }
}

TEST(TaskPopulation, TrueModelAchievesHighAccuracyOnCrispData) {
    stats::Rng rng(5);
    const TaskPopulation pop = TaskPopulation::make_synthetic(6, 3, 3.0, 0.02, rng);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions options;
    options.margin_scale = 6.0;  // crisp labels
    options.label_noise = 0.0;
    const models::Dataset d = pop.generate(task, 3000, rng, options);
    const models::LinearModel oracle(task.theta_star);
    EXPECT_GT(models::accuracy(oracle, d), 0.9);
}

TEST(TaskPopulation, LabelNoiseDegradesOracleAccuracy) {
    stats::Rng rng(6);
    const TaskPopulation pop = TaskPopulation::make_synthetic(6, 3, 3.0, 0.02, rng);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions clean;
    clean.margin_scale = 6.0;
    clean.label_noise = 0.0;
    DataOptions noisy = clean;
    noisy.label_noise = 0.3;
    const models::LinearModel oracle(task.theta_star);
    const double acc_clean = models::accuracy(oracle, pop.generate(task, 4000, rng, clean));
    const double acc_noisy = models::accuracy(oracle, pop.generate(task, 4000, rng, noisy));
    EXPECT_GT(acc_clean - acc_noisy, 0.1);
}

TEST(TaskPopulation, FeatureShiftMovesMean) {
    stats::Rng rng(7);
    const TaskPopulation pop = TaskPopulation::make_synthetic(3, 2, 2.0, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions options;
    options.feature_shift = {5.0, 0.0, 0.0};
    const models::Dataset d = pop.generate(task, 2000, rng, options);
    stats::RunningStats first_coord;
    for (std::size_t i = 0; i < d.size(); ++i) first_coord.push(d.feature_row(i)[0]);
    EXPECT_NEAR(first_coord.mean(), 5.0, 0.2);
}

TEST(TaskPopulation, OutlierInjectionPlacesFarPoints) {
    stats::Rng rng(8);
    const TaskPopulation pop = TaskPopulation::make_synthetic(4, 2, 2.0, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions options;
    options.outlier_fraction = 0.2;
    options.outlier_radius = 50.0;
    const models::Dataset d = pop.generate(task, 100, rng, options);
    std::size_t far = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        linalg::Vector x = d.feature_row(i);
        x.pop_back();  // drop bias
        if (linalg::norm2(x) > 25.0) ++far;
    }
    EXPECT_EQ(far, 20u);
}

TEST(TaskPopulation, GenerateValidatesArguments) {
    stats::Rng rng(9);
    const TaskPopulation pop = TaskPopulation::make_synthetic(3, 2, 2.0, 0.05, rng);
    TaskSpec bad;
    bad.theta_star = {1.0};
    EXPECT_THROW(pop.generate(bad, 10, rng), std::invalid_argument);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions options;
    options.feature_shift = {1.0};  // wrong dim
    EXPECT_THROW(pop.generate(task, 10, rng, options), std::invalid_argument);
}

// generate() writes each row straight into the feature matrix. The
// reference below is the per-row loop it replaced (a fresh vector per row,
// push_back of the bias, set_row); both must produce the same bits and leave
// the stream at the same place.

models::Dataset reference_generate(const TaskPopulation& pop, const TaskSpec& task,
                                   std::size_t n, stats::Rng& rng,
                                   const DataOptions& options) {
    const std::size_t d = pop.feature_dim();
    linalg::Matrix features(n, d + 1);
    linalg::Vector labels(n);
    const std::size_t n_outliers =
        static_cast<std::size_t>(std::floor(options.outlier_fraction * static_cast<double>(n)));
    for (std::size_t i = 0; i < n; ++i) {
        linalg::Vector x = rng.standard_normal_vector(d);
        linalg::scale(x, options.feature_scale);
        if (!options.feature_shift.empty()) linalg::axpy(1.0, options.feature_shift, x);
        x.push_back(1.0);
        const double logit = options.margin_scale * linalg::dot(task.theta_star, x);
        const double p_pos = 1.0 / (1.0 + std::exp(-logit));
        double y = (rng.uniform() < p_pos) ? 1.0 : -1.0;
        if (options.label_noise > 0.0 && rng.uniform() < options.label_noise) y = -y;
        if (i < n_outliers) {
            linalg::Vector dir = rng.standard_normal_vector(d);
            const double dn = linalg::norm2(dir);
            if (dn > 0.0) linalg::scale(dir, options.outlier_radius / dn);
            for (std::size_t c = 0; c < d; ++c) x[c] = dir[c];
            y = (rng.uniform() < 0.5) ? 1.0 : -1.0;
        }
        features.set_row(i, x);
        labels[i] = y;
    }
    return models::Dataset(std::move(features), std::move(labels));
}

models::Dataset reference_regression(const linalg::Vector& theta_star, std::size_t n,
                                     double noise_sd, stats::Rng& rng) {
    const std::size_t d = theta_star.size() - 1;
    linalg::Matrix features(n, d + 1);
    linalg::Vector labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        linalg::Vector x = rng.standard_normal_vector(d);
        x.push_back(1.0);
        labels[i] = linalg::dot(theta_star, x) + rng.normal(0.0, noise_sd);
        features.set_row(i, x);
    }
    return models::Dataset(std::move(features), std::move(labels));
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

::testing::AssertionResult same_data(const models::Dataset& got, const models::Dataset& want) {
    if (got.size() != want.size() || got.dim() != want.dim()) {
        return ::testing::AssertionFailure() << "shape differs";
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (!same_bits(got.feature_row(i), want.feature_row(i))) {
            return ::testing::AssertionFailure() << "features differ in row " << i;
        }
    }
    if (!same_bits(got.labels(), want.labels())) {
        return ::testing::AssertionFailure() << "labels differ";
    }
    return ::testing::AssertionSuccess();
}

TEST(GenerateInPlace, MatchesPerRowReferenceAcrossOptions) {
    const auto variants_for = [](std::size_t d) {
        std::vector<std::pair<const char*, DataOptions>> variants;
        variants.emplace_back("defaults", DataOptions{});
        DataOptions shifted;
        for (std::size_t c = 0; c < d; ++c) {
            shifted.feature_shift.push_back(0.5 - 0.35 * static_cast<double>(c % 7));
        }
        variants.emplace_back("feature_shift", shifted);
        DataOptions scaled;
        scaled.feature_scale = 1.7;
        scaled.margin_scale = 2.5;
        variants.emplace_back("feature_scale", scaled);
        DataOptions outliers;
        outliers.outlier_fraction = 0.25;
        outliers.feature_scale = 0.6;
        variants.emplace_back("outlier_fraction", outliers);
        DataOptions noiseless;
        noiseless.label_noise = 0.0;
        variants.emplace_back("label_noise=0", noiseless);
        return variants;
    };

    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        // Feature dims on both sides of the 16-wide dispatch cut-off.
        const std::size_t d = seed % 2 == 0 ? 5 : 20;
        stats::Rng setup(9000 + seed);
        const TaskPopulation pop = TaskPopulation::make_synthetic(d, 3, 2.5, 0.1, setup);
        const TaskSpec task = pop.sample_task(setup);
        for (const auto& [name, options] : variants_for(d)) {
            for (const std::size_t n : std::vector<std::size_t>{1, 16, 37, 1500}) {
                stats::Rng rng(seed * 7919 + n);
                stats::Rng ref_rng(rng);
                const models::Dataset got = pop.generate(task, n, rng, options);
                const models::Dataset want = reference_generate(pop, task, n, ref_rng, options);
                ASSERT_TRUE(same_data(got, want)) << name << ", seed " << seed << ", n " << n;
                ASSERT_EQ(rng.uniform_index(1u << 30), ref_rng.uniform_index(1u << 30))
                    << name << ", seed " << seed << ", n " << n;
            }
        }
    }
}

TEST(GenerateInPlace, RegressionMatchesPerRowReference) {
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        stats::Rng rng(300 + seed);
        // Feature dims on both sides of the 16-wide dispatch cut-off.
        const linalg::Vector theta = rng.standard_normal_vector(seed % 2 == 0 ? 6 : 24);
        stats::Rng ref_rng(rng);
        const models::Dataset got = generate_regression_data(theta, 200, 0.3, rng);
        const models::Dataset want = reference_regression(theta, 200, 0.3, ref_rng);
        ASSERT_TRUE(same_data(got, want)) << "seed " << seed;
        ASSERT_EQ(rng.uniform_index(1u << 30), ref_rng.uniform_index(1u << 30)) << seed;
    }
}

// ------------------------------------------------------------------ shifts

models::Dataset shift_fixture(stats::Rng& rng, std::size_t n = 500) {
    const TaskPopulation pop = TaskPopulation::make_synthetic(4, 2, 2.0, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    return pop.generate(task, n, rng);
}

TEST(Shifts, MeanShiftLeavesBiasUntouched) {
    stats::Rng rng(10);
    const models::Dataset d = shift_fixture(rng);
    const models::Dataset shifted = apply_mean_shift(d, {1.0, -2.0, 0.0, 3.0});
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(shifted.feature_row(i)[4], 1.0);
        EXPECT_NEAR(shifted.feature_row(i)[0] - d.feature_row(i)[0], 1.0, 1e-12);
        EXPECT_NEAR(shifted.feature_row(i)[1] - d.feature_row(i)[1], -2.0, 1e-12);
    }
}

TEST(Shifts, RotationPreservesNorms) {
    stats::Rng rng(11);
    const models::Dataset d = shift_fixture(rng);
    const models::Dataset rotated = apply_rotation(d, 0.7);
    for (std::size_t i = 0; i < 10; ++i) {
        const auto a = d.feature_row(i);
        const auto b = rotated.feature_row(i);
        EXPECT_NEAR(a[0] * a[0] + a[1] * a[1], b[0] * b[0] + b[1] * b[1], 1e-9);
        EXPECT_DOUBLE_EQ(a[2], b[2]);  // untouched coordinate
    }
}

TEST(Shifts, FullCircleRotationIsIdentity) {
    stats::Rng rng(12);
    const models::Dataset d = shift_fixture(rng, 50);
    const models::Dataset rotated = apply_rotation(d, 2.0 * M_PI);
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_NEAR(test_support::distance2(d.feature_row(i), rotated.feature_row(i)), 0.0,
                    1e-9);
    }
}

TEST(Shifts, LabelShiftHitsTargetFraction) {
    stats::Rng rng(14);
    const models::Dataset d = shift_fixture(rng, 1000);
    const models::Dataset shifted = apply_label_shift(d, 0.8, rng);
    EXPECT_NEAR(shifted.positive_fraction(), 0.8, 0.01);
    EXPECT_EQ(shifted.size(), d.size());
}

TEST(Shifts, LabelShiftRejectsImpossibleTargets) {
    // All-positive dataset cannot be resampled to contain negatives.
    const models::Dataset d(linalg::Matrix(3, 2, {1.0, 1.0, 2.0, 1.0, 3.0, 1.0}),
                            {1.0, 1.0, 1.0});
    stats::Rng rng(15);
    EXPECT_THROW(apply_label_shift(d, 0.5, rng), std::invalid_argument);
}

TEST(Shifts, ZeroFeatureNoiseIsIdentity) {
    stats::Rng rng(16);
    const models::Dataset d = shift_fixture(rng, 100);
    const models::Dataset noisy = apply_feature_noise(d, 0.0, rng);
    EXPECT_NEAR(test_support::distance2(noisy.feature_row(0), d.feature_row(0)), 0.0, 1e-12);
}

// --------------------------------------------------------------- scenarios

/// A scenario on a fresh population and task, all drawn from `rng`.
Scenario make_scenario(ScenarioKind kind, const ScenarioConfig& config, stats::Rng& rng) {
    const TaskPopulation population = TaskPopulation::make_synthetic(
        config.feature_dim, config.num_modes, config.mode_radius, config.within_mode_var, rng);
    const TaskSpec task = population.sample_task(rng);
    return make_scenario_for_task(kind, config, population, task, rng);
}

TEST(Scenarios, AllKindsConstruct) {
    ScenarioConfig config;
    config.n_test = 500;
    for (const ScenarioKind kind :
         {ScenarioKind::kIid, ScenarioKind::kCovariateShift, ScenarioKind::kLabelShift,
          ScenarioKind::kOutliers, ScenarioKind::kLabelNoise, ScenarioKind::kRotation}) {
        stats::Rng rng(17);
        const Scenario s = make_scenario(kind, config, rng);
        EXPECT_EQ(s.name, scenario_name(kind));
        EXPECT_EQ(s.edge_train.size(), config.n_train);
        EXPECT_EQ(s.edge_test.size(), config.n_test);
        EXPECT_GT(s.bayes_accuracy, 0.5) << s.name;
    }
}

TEST(Scenarios, LabelShiftScenarioSkewsTestBalance) {
    ScenarioConfig config;
    config.n_test = 2000;
    stats::Rng rng(18);
    const Scenario s = make_scenario(ScenarioKind::kLabelShift, config, rng);
    EXPECT_NEAR(s.edge_test.positive_fraction(), 0.8, 0.02);
}

TEST(Scenarios, SameTaskSharesGroundTruth) {
    ScenarioConfig config;
    config.n_test = 300;
    stats::Rng rng(19);
    const TaskPopulation pop = TaskPopulation::make_synthetic(
        config.feature_dim, config.num_modes, config.mode_radius, config.within_mode_var, rng);
    const TaskSpec task = pop.sample_task(rng);
    const Scenario a = make_scenario_for_task(ScenarioKind::kIid, config, pop, task, rng);
    const Scenario b =
        make_scenario_for_task(ScenarioKind::kCovariateShift, config, pop, task, rng);
    EXPECT_NEAR(test_support::distance2(a.task.theta_star, b.task.theta_star), 0.0, 0.0);
}

// ------------------------------------------------------------------ CSV IO

TEST(CsvIo, RoundTripPreservesData) {
    stats::Rng rng(20);
    const models::Dataset d = shift_fixture(rng, 37);
    std::stringstream buffer;
    save_csv(d, buffer);
    const models::Dataset loaded = load_csv(buffer);
    ASSERT_EQ(loaded.size(), d.size());
    ASSERT_EQ(loaded.dim(), d.dim());
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_NEAR(test_support::distance2(loaded.feature_row(i), d.feature_row(i)), 0.0,
                    1e-12);
        EXPECT_DOUBLE_EQ(loaded.label(i), d.label(i));
    }
}

TEST(CsvIo, RejectsRaggedRows) {
    std::stringstream buffer("f0,f1,label\n1,2,1\n1,2,3,4\n");
    EXPECT_THROW(load_csv(buffer), std::invalid_argument);
}

TEST(CsvIo, RejectsNonNumeric) {
    std::stringstream buffer("f0,label\nabc,1\n");
    EXPECT_THROW(load_csv(buffer), std::invalid_argument);
}

TEST(CsvIo, RejectsEmpty) {
    std::stringstream empty("header\n");
    EXPECT_THROW(load_csv(empty), std::invalid_argument);
}

TEST(CsvIo, SkipsBlankLines) {
    std::stringstream buffer("f0,label\n1,1\n\n2,-1\n");
    const models::Dataset d = load_csv(buffer);
    EXPECT_EQ(d.size(), 2u);
}

}  // namespace
}  // namespace drel::data
