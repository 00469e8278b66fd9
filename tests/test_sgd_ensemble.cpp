// Tests for the SGD solver and the component-posterior ensemble learner.
#include <gtest/gtest.h>

#include <cmath>

#include "core/edge_learner.hpp"
#include "core/ensemble.hpp"
#include "data/task_generator.hpp"
#include "models/erm_objective.hpp"
#include "models/metrics.hpp"
#include "models/stochastic_erm.hpp"
#include "optim/lbfgs.hpp"
#include "optim/sgd.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

models::Dataset binary_fixture(stats::Rng& rng, std::size_t n) {
    return test_support::binary_task_dataset(rng, n, /*feature_dim=*/5);
}

// --------------------------------------------------------------------- SGD

TEST(Sgd, ApproachesLbfgsOptimumOnStronglyConvexErm) {
    stats::Rng rng(1);
    const models::Dataset d = binary_fixture(rng, 400);
    const auto loss = models::make_logistic_loss();
    const double l2 = 0.05;
    const models::StochasticErm stochastic(d, *loss, l2);
    const models::ErmObjective batch(d, *loss, l2);
    const double optimum = optim::minimize_lbfgs(batch, linalg::zeros(d.dim())).value;

    stats::Rng sgd_rng(2);
    optim::SgdOptions options;
    options.epochs = 40;
    options.step = 0.5;
    const optim::SgdResult r =
        optim::minimize_sgd(stochastic, linalg::zeros(d.dim()), sgd_rng, options);
    EXPECT_LT(r.value - optimum, 5e-3);
}

TEST(Sgd, EpochValuesTrendDownward) {
    stats::Rng rng(3);
    const models::Dataset d = binary_fixture(rng, 200);
    const auto loss = models::make_logistic_loss();
    const models::StochasticErm stochastic(d, *loss, 0.05);
    stats::Rng sgd_rng(4);
    const optim::SgdResult r =
        optim::minimize_sgd(stochastic, linalg::zeros(d.dim()), sgd_rng);
    ASSERT_GE(r.epoch_values.size(), 5u);
    EXPECT_LT(r.epoch_values.back(), r.epoch_values.front());
    // Final value within a whisker of the best epoch (averaging guard).
    double best = r.epoch_values.front();
    for (const double v : r.epoch_values) best = std::min(best, v);
    EXPECT_LT(r.value - best, 0.05);
}

TEST(Sgd, BatchGradientIsUnbiasedFullGradientOnFullBatch) {
    stats::Rng rng(5);
    const models::Dataset d = binary_fixture(rng, 30);
    const auto loss = models::make_logistic_loss();
    const models::StochasticErm stochastic(d, *loss, 0.1);
    const models::ErmObjective batch(d, *loss, 0.1);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    std::vector<std::size_t> all(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) all[i] = i;
    linalg::Vector grad;
    stochastic.batch_gradient(theta, all, grad);
    EXPECT_LT(test_support::distance2(grad, batch.gradient(theta)), 1e-10);
}

TEST(Sgd, Validation) {
    stats::Rng rng(6);
    const models::Dataset d = binary_fixture(rng, 20);
    const auto loss = models::make_logistic_loss();
    const models::StochasticErm stochastic(d, *loss);
    stats::Rng sgd_rng(7);
    optim::SgdOptions bad;
    bad.epochs = 0;
    EXPECT_THROW(optim::minimize_sgd(stochastic, linalg::zeros(d.dim()), sgd_rng, bad),
                 std::invalid_argument);
    bad = {};
    bad.momentum = 1.0;
    EXPECT_THROW(optim::minimize_sgd(stochastic, linalg::zeros(d.dim()), sgd_rng, bad),
                 std::invalid_argument);
    EXPECT_THROW(optim::minimize_sgd(stochastic, linalg::zeros(2), sgd_rng),
                 std::invalid_argument);
}

// ---------------------------------------------------------------- ensemble

struct Fixture {
    data::TaskPopulation population;
    data::TaskSpec task;
    models::Dataset train;
    models::Dataset test;
    dp::MixturePrior prior;
};

Fixture make_fixture(std::uint64_t seed, std::size_t n_train) {
    stats::Rng rng(seed);
    data::TaskPopulation population =
        data::TaskPopulation::make_synthetic(5, 3, 2.5, 0.05, rng);
    data::TaskSpec task = population.sample_task(rng);
    data::DataOptions options;
    options.margin_scale = 2.0;
    models::Dataset train = population.generate(task, n_train, rng, options);
    models::Dataset test = population.generate(task, 2500, rng, options);
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (const auto& mode : population.modes()) {
        weights.push_back(mode.weight);
        atoms.emplace_back(mode.mean, mode.covariance);
    }
    return Fixture{std::move(population), std::move(task), std::move(train), std::move(test),
                   dp::MixturePrior(std::move(weights), std::move(atoms))};
}

TEST(Ensemble, WeightsFormDistributionAndExpertsMatchComponents) {
    const Fixture f = make_fixture(10, 20);
    const core::EnsembleEdgeLearner learner(f.prior, {});
    const core::EnsembleModel model = learner.fit(f.train);
    EXPECT_EQ(model.weights().size(), f.prior.num_components());  // one per expert
    EXPECT_NEAR(linalg::sum(model.weights()), 1.0, 1e-12);
}

TEST(Ensemble, ConcentratesOnTrueModeWithEnoughData) {
    const Fixture f = make_fixture(11, 96);
    const core::EnsembleEdgeLearner learner(f.prior, {});
    const core::EnsembleModel model = learner.fit(f.train);
    EXPECT_EQ(linalg::argmax(model.weights()), f.task.mode_index);
    EXPECT_GT(model.weights()[f.task.mode_index], 0.9);
}

TEST(Ensemble, ProbabilitiesAreValidAndPredictConsistently) {
    const Fixture f = make_fixture(12, 16);
    const core::EnsembleEdgeLearner learner(f.prior, {});
    const core::EnsembleModel model = learner.fit(f.train);
    for (std::size_t i = 0; i < 20; ++i) {
        const double p = model.predict_probability(f.test.feature_row(i));
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        EXPECT_DOUBLE_EQ(model.predict_class(f.test.feature_row(i)), p >= 0.5 ? 1.0 : -1.0);
    }
}

TEST(Ensemble, CompetitiveWithPointEstimateOnAverage) {
    double ensemble_total = 0.0;
    double point_total = 0.0;
    const int trials = 6;
    for (int t = 0; t < trials; ++t) {
        const Fixture f = make_fixture(100 + t, 10);
        core::EnsembleConfig config;
        config.transfer_weight = 2.0;
        const core::EnsembleEdgeLearner ensemble_learner(f.prior, config);
        ensemble_total += ensemble_learner.fit(f.train).accuracy(f.test);

        core::EdgeLearnerConfig point_config;
        point_config.transfer_weight = 2.0;
        const core::EdgeLearner point_learner(f.prior, point_config);
        point_total += models::accuracy(point_learner.fit(f.train).model, f.test);
    }
    // The hedge must not lose on average at ambiguous sample sizes.
    EXPECT_GE(ensemble_total / trials, point_total / trials - 0.01);
}

TEST(Ensemble, Validation) {
    const Fixture f = make_fixture(14, 10);
    core::EnsembleConfig bad;
    bad.transfer_weight = -1.0;
    EXPECT_THROW(core::EnsembleEdgeLearner(f.prior, bad), std::invalid_argument);
    const core::EnsembleEdgeLearner learner(f.prior, {});
    const models::Dataset wrong(linalg::Matrix(2, 2, {1.0, 1.0, -1.0, 1.0}), {1.0, -1.0});
    EXPECT_THROW(learner.fit(wrong), std::invalid_argument);
    EXPECT_THROW(core::EnsembleModel({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace drel
