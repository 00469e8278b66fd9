// Tests for the multiclass f-divergence (KL, chi-square) softmax DRO
// objectives and the softmax robust-objective factory.
#include <gtest/gtest.h>

#include "data/multiclass_generator.hpp"
#include "dro/softmax_dro.hpp"
#include "models/softmax.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::dro {
namespace {

// --------------------------------------------------------- softmax f-div DRO

models::Dataset multiclass_fixture(stats::Rng& rng, std::size_t n, std::size_t classes) {
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(4, classes, 2, 2.0, 0.05, rng);
    return pop.generate(pop.sample_task(rng), n, rng);
}

TEST(SoftmaxFDivergence, GradientMatchesNumericalBothKinds) {
    stats::Rng rng(20);
    const models::Dataset d = multiclass_fixture(rng, 16, 3);
    for (const AmbiguityKind kind : {AmbiguityKind::kKl, AmbiguityKind::kChiSquare}) {
        const SoftmaxFDivergenceObjective objective(d, 3, kind, 0.25, 0.01);
        const linalg::Vector theta = rng.standard_normal_vector(objective.dim());
        EXPECT_LT(test_support::distance2(objective.gradient(theta),
                                    objective.numerical_gradient(theta)),
                  5e-3)
            << ambiguity_name(kind);
    }
}

TEST(SoftmaxFDivergence, UpperBoundsErmAndMonotone) {
    stats::Rng rng(21);
    const models::Dataset d = multiclass_fixture(rng, 20, 4);
    const models::SoftmaxErmObjective erm(d, 4);
    const linalg::Vector theta = rng.standard_normal_vector(erm.dim());
    for (const AmbiguityKind kind : {AmbiguityKind::kKl, AmbiguityKind::kChiSquare}) {
        double previous = erm.value(theta);
        for (const double rho : {0.05, 0.2, 0.8}) {
            const SoftmaxFDivergenceObjective objective(d, 4, kind, rho);
            const double value = objective.value(theta);
            EXPECT_GE(value, previous - 1e-7) << ambiguity_name(kind) << " " << rho;
            previous = value;
        }
    }
}

TEST(SoftmaxFDivergence, FactoryDispatch) {
    stats::Rng rng(22);
    const models::Dataset d = multiclass_fixture(rng, 15, 3);
    const linalg::Vector theta = rng.standard_normal_vector(3 * d.dim());
    const double erm =
        make_softmax_robust_objective(d, 3, AmbiguitySet{})->value(theta);
    for (const AmbiguitySet set : {AmbiguitySet::wasserstein(0.2), AmbiguitySet::kl(0.2),
                                   AmbiguitySet{AmbiguityKind::kChiSquare, 0.2}}) {
        EXPECT_GE(make_softmax_robust_objective(d, 3, set)->value(theta), erm - 1e-9)
            << set.to_string();
    }
}

TEST(SoftmaxFDivergence, RejectsWrongKinds) {
    stats::Rng rng(23);
    const models::Dataset d = multiclass_fixture(rng, 10, 3);
    EXPECT_THROW(SoftmaxFDivergenceObjective(d, 3, AmbiguityKind::kWasserstein, 0.1),
                 std::invalid_argument);
    EXPECT_THROW(SoftmaxFDivergenceObjective(d, 3, AmbiguityKind::kNone, 0.1),
                 std::invalid_argument);
}

}  // namespace
}  // namespace drel::dro
