// Differential & property suite for the streaming cloud posterior
// (dp/streaming_vb.hpp).
//
// Three contracts are pinned here:
//
//   1. Differential: on the same upload set, the streaming path's extracted
//      prior must stay within a bounded divergence of the retained batch
//      refit (DpmmVariational as oracle) — same planted modes recovered,
//      probe log-densities close, symmetric KL bounded.
//   2. Merge algebra: StreamingSuffStats::merge is associative and
//      commutative EXACTLY — any random partition tree over any permutation
//      of the uploads folds to bit-identical totals (operator==, not
//      near-equality). This is what lets the sharded engine fold partials
//      in whatever order the schedule produces.
//   3. Order robustness under lag: batches applied late (the PR 6
//      backpressure path: serviced a round after they were scored) yield
//      the same final posterior, as long as the anchor did not move in
//      between — which is exactly when the lifecycle refreshes it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "dp/dpmm_variational.hpp"
#include "dp/prior_diagnostics.hpp"
#include "dp/streaming_vb.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::dp {
namespace {

// Same planted population as test_dp.cpp: three tight, well-separated
// clusters in 2-D.
const std::vector<linalg::Vector>& planted_centers() {
    static const std::vector<linalg::Vector> centers = {
        {6.0, 0.0}, {-6.0, 0.0}, {0.0, 6.0}};
    return centers;
}

std::vector<linalg::Vector> clustered_observations(stats::Rng& rng,
                                                   std::size_t per_cluster) {
    std::vector<linalg::Vector> obs;
    for (const auto& c : planted_centers()) {
        for (std::size_t i = 0; i < per_cluster; ++i) {
            linalg::Vector x = c;
            x[0] += 0.3 * rng.normal();
            x[1] += 0.3 * rng.normal();
            obs.push_back(std::move(x));
        }
    }
    return obs;
}

StreamingVbConfig streaming_config() {
    StreamingVbConfig config;
    config.alpha = 1.0;
    config.base_mean = {0.0, 0.0};
    config.base_covariance = linalg::Matrix::identity(2) * 25.0;
    config.within_covariance = linalg::Matrix::identity(2) * 0.25;
    config.truncation = 8;
    config.prior_strength = 0.0;  // most tests seed explicitly
    return config;
}

/// Folds one upload into the cumulative totals: accumulate, then apply.
void ingest(StreamingVb& svb, const linalg::Vector& theta) {
    StreamingSuffStats stats = svb.make_stats();
    svb.accumulate(theta, stats);
    svb.apply(stats);
}

VariationalConfig cavi_config() {
    VariationalConfig config;
    config.alpha = 1.0;
    config.base_mean = {0.0, 0.0};
    config.base_covariance = linalg::Matrix::identity(2) * 25.0;
    config.within_covariance = linalg::Matrix::identity(2) * 0.25;
    config.truncation = 8;
    return config;
}

/// Bootstrap prior from a batch CAVI fit on `bootstrap` — the same shape of
/// init the lifecycle hands the streaming posterior.
MixturePrior bootstrap_prior(const std::vector<linalg::Vector>& bootstrap,
                             stats::Rng& rng) {
    DpmmVariational cavi(bootstrap, cavi_config());
    cavi.run(rng);
    return cavi.extract_prior(0.02);
}

// ------------------------------------------------------------- differential

// The headline differential test: bootstrap both paths identically, stream
// the remaining uploads (with anchor refreshes standing in for the
// rebroadcasts), and compare the shipped priors against the batch oracle
// that refits from the full history.
TEST(StreamingDifferential, TracksBatchOracleWithinBoundedDivergence) {
    stats::Rng data_rng(100);
    const std::vector<linalg::Vector> boot = clustered_observations(data_rng, 10);
    const std::vector<linalg::Vector> stream = clustered_observations(data_rng, 10);

    stats::Rng boot_rng(101);
    const MixturePrior init = bootstrap_prior(boot, boot_rng);

    StreamingVbConfig config = streaming_config();
    config.prior_strength = static_cast<double>(boot.size());
    StreamingVb svb(config, init);
    // Three "rounds" of uploads with an anchor refresh (= rebroadcast)
    // after each, like the lifecycle loop.
    const std::size_t batch = stream.size() / 3;
    for (std::size_t r = 0; r < 3; ++r) {
        StreamingSuffStats stats = svb.make_stats();
        for (std::size_t i = r * batch; i < (r + 1) * batch; ++i) {
            svb.accumulate(stream[i], stats);
        }
        svb.apply(stats);
        svb.refresh_anchor();
    }
    const MixturePrior streamed = svb.extract_prior(0.05);

    // Oracle: batch CAVI over the FULL history (bootstrap + streamed).
    std::vector<linalg::Vector> all = boot;
    all.insert(all.end(), stream.begin(), stream.end());
    stats::Rng oracle_rng(102);
    DpmmVariational oracle(all, cavi_config());
    oracle.run(oracle_rng);
    const MixturePrior batch_prior = oracle.extract_prior(0.05);

    // Both recover every planted mode...
    for (const linalg::Vector& center : planted_centers()) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < streamed.num_components(); ++k) {
            best = std::min(best, test_support::distance2(streamed.atom(k).mean(), center));
        }
        EXPECT_LT(best, 0.5) << "streaming lost the mode at " << center[0] << ","
                             << center[1];
    }
    // ...agree on probe densities...
    for (const linalg::Vector& probe : planted_centers()) {
        EXPECT_NEAR(streamed.log_pdf(probe), batch_prior.log_pdf(probe), 1.5)
            << probe[0] << "," << probe[1];
    }
    // ...and the whole-prior divergence is bounded.
    stats::Rng kl_rng(103);
    const double kl = symmetric_kl_estimate(streamed, batch_prior, 400, kl_rng);
    EXPECT_LT(kl, 2.0);
}

// The incremental path must also beat NOT updating: divergence from the
// oracle must shrink versus the frozen bootstrap prior. This is the reason
// the streaming mode exists.
TEST(StreamingDifferential, StreamingBeatsFrozenBootstrap) {
    stats::Rng data_rng(110);
    const std::vector<linalg::Vector> boot = clustered_observations(data_rng, 4);
    // A strong drift: the streamed uploads concentrate on one mode, so the
    // posterior weights must move.
    std::vector<linalg::Vector> stream;
    for (std::size_t i = 0; i < 40; ++i) {
        linalg::Vector x = planted_centers()[0];
        x[0] += 0.3 * data_rng.normal();
        x[1] += 0.3 * data_rng.normal();
        stream.push_back(std::move(x));
    }

    stats::Rng boot_rng(111);
    const MixturePrior init = bootstrap_prior(boot, boot_rng);

    StreamingVbConfig config = streaming_config();
    config.prior_strength = static_cast<double>(boot.size());
    StreamingVb svb(config, init);
    for (const auto& theta : stream) ingest(svb, theta);
    svb.refresh_anchor();
    const MixturePrior streamed = svb.extract_prior(0.02);

    std::vector<linalg::Vector> all = boot;
    all.insert(all.end(), stream.begin(), stream.end());
    stats::Rng oracle_rng(112);
    DpmmVariational oracle(all, cavi_config());
    oracle.run(oracle_rng);
    const MixturePrior batch_prior = oracle.extract_prior(0.02);

    stats::Rng kl_rng(113);
    const double kl_streamed = symmetric_kl_estimate(streamed, batch_prior, 400, kl_rng);
    const double kl_frozen = symmetric_kl_estimate(init, batch_prior, 400, kl_rng);
    EXPECT_LT(kl_streamed, kl_frozen);
}

// ------------------------------------------------------------ merge algebra

/// Left fold: merge stats[order[i]] into an empty accumulator in sequence.
StreamingSuffStats left_fold(const StreamingVb& svb,
                             const std::vector<StreamingSuffStats>& parts,
                             const std::vector<std::size_t>& order) {
    StreamingSuffStats acc = svb.make_stats();
    for (const std::size_t i : order) acc.merge(parts[i]);
    return acc;
}

/// Random binary partition tree over order[lo, hi): split at a random
/// pivot, fold each side, merge — randomly choosing which side absorbs
/// which, so commutativity is exercised at every internal node.
StreamingSuffStats tree_fold(const StreamingVb& svb,
                             const std::vector<StreamingSuffStats>& parts,
                             const std::vector<std::size_t>& order, std::size_t lo,
                             std::size_t hi, stats::Rng& rng) {
    if (hi - lo == 1) return parts[order[lo]];
    const std::size_t pivot = lo + 1 + rng.uniform_index(hi - lo - 1);
    StreamingSuffStats left = tree_fold(svb, parts, order, lo, pivot, rng);
    StreamingSuffStats right = tree_fold(svb, parts, order, pivot, hi, rng);
    if (rng.uniform_index(2) == 0) {
        left.merge(right);
        return left;
    }
    right.merge(left);
    return right;
}

TEST(StreamingMerge, RandomPartitionTreesFoldToBitIdenticalTotals) {
    stats::Rng data_rng(120);
    const std::vector<linalg::Vector> thetas = clustered_observations(data_rng, 8);
    stats::Rng boot_rng(121);
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 8.0;
    const StreamingVb svb(config, bootstrap_prior(thetas, boot_rng));

    // One singleton partial per upload, scored against the shared anchor.
    std::vector<StreamingSuffStats> parts;
    for (const auto& theta : thetas) {
        StreamingSuffStats s = svb.make_stats();
        svb.accumulate(theta, s);
        parts.push_back(std::move(s));
    }
    std::vector<std::size_t> identity(parts.size());
    std::iota(identity.begin(), identity.end(), 0);
    const StreamingSuffStats reference = left_fold(svb, parts, identity);
    EXPECT_EQ(reference.num_observations, thetas.size());

    stats::Rng shuffle_rng(122);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::size_t> order = identity;
        for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[shuffle_rng.uniform_index(i)]);
        }
        const StreamingSuffStats folded =
            tree_fold(svb, parts, order, 0, order.size(), shuffle_rng);
        EXPECT_EQ(folded, reference) << "trial " << trial;
    }
}

TEST(StreamingMerge, PairwiseCommutes) {
    stats::Rng data_rng(130);
    const std::vector<linalg::Vector> thetas = clustered_observations(data_rng, 2);
    stats::Rng boot_rng(131);
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 4.0;
    const StreamingVb svb(config, bootstrap_prior(thetas, boot_rng));

    StreamingSuffStats a = svb.make_stats();
    StreamingSuffStats b = svb.make_stats();
    for (std::size_t i = 0; i < thetas.size(); ++i) {
        svb.accumulate(thetas[i], i % 2 == 0 ? a : b);
    }
    StreamingSuffStats ab = a;
    ab.merge(b);
    StreamingSuffStats ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);
}

TEST(StreamingMerge, AccumulationOrderWithinAStatsIsIrrelevant) {
    stats::Rng data_rng(140);
    const std::vector<linalg::Vector> thetas = clustered_observations(data_rng, 4);
    stats::Rng boot_rng(141);
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 4.0;
    const StreamingVb svb(config, bootstrap_prior(thetas, boot_rng));

    StreamingSuffStats forward = svb.make_stats();
    for (const auto& theta : thetas) svb.accumulate(theta, forward);
    StreamingSuffStats backward = svb.make_stats();
    for (auto it = thetas.rbegin(); it != thetas.rend(); ++it) {
        svb.accumulate(*it, backward);
    }
    EXPECT_EQ(forward, backward);
}

// ------------------------------------------------------ order under lag

// The PR 6 backpressure path delays whole batches by a round. As long as
// the anchor has not been refreshed in between — and the lifecycle only
// refreshes on rebroadcast, after the round's statistics are folded — a
// lagged batch folds to the same cumulative totals, and the extracted
// prior (a deterministic function of the totals) is bit-identical.
TEST(StreamingLag, LaggedBatchesYieldTheSameFinalPosterior) {
    stats::Rng data_rng(150);
    const std::vector<linalg::Vector> thetas = clustered_observations(data_rng, 8);
    stats::Rng boot_rng(151);
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 8.0;
    const MixturePrior init = bootstrap_prior(thetas, boot_rng);

    // Four per-round batches of six uploads each.
    std::vector<std::vector<linalg::Vector>> batches(4);
    for (std::size_t i = 0; i < thetas.size(); ++i) {
        batches[i % 4].push_back(thetas[i]);
    }

    const auto run_with_order = [&](const std::vector<std::size_t>& order) {
        StreamingVb svb(config, init);
        for (const std::size_t b : order) {
            StreamingSuffStats stats = svb.make_stats();
            for (const auto& theta : batches[b]) svb.accumulate(theta, stats);
            svb.apply(stats);
        }
        return svb;
    };

    const StreamingVb in_order = run_with_order({0, 1, 2, 3});
    const StreamingVb lagged = run_with_order({0, 2, 3, 1});  // batch 1 a round late
    EXPECT_EQ(in_order.totals(), lagged.totals());

    const MixturePrior p = in_order.extract_prior();
    const MixturePrior q = lagged.extract_prior();
    ASSERT_EQ(p.num_components(), q.num_components());
    for (std::size_t k = 0; k < p.num_components(); ++k) {
        EXPECT_EQ(p.weights()[k], q.weights()[k]) << "component " << k;
        EXPECT_EQ(p.atom(k).mean(), q.atom(k).mean()) << "component " << k;
    }
}

// The flip side, pinned so a refactor cannot silently weaken the contract
// into "order never matters": responsibilities are anchored, so refreshing
// the anchor BETWEEN batches makes order observable again. The lifecycle
// must therefore only refresh at rebroadcast boundaries.
TEST(StreamingLag, AnchorRefreshBetweenBatchesBreaksOrderInvariance) {
    stats::Rng data_rng(160);
    const std::vector<linalg::Vector> thetas = clustered_observations(data_rng, 8);
    stats::Rng boot_rng(161);
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 8.0;
    const MixturePrior init = bootstrap_prior(thetas, boot_rng);

    std::vector<std::vector<linalg::Vector>> batches(2);
    // Maximally asymmetric batches: all of one mode, then everything else.
    for (std::size_t i = 0; i < thetas.size(); ++i) {
        batches[i < 8 ? 0 : 1].push_back(thetas[i]);
    }
    const auto run_with_refresh = [&](bool swap) {
        StreamingVb svb(config, init);
        for (int b = 0; b < 2; ++b) {
            StreamingSuffStats stats = svb.make_stats();
            for (const auto& theta : batches[swap ? 1 - b : b]) {
                svb.accumulate(theta, stats);
            }
            svb.apply(stats);
            svb.refresh_anchor();  // the contract-breaking move
        }
        return svb.totals();
    };
    EXPECT_NE(run_with_refresh(false), run_with_refresh(true));
}

// --------------------------------------------------------------- mechanics

TEST(StreamingVbBasics, SeededTotalsMatchBootstrapMass) {
    stats::Rng boot_rng(170);
    stats::Rng data_rng(171);
    const MixturePrior init =
        bootstrap_prior(clustered_observations(data_rng, 10), boot_rng);
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 30.0;
    const StreamingVb svb(config, init);
    double seeded_mass = 0.0;
    for (const std::int64_t c : svb.totals().counts) {
        seeded_mass += static_cast<double>(c) / StreamingVb::kCountScale;
    }
    EXPECT_NEAR(seeded_mass, 30.0, 1e-6);
    // The pre-ingest extract must resemble the bootstrap, not the base.
    const MixturePrior extracted = svb.extract_prior(0.02);
    stats::Rng kl_rng(172);
    EXPECT_LT(symmetric_kl_estimate(extracted, init, 300, kl_rng), 2.0);
}

TEST(StreamingVbBasics, ExpectedWeightsOnSimplex) {
    stats::Rng data_rng(180);
    stats::Rng boot_rng(181);
    const std::vector<linalg::Vector> thetas = clustered_observations(data_rng, 6);
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 6.0;
    StreamingVb svb(config, bootstrap_prior(thetas, boot_rng));
    for (const auto& theta : thetas) ingest(svb, theta);
    const linalg::Vector w = svb.expected_weights();
    EXPECT_EQ(w.size(), svb.truncation());
    EXPECT_NEAR(linalg::sum(w), 1.0, 1e-9);
    for (const double v : w) EXPECT_GE(v, 0.0);
}

TEST(StreamingVbBasics, ZeroPriorStrengthFallsBackToBaseMeasure) {
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 0.0;
    const StreamingVb svb(
        config, MixturePrior::single(stats::MultivariateNormal::isotropic({0.0, 0.0}, 1.0)));
    EXPECT_TRUE(svb.totals().empty());
    // Every component sits at the base measure; weights decay along the
    // stick, so the first component dominates and the extract is finite.
    const MixturePrior extracted = svb.extract_prior();
    EXPECT_GE(extracted.num_components(), 1u);
    EXPECT_TRUE(std::isfinite(extracted.log_pdf({1.0, -1.0})));
}

TEST(StreamingVbBasics, RefreshChangesScoring) {
    stats::Rng data_rng(190);
    stats::Rng boot_rng(191);
    const std::vector<linalg::Vector> thetas = clustered_observations(data_rng, 8);
    StreamingVbConfig config = streaming_config();
    config.prior_strength = 4.0;
    StreamingVb svb(config, bootstrap_prior(thetas, boot_rng));

    StreamingSuffStats before = svb.make_stats();
    svb.accumulate(thetas[0], before);
    for (const auto& theta : thetas) ingest(svb, theta);
    svb.refresh_anchor();
    StreamingSuffStats after = svb.make_stats();
    svb.accumulate(thetas[0], after);
    EXPECT_NE(before, after) << "anchor refresh must change responsibility scoring";
}

TEST(StreamingVbValidation, RejectsBadConfigAndInputs) {
    const MixturePrior init =
        MixturePrior::single(stats::MultivariateNormal::isotropic({0.0, 0.0}, 1.0));
    StreamingVbConfig bad = streaming_config();
    bad.truncation = 1;
    EXPECT_THROW(StreamingVb(bad, init), std::invalid_argument);
    bad = streaming_config();
    bad.alpha = 0.0;
    EXPECT_THROW(StreamingVb(bad, init), std::invalid_argument);
    bad = streaming_config();
    bad.prior_strength = -1.0;
    EXPECT_THROW(StreamingVb(bad, init), std::invalid_argument);

    const MixturePrior mismatched =
        MixturePrior::single(stats::MultivariateNormal::isotropic({0.0, 0.0, 0.0}, 1.0));
    EXPECT_THROW(StreamingVb(streaming_config(), mismatched), std::invalid_argument);

    StreamingVb svb(streaming_config(), init);
    StreamingSuffStats stats = svb.make_stats();
    EXPECT_THROW(svb.accumulate({1.0, 2.0, 3.0}, stats), std::invalid_argument);
    EXPECT_THROW(
        svb.accumulate({std::numeric_limits<double>::quiet_NaN(), 0.0}, stats),
        std::invalid_argument);
    StreamingSuffStats wrong_shape;
    wrong_shape.counts.assign(3, 0);
    wrong_shape.sums.assign(6, 0);
    EXPECT_THROW(svb.accumulate({1.0, 2.0}, wrong_shape), std::invalid_argument);
    EXPECT_THROW(stats.merge(wrong_shape), std::invalid_argument);
}

}  // namespace
}  // namespace drel::dp
