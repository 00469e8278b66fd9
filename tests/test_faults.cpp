// Chaos suite for the deterministic fault-injection layer (edgesim/faults.hpp)
// and the simulators' graceful-degradation paths.
//
// The contract under test: for ANY FaultConfig (rates up to 1.0 across the
// board) and any seed, both simulators terminate without throwing, report a
// DegradedReason per device instead of dying, stay bit-identical across
// thread counts, and degrade monotonically as the fault rate rises.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/em_dro.hpp"
#include "dp/mixture_prior.hpp"
#include "dro/ambiguity.hpp"
#include "edgesim/faults.hpp"
#include "edgesim/lifecycle.hpp"
#include "edgesim/membership.hpp"
#include "edgesim/simulation.hpp"
#include "edgesim/transfer.hpp"
#include "models/loss.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::edgesim {
namespace {

using test_support::bits_equal;

// ------------------------------------------------------------- config layer

TEST(FaultConfig, ValidationRejectsNonPhysicalValues) {
    FaultConfig config;
    EXPECT_NO_THROW(config.validate());

    config = FaultConfig{};
    config.crash_prob = 1.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = FaultConfig{};
    config.upload_fail_prob = -0.2;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = FaultConfig{};
    config.max_upload_attempts = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = FaultConfig{};
    config.upload_backoff_base_seconds = -1.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = FaultConfig{};
    config.upload_backoff_jitter = 2.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = FaultConfig{};
    config.round_deadline_seconds = -1.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    // The plan constructor enforces the same contract.
    FaultConfig bad;
    bad.straggler_prob = 7.0;
    stats::Rng rng(1);
    EXPECT_THROW(FaultPlan(bad, rng), std::invalid_argument);
}

TEST(FaultConfig, UniformClampsAndSetsEveryRate) {
    const FaultConfig half = FaultConfig::uniform(0.5);
    EXPECT_DOUBLE_EQ(half.crash_prob, 0.5);
    EXPECT_DOUBLE_EQ(half.upload_garble_prob, 0.5);
    EXPECT_TRUE(half.any());

    const FaultConfig clamped = FaultConfig::uniform(3.0);
    EXPECT_DOUBLE_EQ(clamped.crash_prob, 1.0);
    EXPECT_NO_THROW(clamped.validate());
    EXPECT_FALSE(FaultConfig::uniform(-1.0).any());
}

TEST(DegradedReasonNames, AreStableLowercase) {
    EXPECT_STREQ(to_string(DegradedReason::kNone), "none");
    EXPECT_STREQ(to_string(DegradedReason::kCrashed), "crashed");
    EXPECT_STREQ(to_string(DegradedReason::kStraggler), "straggler");
    EXPECT_STREQ(to_string(DegradedReason::kFallbackLocalErm), "fallback_local_erm");
    EXPECT_STREQ(to_string(DegradedReason::kStalePrior), "stale_prior");
    EXPECT_STREQ(to_string(DegradedReason::kUploadDropped), "upload_dropped");
    EXPECT_STREQ(to_string(DegradedReason::kNonFinite), "non_finite");
}

// --------------------------------------------------------------- plan layer

TEST(FaultPlan, InactiveByDefaultAndWhenAllRatesZero) {
    const FaultPlan inactive;
    EXPECT_FALSE(inactive.active());
    const DeviceFaultDecision d = inactive.device_faults(3, 7);
    EXPECT_FALSE(d.crash || d.straggler || d.prior_corrupt || d.prior_stale ||
                 d.link_outage);
    const UploadOutcome up = inactive.upload_outcome(3, 7);
    EXPECT_TRUE(up.delivered);
    EXPECT_EQ(up.attempts, 1);
    EXPECT_EQ(up.retries, 0);

    stats::Rng rng(5);
    const FaultPlan zeros(FaultConfig{}, rng);
    EXPECT_FALSE(zeros.active());
}

TEST(FaultPlan, DecisionsArePureFunctionsOfTheCell) {
    stats::Rng rng(11);
    const FaultPlan plan(FaultConfig::uniform(0.4), rng);
    const FaultPlan twin(FaultConfig::uniform(0.4), rng);

    // Any query order, any repetition: the same cell always answers the same.
    const DeviceFaultDecision first = plan.device_faults(2, 5);
    (void)plan.device_faults(9, 0);
    (void)plan.upload_outcome(1, 1);
    const DeviceFaultDecision again = plan.device_faults(2, 5);
    EXPECT_EQ(first.crash, again.crash);
    EXPECT_EQ(first.straggler, again.straggler);
    EXPECT_EQ(first.prior_corrupt, again.prior_corrupt);
    EXPECT_EQ(first.prior_stale, again.prior_stale);
    EXPECT_EQ(first.link_outage, again.link_outage);
    EXPECT_TRUE(bits_equal(first.corrupt_position, again.corrupt_position));

    // A twin plan built from the same base stream agrees everywhere...
    for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t device = 0; device < 16; ++device) {
            const DeviceFaultDecision a = plan.device_faults(round, device);
            const DeviceFaultDecision b = twin.device_faults(round, device);
            EXPECT_EQ(a.crash, b.crash);
            EXPECT_EQ(a.link_outage, b.link_outage);
            const UploadOutcome ua = plan.upload_outcome(round, device);
            const UploadOutcome ub = twin.upload_outcome(round, device);
            EXPECT_EQ(ua.delivered, ub.delivered);
            EXPECT_EQ(ua.attempts, ub.attempts);
            EXPECT_TRUE(bits_equal(ua.simulated_seconds, ub.simulated_seconds));
        }
    }

    // ...while a different plan seed draws a different pattern.
    FaultConfig reseeded = FaultConfig::uniform(0.4);
    reseeded.seed = 99;
    const FaultPlan other(reseeded, rng);
    bool any_difference = false;
    for (std::size_t device = 0; device < 64 && !any_difference; ++device) {
        const DeviceFaultDecision a = plan.device_faults(0, device);
        const DeviceFaultDecision b = other.device_faults(0, device);
        any_difference = a.crash != b.crash || a.straggler != b.straggler ||
                         a.link_outage != b.link_outage;
    }
    EXPECT_TRUE(any_difference);
}

// ---------------------------------------------------- published fault cell

/// A decision no honest draw produces (corrupt_position is a uniform in
/// [0, 1)), so a query that returns it was served from the scope.
DeviceFaultDecision marked_decision() {
    DeviceFaultDecision marked;
    marked.crash = true;
    marked.corrupt_position = 7.0;
    return marked;
}

bool same_decision(const DeviceFaultDecision& a, const DeviceFaultDecision& b) {
    return a.crash == b.crash && a.straggler == b.straggler &&
           a.prior_corrupt == b.prior_corrupt && a.prior_stale == b.prior_stale &&
           a.link_outage == b.link_outage && bits_equal(a.corrupt_position, b.corrupt_position);
}

TEST(FaultPlanScopedCell, ServesOnlyThePublishedCellOfThePublishingPlan) {
    stats::Rng rng(41);
    const FaultPlan plan(FaultConfig::uniform(0.3), rng);
    const FaultPlan twin(FaultConfig::uniform(0.3), rng);
    const FaultPlan inactive;
    const DeviceFaultDecision drawn = plan.device_faults(3, 8);
    const DeviceFaultDecision other_device = plan.device_faults(3, 9);
    const DeviceFaultDecision other_round = plan.device_faults(4, 8);
    const DeviceFaultDecision marked = marked_decision();
    {
        const FaultPlan::ScopedCell cell(plan, 3, 8, marked);
        EXPECT_TRUE(same_decision(plan.device_faults(3, 8), marked));
        // Any other cell, another plan (even one with identical draws) or
        // an inactive plan recomputes.
        EXPECT_TRUE(same_decision(plan.device_faults(3, 9), other_device));
        EXPECT_TRUE(same_decision(plan.device_faults(4, 8), other_round));
        EXPECT_TRUE(same_decision(twin.device_faults(3, 8), drawn));
        const FaultPlan::ScopedCell inactive_cell(inactive, 3, 8, marked);
        EXPECT_TRUE(same_decision(inactive.device_faults(3, 8), DeviceFaultDecision{}));
    }
    // Nothing is cached once the scope has ended.
    EXPECT_TRUE(same_decision(plan.device_faults(3, 8), drawn));
}

TEST(FaultPlanScopedCell, NestedScopesRestoreTheOuterCell) {
    stats::Rng rng(43);
    const FaultPlan outer_plan(FaultConfig::uniform(0.3), rng);
    const FaultPlan inner_plan(FaultConfig::uniform(0.6), rng);
    DeviceFaultDecision outer_mark = marked_decision();
    DeviceFaultDecision inner_mark = marked_decision();
    inner_mark.corrupt_position = 9.0;
    {
        const FaultPlan::ScopedCell outer(outer_plan, 0, 1, outer_mark);
        {
            // A nested engine run publishes its own cells on this thread.
            const FaultPlan::ScopedCell inner(inner_plan, 0, 1, inner_mark);
            EXPECT_TRUE(same_decision(inner_plan.device_faults(0, 1), inner_mark));
            EXPECT_FALSE(same_decision(outer_plan.device_faults(0, 1), outer_mark));
        }
        EXPECT_TRUE(same_decision(outer_plan.device_faults(0, 1), outer_mark));
        EXPECT_FALSE(same_decision(inner_plan.device_faults(0, 1), inner_mark));
    }
    EXPECT_FALSE(same_decision(outer_plan.device_faults(0, 1), outer_mark));
}

TEST(FaultPlanScopedCell, IsInvisibleToOtherThreads) {
    stats::Rng rng(47);
    const FaultPlan plan(FaultConfig::uniform(0.3), rng);
    const DeviceFaultDecision drawn = plan.device_faults(2, 2);
    const FaultPlan::ScopedCell cell(plan, 2, 2, marked_decision());
    DeviceFaultDecision seen_elsewhere;
    std::thread other([&] { seen_elsewhere = plan.device_faults(2, 2); });
    other.join();
    EXPECT_TRUE(same_decision(seen_elsewhere, drawn));
    EXPECT_TRUE(same_decision(plan.device_faults(2, 2), marked_decision()));
}

TEST(FaultPlan, FaultSetsGrowMonotonicallyInTheRate) {
    stats::Rng rng(13);
    const std::vector<double> rates = {0.05, 0.2, 0.5, 0.9};
    std::vector<FaultPlan> plans;
    for (const double rate : rates) plans.emplace_back(FaultConfig::uniform(rate), rng);

    for (std::size_t i = 0; i + 1 < plans.size(); ++i) {
        for (std::size_t round = 0; round < 3; ++round) {
            for (std::size_t device = 0; device < 32; ++device) {
                const DeviceFaultDecision lo = plans[i].device_faults(round, device);
                const DeviceFaultDecision hi = plans[i + 1].device_faults(round, device);
                // Same cell, same uniforms, higher thresholds: every fault
                // present at the lower rate must persist at the higher one.
                EXPECT_LE(lo.crash, hi.crash);
                EXPECT_LE(lo.straggler, hi.straggler);
                EXPECT_LE(lo.prior_corrupt, hi.prior_corrupt);
                EXPECT_LE(lo.prior_stale, hi.prior_stale);
                EXPECT_LE(lo.link_outage, hi.link_outage);
            }
        }
    }
}

TEST(ChurnPlanMonotonicity, ChurnSetsGrowMonotonicallyInTheRate) {
    // The membership layer's churn plan rides the same contract as the
    // fault plan: one unconditional uniform per slot per cell, so at a
    // fixed seed raising the churn rate only ever ADDS events — a lower
    // rate's join/leave/loss/rejoin set is a subset of a higher rate's.
    stats::Rng rng(13);
    const std::vector<double> rates = {0.05, 0.2, 0.5, 0.9};
    std::vector<ChurnPlan> plans;
    for (const double rate : rates) plans.emplace_back(ChurnConfig::uniform(rate), rng);

    for (std::size_t i = 0; i + 1 < plans.size(); ++i) {
        for (std::size_t round = 0; round < 3; ++round) {
            for (std::size_t device = 0; device < 32; ++device) {
                const DeviceChurnDecision lo = plans[i].device_churn(round, device);
                const DeviceChurnDecision hi = plans[i + 1].device_churn(round, device);
                EXPECT_LE(lo.join, hi.join);
                EXPECT_LE(lo.leave, hi.leave);
                EXPECT_LE(lo.heartbeat_lost, hi.heartbeat_lost);
                EXPECT_LE(lo.rejoin, hi.rejoin);
            }
        }
    }

    // And raising ONE probability never re-rolls another slot's decision:
    // a leave-only sweep leaves the rejoin pattern of a mixed config intact.
    ChurnConfig mixed;
    mixed.leave_prob = 0.2;
    mixed.rejoin_prob = 0.4;
    ChurnConfig heavier = mixed;
    heavier.leave_prob = 0.8;
    const ChurnPlan a(mixed, rng);
    const ChurnPlan b(heavier, rng);
    for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t device = 0; device < 32; ++device) {
            const DeviceChurnDecision da = a.device_churn(round, device);
            const DeviceChurnDecision db = b.device_churn(round, device);
            EXPECT_EQ(da.rejoin, db.rejoin);
            EXPECT_LE(da.leave, db.leave);
        }
    }
}

TEST(FaultPlan, UploadRetriesBackOffAndRespectTheDeadline) {
    FaultConfig config;
    config.upload_fail_prob = 1.0;        // every attempt fails
    config.max_upload_attempts = 4;
    config.upload_backoff_base_seconds = 0.5;
    config.upload_backoff_jitter = 0.0;   // exact backoff arithmetic
    stats::Rng rng(17);
    const FaultPlan plan(config, rng);

    const UploadOutcome up = plan.upload_outcome(0, 0);
    EXPECT_FALSE(up.delivered);
    EXPECT_EQ(up.attempts, 4);
    EXPECT_EQ(up.retries, 3);
    // Backoffs 0.5, 1.0, 2.0 accrue between the four attempts.
    EXPECT_TRUE(bits_equal(up.simulated_seconds, 3.5));

    // A tight deadline cuts the retry loop short instead of hanging.
    config.round_deadline_seconds = 1.0;
    const FaultPlan strict(config, rng);
    const UploadOutcome capped = strict.upload_outcome(0, 0);
    EXPECT_FALSE(capped.delivered);
    EXPECT_EQ(capped.attempts, 2);        // 0.5 + 1.0 > deadline after attempt 2
    EXPECT_LE(capped.simulated_seconds, 1.0 + 0.5 + 1.0);

    // Zero fail probability delivers on the first attempt, garble or not.
    FaultConfig clean;
    clean.upload_garble_prob = 1.0;
    const FaultPlan garbler(clean, rng);
    const UploadOutcome delivered = garbler.upload_outcome(2, 3);
    EXPECT_TRUE(delivered.delivered);
    EXPECT_TRUE(delivered.garbled);
    EXPECT_EQ(delivered.attempts, 1);
}

TEST(FaultPlan, CorruptedPayloadNeverDecodes) {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({1.0, -1.0}, 0.3));
    const dp::MixturePrior prior({1.0}, std::move(atoms));
    const std::vector<std::uint8_t> payload = encode_prior(prior);

    stats::Rng rng(19);
    const FaultPlan plan(FaultConfig::uniform(0.5), rng);
    for (std::size_t device = 0; device < 8; ++device) {
        DeviceFaultDecision decision = plan.device_faults(0, device);
        const std::vector<std::uint8_t> garbled =
            plan.corrupt_payload(payload, decision);
        ASSERT_EQ(garbled.size(), payload.size());
        EXPECT_NE(garbled, payload);
        // The strict decoder must reject it — the tolerant path reports the
        // rejection instead of raising.
        EXPECT_FALSE(try_decode_prior(garbled).has_value());
    }
}

// ----------------------------------------------------- solver degradation

TEST(EmDroDegradation, NonFiniteStateIsReportedNotThrown) {
    const test_support::PopulationFixture f =
        test_support::make_population_fixture(/*seed=*/23, /*n_train=*/12, /*n_test=*/40);
    // A degenerate prior atom: variance so small the quadratic form
    // overflows at any theta away from the mean, driving log_pdf to -inf.
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic(
        std::vector<double>(f.train.dim(), 40.0), 1e-308));
    const dp::MixturePrior degenerate({1.0}, std::move(atoms));

    const auto loss = models::make_logistic_loss();
    const core::EmDroSolver solver(f.train, *loss, degenerate,
                                   dro::AmbiguitySet::wasserstein(0.1),
                                   /*transfer_weight=*/2.0);
    core::EmDroResult result;
    ASSERT_NO_THROW(result = solver.solve_from(linalg::zeros(f.train.dim())));
    EXPECT_TRUE(result.hit_non_finite);
    // The reported iterate is the last finite one — the start itself here.
    for (const double v : result.theta) EXPECT_TRUE(std::isfinite(v));

    // A non-finite start is caught the same way.
    linalg::Vector nan_start = linalg::zeros(f.train.dim());
    nan_start[0] = std::numeric_limits<double>::quiet_NaN();
    const core::EmDroSolver healthy(f.train, *loss, f.prior,
                                    dro::AmbiguitySet::wasserstein(0.1), 2.0);
    ASSERT_NO_THROW(result = healthy.solve_from(nan_start));
    EXPECT_TRUE(result.hit_non_finite);

    // Multi-start solve() prefers any finite candidate over non-finite ones.
    const core::EmDroResult best = healthy.solve();
    EXPECT_FALSE(best.hit_non_finite);
}

// ------------------------------------------------------------ fleet chaos

edgesim::SimulationConfig chaos_fleet_config() {
    edgesim::SimulationConfig config = test_support::small_fleet_config();
    config.run_ensemble = false;   // keep the chaos loop fast
    config.num_edge_devices = 10;
    return config;
}

TEST(FleetChaos, FullFaultRateNeverThrowsAndEveryDeviceDegrades) {
    edgesim::SimulationConfig config = chaos_fleet_config();
    config.faults = FaultConfig::uniform(1.0);
    stats::Rng rng(101);
    FleetReport report;
    ASSERT_NO_THROW(report = run_fleet_simulation(config, rng));
    ASSERT_EQ(report.devices.size(), config.num_edge_devices);
    EXPECT_EQ(report.degraded_devices(), config.num_edge_devices);
    for (const auto& device : report.devices) {
        // crash_prob = 1 crashes everyone; the score is the untrained floor.
        EXPECT_EQ(device.degraded, DegradedReason::kCrashed);
        EXPECT_TRUE(bits_equal(device.em_dro_accuracy, device.untrained_accuracy));
    }
}

TEST(FleetChaos, BitIdenticalAcrossThreadCounts) {
    edgesim::SimulationConfig config = chaos_fleet_config();
    config.faults = FaultConfig::uniform(0.5);

    std::vector<FleetReport> reports;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        config.num_threads = threads;
        stats::Rng rng(103);
        reports.push_back(run_fleet_simulation(config, rng));
    }
    const FleetReport& base = reports.front();
    for (std::size_t r = 1; r < reports.size(); ++r) {
        const FleetReport& other = reports[r];
        ASSERT_EQ(base.devices.size(), other.devices.size());
        for (std::size_t j = 0; j < base.devices.size(); ++j) {
            EXPECT_EQ(base.devices[j].degraded, other.devices[j].degraded) << j;
            EXPECT_TRUE(bits_equal(base.devices[j].em_dro_accuracy,
                                   other.devices[j].em_dro_accuracy)) << j;
            EXPECT_TRUE(bits_equal(base.devices[j].local_erm_accuracy,
                                   other.devices[j].local_erm_accuracy)) << j;
            EXPECT_TRUE(bits_equal(base.devices[j].untrained_accuracy,
                                   other.devices[j].untrained_accuracy)) << j;
        }
    }
}

TEST(FleetChaos, FallbackDevicesScoreAtLeastTheUntrainedBaseline) {
    edgesim::SimulationConfig config = chaos_fleet_config();
    config.faults.link_outage_prob = 1.0;   // nobody gets a prior
    stats::Rng rng(107);
    const FleetReport report = run_fleet_simulation(config, rng);
    for (const auto& device : report.devices) {
        EXPECT_EQ(device.degraded, DegradedReason::kFallbackLocalErm);
        // Graceful degradation must leave the device no worse than never
        // having trained at all.
        EXPECT_GE(device.em_dro_accuracy, device.untrained_accuracy);
    }

    // A corrupted broadcast payload lands on the same fallback path.
    edgesim::SimulationConfig corrupt = chaos_fleet_config();
    corrupt.faults.prior_corrupt_prob = 1.0;
    stats::Rng rng2(107);
    const FleetReport corrupted = run_fleet_simulation(corrupt, rng2);
    for (const auto& device : corrupted.devices) {
        EXPECT_EQ(device.degraded, DegradedReason::kFallbackLocalErm);
    }
}

TEST(FleetChaos, MeanAccuracyDegradesMonotonicallyInCrashRate) {
    // Crashes replace a trained score with the untrained floor, and the
    // crashed set grows monotonically in the rate (fixed seed), so the
    // fleet mean can only fall as the rate rises.
    const std::vector<double> rates = {0.0, 0.1, 0.25, 0.5, 0.75, 1.0};
    std::vector<double> means;
    std::vector<std::size_t> degraded;
    for (const double rate : rates) {
        edgesim::SimulationConfig config = chaos_fleet_config();
        config.faults.crash_prob = rate;
        stats::Rng rng(109);
        const FleetReport report = run_fleet_simulation(config, rng);
        means.push_back(report.mean_em_dro_accuracy());
        degraded.push_back(report.degraded_devices());
    }
    for (std::size_t i = 0; i + 1 < rates.size(); ++i) {
        EXPECT_LE(means[i + 1], means[i] + 1e-12)
            << "rate " << rates[i] << " -> " << rates[i + 1];
        EXPECT_GE(degraded[i + 1], degraded[i]);
    }
    EXPECT_GT(means.front(), means.back());  // chaos actually bites
}

TEST(FleetChaos, EnablingFaultsNeverPerturbsHealthyDevices) {
    // The plan draws from its own forked stream, so devices the plan leaves
    // alone must score bit-identically to the fault-free world.
    edgesim::SimulationConfig clean = chaos_fleet_config();
    stats::Rng rng_clean(113);
    const FleetReport healthy = run_fleet_simulation(clean, rng_clean);

    edgesim::SimulationConfig faulty = chaos_fleet_config();
    faulty.faults.crash_prob = 0.3;
    stats::Rng rng_faulty(113);
    const FleetReport chaotic = run_fleet_simulation(faulty, rng_faulty);

    ASSERT_EQ(healthy.devices.size(), chaotic.devices.size());
    std::size_t untouched = 0;
    for (std::size_t j = 0; j < healthy.devices.size(); ++j) {
        if (chaotic.devices[j].degraded == DegradedReason::kNone) {
            ++untouched;
            EXPECT_TRUE(bits_equal(healthy.devices[j].em_dro_accuracy,
                                   chaotic.devices[j].em_dro_accuracy)) << j;
        }
    }
    EXPECT_GT(untouched, 0u);
}

// -------------------------------------------------------- lifecycle chaos

LifecycleConfig chaos_lifecycle_config() {
    LifecycleConfig config;
    config.feature_dim = 5;
    config.initial_modes = 2;
    config.initial_contributors = 10;
    config.contributor_samples = 150;
    config.rounds = 3;
    config.devices_per_round = 5;
    config.edge_samples = 12;
    config.test_samples = 300;
    config.gibbs_sweeps = 30;
    config.novel_mode_round = 1;
    config.learner.em.max_outer_iterations = 8;
    return config;
}

TEST(LifecycleChaos, FullFaultRateNeverThrows) {
    LifecycleConfig config = chaos_lifecycle_config();
    config.faults = FaultConfig::uniform(1.0);
    stats::Rng rng(211);
    LifecycleReport report;
    ASSERT_NO_THROW(report = run_lifecycle(config, rng));
    ASSERT_EQ(report.rounds.size(), config.rounds);
    for (const auto& round : report.rounds) {
        // crash_prob = 1: every device dies; nothing is scored or uploaded.
        EXPECT_EQ(round.crashed, config.devices_per_round);
        EXPECT_EQ(round.devices_scored, 0u);
        ASSERT_EQ(round.device_degraded.size(), config.devices_per_round);
        for (const DegradedReason reason : round.device_degraded) {
            EXPECT_EQ(reason, DegradedReason::kCrashed);
        }
    }
    EXPECT_EQ(report.total_upload_bytes, 0u);
}

TEST(LifecycleChaos, DroppedUploadsAreSkippedNotFatal) {
    LifecycleConfig config = chaos_lifecycle_config();
    config.faults.upload_fail_prob = 1.0;   // retries always exhaust
    stats::Rng rng(223);
    LifecycleReport report;
    ASSERT_NO_THROW(report = run_lifecycle(config, rng));
    std::size_t dropped = 0;
    for (const auto& round : report.rounds) {
        dropped += round.uploads_dropped;
        EXPECT_EQ(round.devices_scored, config.devices_per_round);
        for (const DegradedReason reason : round.device_degraded) {
            EXPECT_EQ(reason, DegradedReason::kUploadDropped);
        }
        // No upload ever lands, so the prior never drifts: no re-push after
        // the initial round-0 broadcast.
        if (round.round > 0) {
            EXPECT_FALSE(round.rebroadcast);
        }
    }
    EXPECT_EQ(dropped, config.rounds * config.devices_per_round);
    EXPECT_GT(report.total_upload_retries, 0u);
    // On-air bytes count every attempt, not just deliveries.
    EXPECT_GT(report.total_upload_bytes, 0u);
}

TEST(LifecycleChaos, GarbledUploadsAreRejectedByTheCloudGuard) {
    LifecycleConfig config = chaos_lifecycle_config();
    config.faults.upload_garble_prob = 1.0;   // delivered, but non-finite
    stats::Rng rng(227);
    LifecycleReport report;
    ASSERT_NO_THROW(report = run_lifecycle(config, rng));
    std::size_t garbled = 0;
    for (const auto& round : report.rounds) garbled += round.uploads_garbled;
    EXPECT_EQ(garbled, config.rounds * config.devices_per_round);
    for (const auto& round : report.rounds) {
        if (round.round > 0) {
            EXPECT_FALSE(round.rebroadcast);
        }
    }
}

TEST(LifecycleChaos, ModerateChaosIsDeterministicPerSeed) {
    LifecycleConfig config = chaos_lifecycle_config();
    config.faults = FaultConfig::uniform(0.4);
    stats::Rng rng_a(229);
    stats::Rng rng_b(229);
    const LifecycleReport a = run_lifecycle(config, rng_a);
    const LifecycleReport b = run_lifecycle(config, rng_b);
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    EXPECT_EQ(a.total_upload_bytes, b.total_upload_bytes);
    EXPECT_EQ(a.total_upload_retries, b.total_upload_retries);
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        EXPECT_TRUE(bits_equal(a.rounds[r].mean_accuracy, b.rounds[r].mean_accuracy));
        EXPECT_EQ(a.rounds[r].device_degraded, b.rounds[r].device_degraded);
        EXPECT_EQ(a.rounds[r].crashed, b.rounds[r].crashed);
        EXPECT_EQ(a.rounds[r].uploads_dropped, b.rounds[r].uploads_dropped);
    }
}

TEST(LifecycleChaos, StalePriorDevicesStillScore) {
    LifecycleConfig config = chaos_lifecycle_config();
    config.faults.prior_stale_prob = 1.0;
    stats::Rng rng(233);
    const LifecycleReport report = run_lifecycle(config, rng);
    for (const auto& round : report.rounds) {
        EXPECT_EQ(round.stale_priors, config.devices_per_round);
        EXPECT_EQ(round.devices_scored, config.devices_per_round);
        EXPECT_GT(round.mean_accuracy, 0.0);
    }
}

}  // namespace
}  // namespace drel::edgesim
