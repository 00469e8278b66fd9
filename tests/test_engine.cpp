// Tests for the event-driven fleet engine: the virtual-clock scheduler,
// SoA shards, the collision-free hierarchical RNG stream scheme (the fix
// for the round * 1000 + j sub-stream aliasing), the cloud server's
// admission control, and the engine's determinism contract — bit-identical
// reports across thread counts AND shard counts, with or without faults.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "edgesim/faults.hpp"
#include "edgesim/scheduler.hpp"
#include "edgesim/server.hpp"
#include "edgesim/shard.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::edgesim {
namespace {

using test_support::bits_equal;

// ------------------------------------------------------------ event queue

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue queue;
    queue.schedule(3.0, EventKind::kRoundEnd, 0);
    queue.schedule(1.0, EventKind::kRoundStart, 0);
    queue.schedule(2.0, EventKind::kUploadArrival, 0, 1);
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.pop().kind, EventKind::kRoundStart);
    EXPECT_EQ(queue.pop().kind, EventKind::kUploadArrival);
    EXPECT_EQ(queue.pop().kind, EventKind::kRoundEnd);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.total_scheduled(), 3u);
    EXPECT_EQ(queue.total_popped(), 3u);
}

TEST(EventQueue, EqualTimesBreakTiesByScheduleOrder) {
    // The determinism contract hinges on this: RoundEnd(r) schedules
    // RoundStart(r + 1) at the SAME virtual time, and FIFO tie-breaking is
    // what keeps the handlers in causal order.
    EventQueue queue;
    queue.schedule(5.0, EventKind::kRoundEnd, 7);
    queue.schedule(5.0, EventKind::kRoundStart, 8);
    queue.schedule(5.0, EventKind::kUploadArrival, 8, 2);
    EXPECT_EQ(queue.pop().kind, EventKind::kRoundEnd);
    EXPECT_EQ(queue.pop().kind, EventKind::kRoundStart);
    const Event last = queue.pop();
    EXPECT_EQ(last.kind, EventKind::kUploadArrival);
    EXPECT_EQ(last.shard, 2u);
}

TEST(EventQueue, ClockAdvancesAndRejectsThePast) {
    EventQueue queue;
    EXPECT_EQ(queue.now(), 0.0);
    queue.schedule(2.0, EventKind::kRoundStart, 0);
    EXPECT_EQ(queue.pop().time, 2.0);
    EXPECT_EQ(queue.now(), 2.0);
    EXPECT_THROW(queue.schedule(1.5, EventKind::kRoundEnd, 0), std::invalid_argument);
    EXPECT_NO_THROW(queue.schedule(2.0, EventKind::kRoundEnd, 0));  // "now" is fine
}

TEST(EventQueue, TracksTheHighWaterMark) {
    // The peak HEAP size, not the current one: the SLO wants to know how
    // deep the backlog ever got, and popping must never shrink the record.
    EventQueue queue;
    EXPECT_EQ(queue.high_water(), 0u);
    queue.schedule(1.0, EventKind::kRoundStart, 0);
    queue.schedule(2.0, EventKind::kUploadArrival, 0, 1);
    queue.schedule(3.0, EventKind::kUploadArrival, 0, 2);
    EXPECT_EQ(queue.high_water(), 3u);
    (void)queue.pop();
    (void)queue.pop();
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.high_water(), 3u);  // draining never lowers the mark
    queue.schedule(4.0, EventKind::kRoundEnd, 0);
    EXPECT_EQ(queue.high_water(), 3u);  // back to 2 live: no new peak
    queue.schedule(5.0, EventKind::kHeartbeatDeadline, 1);
    queue.schedule(6.0, EventKind::kRoundEnd, 1);
    EXPECT_EQ(queue.high_water(), 4u);  // a new, deeper backlog
}

TEST(EventQueue, RejectsNonFiniteTimesAndEmptyPop) {
    EventQueue queue;
    EXPECT_THROW(queue.schedule(std::numeric_limits<double>::quiet_NaN(),
                                EventKind::kRoundStart, 0),
                 std::invalid_argument);
    EXPECT_THROW(queue.schedule(std::numeric_limits<double>::infinity(),
                                EventKind::kRoundStart, 0),
                 std::invalid_argument);
    EXPECT_THROW(queue.pop(), std::logic_error);
}

// ------------------------------------------------- hierarchical RNG scheme

std::pair<std::uint64_t, std::uint64_t> stream_fingerprint(stats::Rng rng) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    std::uint64_t ua = 0;
    std::uint64_t ub = 0;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return {ua, ub};
}

TEST(StreamScheme, OldLinearTagsAliasedAcrossRounds) {
    // The bug this PR fixes: round_rng.fork(round * 1000 + j) maps
    // (round, 1000) and (round + 1, 0) to the SAME tag, so "independent"
    // devices shared a stream as soon as devices_per_round exceeded 1000.
    const stats::Rng round_rng(42);
    EXPECT_EQ(stream_fingerprint(round_rng.fork(0 * 1000 + 1000)),
              stream_fingerprint(round_rng.fork(1 * 1000 + 0)));
    // (And from round 90 the cloud tags 90000 + round collided with device
    // cells too: 90 * 1000 + 90 == 90000 + 90.)
    EXPECT_EQ(stream_fingerprint(round_rng.fork(90 * 1000 + 90)),
              stream_fingerprint(round_rng.fork(90000 + 90)));
}

TEST(StreamScheme, HierarchicalForksKeepThoseCellsDistinct) {
    const stats::Rng device_root = stats::Rng(42).fork(4);
    EXPECT_NE(stream_fingerprint(device_stream(device_root, 0, 1000, DeviceStream::kWork)),
              stream_fingerprint(device_stream(device_root, 1, 0, DeviceStream::kWork)));
    const stats::Rng server_root = stats::Rng(42).fork(5);
    EXPECT_NE(
        stream_fingerprint(device_stream(device_root, 90, 90, DeviceStream::kWork)),
        stream_fingerprint(server_stream(server_root, 90, ServerStream::kPosteriorUpdate)));
    EXPECT_NE(stream_fingerprint(device_stream(device_root, 3, 7, DeviceStream::kWork)),
              stream_fingerprint(device_stream(device_root, 3, 7, DeviceStream::kLatency)));
}

TEST(StreamScheme, NoDuplicateStreamsAtTwoThousandDevicesPerRound) {
    // The regression pinned by the issue: at devices_per_round = 2000 every
    // (round, device) work stream AND every cloud stream must draw
    // differently. Under the old linear tags, rounds 1 and 2 re-used half
    // of round 0's and 1's device streams wholesale.
    constexpr std::size_t kRounds = 3;
    constexpr std::size_t kDevices = 2000;
    const stats::Rng root(20240807);
    const stats::Rng device_root = root.fork(4);
    const stats::Rng server_root = root.fork(5);

    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    std::size_t inserted = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t device = 0; device < kDevices; ++device) {
            seen.insert(
                stream_fingerprint(device_stream(device_root, round, device,
                                                 DeviceStream::kWork)));
            ++inserted;
        }
        seen.insert(stream_fingerprint(
            server_stream(server_root, round, ServerStream::kPosteriorUpdate)));
        seen.insert(stream_fingerprint(
            server_stream(server_root, round, ServerStream::kKlEstimate)));
        inserted += 2;
    }
    EXPECT_EQ(seen.size(), inserted);
}

// ----------------------------------------------------------- shard layout

TEST(ShardLayout, PartitionIsContiguousAndBalanced) {
    const auto layouts = make_shard_layouts(10, 3);
    ASSERT_EQ(layouts.size(), 3u);
    std::size_t expected_begin = 0;
    for (std::size_t s = 0; s < layouts.size(); ++s) {
        EXPECT_EQ(layouts[s].index, s);
        EXPECT_EQ(layouts[s].begin, expected_begin);
        expected_begin = layouts[s].end;
        EXPECT_GE(layouts[s].size(), 3u);
        EXPECT_LE(layouts[s].size(), 4u);
    }
    EXPECT_EQ(expected_begin, 10u);
}

TEST(ShardLayout, MoreShardsThanDevicesLeavesEmptyShards) {
    const auto layouts = make_shard_layouts(2, 5);
    ASSERT_EQ(layouts.size(), 5u);
    EXPECT_EQ(layouts[0].size(), 1u);
    EXPECT_EQ(layouts[1].size(), 1u);
    for (std::size_t s = 2; s < 5; ++s) EXPECT_EQ(layouts[s].size(), 0u);
}

TEST(UploadSufficientStats, MergeMatchesDirectAccumulation) {
    stats::Rng rng(7);
    std::vector<linalg::Vector> thetas;
    for (int i = 0; i < 12; ++i) thetas.push_back(rng.standard_normal_vector(4));

    UploadStats direct;
    for (const auto& theta : thetas) direct.add(theta);

    UploadStats left;
    UploadStats right;
    for (std::size_t i = 0; i < thetas.size(); ++i) {
        (i < 5 ? left : right).add(thetas[i]);
    }
    left.merge(right);

    ASSERT_EQ(left.count, direct.count);
    for (std::size_t i = 0; i < 4; ++i) {
        // Same-order accumulation within each group; merging is exact for
        // counts and within double rounding for the sums.
        EXPECT_NEAR(left.sum[i], direct.sum[i], 1e-12);
        EXPECT_NEAR(left.sum_sq[i], direct.sum_sq[i], 1e-12);
    }
    EXPECT_THROW(direct.add(linalg::Vector(3, 0.0)), std::invalid_argument);
}

// ---------------------------------------------------------- engine runs

/// Cheap deterministic device work: everything derives from the device's
/// own forked stream, so any schedule must reproduce it bit-for-bit.
DeviceResult cheap_work(std::size_t /*round*/, std::size_t /*device*/, stats::Rng& work_rng,
                        std::size_t theta_dim) {
    DeviceResult result;
    result.accuracy = work_rng.uniform();
    result.scored = true;
    result.attempted_upload = true;
    result.upload_attempts = 1;
    result.upload_delivered = true;
    result.theta = work_rng.standard_normal_vector(theta_dim);
    return result;
}

EngineConfig small_engine_config() {
    EngineConfig config;
    config.rounds = 3;
    config.devices_per_round = 40;
    config.theta_dim = 3;
    config.num_shards = 4;
    config.num_threads = 1;
    return config;
}

EngineReport run_small_engine(EngineConfig config, const FaultConfig& faults = {}) {
    const stats::Rng root(99);
    const stats::Rng device_root = root.fork(4);
    const FaultPlan plan(faults, root);
    const std::size_t dim = config.theta_dim;
    const DeviceWork work = [dim](std::size_t round, std::size_t device,
                                  stats::Rng& work_rng, util::Workspace& /*ws*/) {
        return cheap_work(round, device, work_rng, dim);
    };
    const RoundEndFn round_end = [](std::size_t /*round*/, CloudServer& server) {
        (void)server.take_serviced_thetas();
        RoundEndDecision decision;
        decision.rebroadcast = true;
        decision.payload_bytes = 64;
        decision.prior_components = 2;
        return decision;
    };
    return run_fleet_engine(config, device_root, plan, work, round_end);
}

/// `same_partition` = the two runs used the same shard layout. One upload
/// batch flies per shard per round, so the batch-framing ledger
/// (batch_bytes) and the event count are functions of the PARTITION, not of
/// the schedule — they are only comparable when the layout matches. Every
/// semantic output (accuracy, device counts, latency, per-device bytes) must
/// be identical regardless.
void expect_reports_identical(const EngineReport& a, const EngineReport& b,
                              bool same_partition = true) {
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    EXPECT_EQ(a.total_broadcast_bytes, b.total_broadcast_bytes);
    EXPECT_EQ(a.total_upload_bytes, b.total_upload_bytes);
    EXPECT_EQ(a.total_upload_retries, b.total_upload_retries);
    EXPECT_EQ(a.total_backpressure_rejected, b.total_backpressure_rejected);
    EXPECT_TRUE(bits_equal(a.virtual_seconds, b.virtual_seconds));
    if (same_partition) {
        EXPECT_EQ(a.total_batch_bytes, b.total_batch_bytes);
        EXPECT_EQ(a.events_processed, b.events_processed);
    }
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        const EngineRoundStats& x = a.rounds[r];
        const EngineRoundStats& y = b.rounds[r];
        EXPECT_TRUE(bits_equal(x.mean_accuracy, y.mean_accuracy));
        EXPECT_TRUE(bits_equal(x.novel_mode_accuracy, y.novel_mode_accuracy));
        EXPECT_EQ(x.prior_components, y.prior_components);
        EXPECT_EQ(x.rebroadcast, y.rebroadcast);
        EXPECT_EQ(x.broadcast_bytes, y.broadcast_bytes);
        EXPECT_EQ(x.devices_scored, y.devices_scored);
        EXPECT_EQ(x.crashed, y.crashed);
        EXPECT_EQ(x.stragglers, y.stragglers);
        EXPECT_EQ(x.uploads_attempted, y.uploads_attempted);
        EXPECT_EQ(x.uploads_delivered, y.uploads_delivered);
        EXPECT_EQ(x.uploads_dropped, y.uploads_dropped);
        EXPECT_EQ(x.uploads_garbled, y.uploads_garbled);
        EXPECT_EQ(x.backpressure_rejected, y.backpressure_rejected);
        EXPECT_EQ(x.upload_bytes, y.upload_bytes);
        if (same_partition) {
            EXPECT_EQ(x.batch_bytes, y.batch_bytes);
        }
        EXPECT_EQ(x.upload_retries, y.upload_retries);
        EXPECT_TRUE(bits_equal(x.latency_p50_seconds, y.latency_p50_seconds));
        EXPECT_TRUE(bits_equal(x.latency_p99_seconds, y.latency_p99_seconds));
        EXPECT_TRUE(bits_equal(x.latency_p999_seconds, y.latency_p999_seconds));
        EXPECT_TRUE(bits_equal(x.latency_max_seconds, y.latency_max_seconds));
        EXPECT_EQ(x.device_degraded, y.device_degraded);
    }
}

TEST(FleetEngine, ReportIsBitIdenticalAcrossThreadCounts) {
    EngineConfig config = small_engine_config();
    const EngineReport baseline = run_small_engine(config);
    for (const std::size_t threads : {2u, 4u, 8u}) {
        config.num_threads = threads;
        expect_reports_identical(baseline, run_small_engine(config));
    }
}

TEST(FleetEngine, ReportIsBitIdenticalAcrossShardCounts) {
    EngineConfig config = small_engine_config();
    config.num_shards = 1;
    const EngineReport baseline = run_small_engine(config);
    for (const std::size_t shards : {3u, 8u, 40u}) {
        config.num_shards = shards;
        config.num_threads = 2;
        expect_reports_identical(baseline, run_small_engine(config),
                                 /*same_partition=*/false);
    }
}

TEST(FleetEngine, VirtualClockIsDeterministicAndCausal) {
    const EngineReport report = run_small_engine(small_engine_config());
    ASSERT_EQ(report.rounds.size(), 3u);
    // 3 RoundStarts + 3 RoundEnds + one arrival per non-empty shard batch.
    EXPECT_EQ(report.virtual_seconds, 3 * 60.0);
    EXPECT_GE(report.events_processed, 6u);
    // Every device scored and uploaded; bytes ledger is consistent.
    for (const EngineRoundStats& round : report.rounds) {
        EXPECT_EQ(round.devices_scored, 40u);
        EXPECT_GT(round.batch_bytes, 0u);
        EXPECT_EQ(round.upload_bytes, 40u * 3 * sizeof(double));
        EXPECT_GT(round.latency_max_seconds, 0.0);
        EXPECT_LE(round.latency_p50_seconds, round.latency_p99_seconds);
        EXPECT_LE(round.latency_p99_seconds, round.latency_max_seconds);
    }
}

TEST(FleetEngine, FinalRoundNeverChargesARebroadcast) {
    // The round-end policy above ALWAYS asks for a rebroadcast; the engine
    // must refuse it on the final round — there is no next fleet to push to.
    EngineConfig config = small_engine_config();
    config.initial_broadcast_bytes = 128;
    const EngineReport report = run_small_engine(config);
    ASSERT_EQ(report.rounds.size(), 3u);
    EXPECT_TRUE(report.rounds[0].rebroadcast);
    EXPECT_TRUE(report.rounds[1].rebroadcast);
    EXPECT_FALSE(report.rounds.back().rebroadcast);
    // initial + two (not three) per-device pushes of 64 bytes.
    EXPECT_EQ(report.total_broadcast_bytes, 128u + 2u * 64u * 40u);
    EXPECT_EQ(report.rounds.back().broadcast_bytes, 0u);
}

TEST(FleetEngine, BackpressureDegradesInsteadOfDropping) {
    EngineConfig config = small_engine_config();
    config.num_shards = 4;
    // A server that takes 40 virtual seconds per batch with room for one
    // queued batch: within a round, the first arrival is admitted, the
    // second queues, and the remaining two are rejected at admission.
    config.server.queue_capacity = 1;
    config.server.service_seconds_per_batch = 40.0;
    const EngineReport report = run_small_engine(config);
    EXPECT_GT(report.total_backpressure_rejected, 0u);
    std::size_t marked = 0;
    for (const EngineRoundStats& round : report.rounds) {
        for (const DegradedReason reason : round.device_degraded) {
            if (reason == DegradedReason::kBackpressure) ++marked;
        }
        // Degradation, not loss of the round: every device still scored.
        EXPECT_EQ(round.devices_scored, 40u);
    }
    EXPECT_EQ(marked, report.total_backpressure_rejected);

    // Fixed shard count: the backpressure pattern is still deterministic
    // across thread counts.
    EngineConfig threaded = config;
    threaded.num_threads = 4;
    expect_reports_identical(report, run_small_engine(threaded));
}

TEST(FleetEngineChaos, FaultPlanReusedUnchangedAndDeterministic) {
    // The PR 4 fault plan rides along untouched: decisions stay pure
    // functions of (round, device), so a chaos engine run is exactly
    // reproducible and thread-count independent.
    EngineConfig config = small_engine_config();
    const FaultConfig faults = FaultConfig::uniform(0.3);
    const EngineReport a = run_small_engine(config, faults);
    config.num_threads = 4;
    const EngineReport b = run_small_engine(config, faults);
    expect_reports_identical(a, b);

    std::size_t crashed = 0;
    for (const EngineRoundStats& round : a.rounds) {
        crashed += round.crashed;
        for (std::size_t j = 0; j < round.device_degraded.size(); ++j) {
            // The engine's record must agree with the plan's pure decision.
            const stats::Rng root(99);
            const FaultPlan plan(faults, root);
            if (plan.device_faults(round.round, j).crash) {
                EXPECT_EQ(round.device_degraded[j], DegradedReason::kCrashed);
            }
        }
    }
    EXPECT_GT(crashed, 0u);
}

// ------------------------------------------------------ fleet telemetry

/// Serialized byte-identity surface: the partition-independent telemetry
/// block plus its SLO report, exactly what the golden test pins.
std::string telemetry_fingerprint(const EngineReport& report) {
    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.telemetry);
    return report.telemetry.to_json(&slo, /*include_partition=*/false).dump(0);
}

TEST(FleetHealth, TelemetryIsByteIdenticalAcrossThreadAndShardCounts) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    // Chaos faults exercise every degraded column; the health block must
    // still be a pure function of the seed, not of the execution geometry.
    const FaultConfig faults = FaultConfig::uniform(0.3);
    const EngineReport baseline = run_small_engine(small_engine_config(), faults);
    ASSERT_EQ(baseline.telemetry.series.num_rows(), 3u);
    EXPECT_GT(baseline.telemetry.upload_latency_ms.count, 0u);
    const std::string expected = telemetry_fingerprint(baseline);

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        EngineConfig config = small_engine_config();
        config.num_threads = threads;
        EXPECT_EQ(telemetry_fingerprint(run_small_engine(config, faults)), expected)
            << "threads=" << threads;
    }
    for (const std::size_t shards : {1u, 3u, 8u, 40u}) {
        EngineConfig config = small_engine_config();
        config.num_shards = shards;
        config.num_threads = 2;
        EXPECT_EQ(telemetry_fingerprint(run_small_engine(config, faults)), expected)
            << "shards=" << shards;
    }
}

TEST(FleetHealth, SeriesRowsMatchTheRoundStats) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    using health::FleetCol;
    using health::idx;
    const EngineReport report = run_small_engine(small_engine_config());
    const obs::RoundSeries& series = report.telemetry.series;
    ASSERT_EQ(series.num_rows(), report.rounds.size());
    for (std::size_t r = 0; r < report.rounds.size(); ++r) {
        const EngineRoundStats& stats = report.rounds[r];
        EXPECT_EQ(series.at(r, idx(FleetCol::kRound)), stats.round);
        EXPECT_EQ(series.at(r, idx(FleetCol::kVirtualCloseMs)), (r + 1) * 60'000u);
        EXPECT_EQ(series.at(r, idx(FleetCol::kDevices)), 40u);
        EXPECT_EQ(series.at(r, idx(FleetCol::kHealthy)), 40u);
        EXPECT_EQ(series.at(r, idx(FleetCol::kDegraded)), 0u);
        EXPECT_EQ(series.at(r, idx(FleetCol::kUploadsAttempted)), stats.uploads_attempted);
        EXPECT_EQ(series.at(r, idx(FleetCol::kUploadsDelivered)), stats.uploads_delivered);
        EXPECT_EQ(series.at(r, idx(FleetCol::kUploadBytes)), stats.upload_bytes);
        EXPECT_EQ(series.at(r, idx(FleetCol::kBroadcastBytes)), stats.broadcast_bytes);
        EXPECT_EQ(series.at(r, idx(FleetCol::kRebroadcast)),
                  stats.rebroadcast ? 1u : 0u);
        // Virtual-clock ms mirror of the double-valued latency stats.
        EXPECT_LE(series.at(r, idx(FleetCol::kLatencyP50Ms)),
                  series.at(r, idx(FleetCol::kLatencyP99Ms)));
        EXPECT_LE(series.at(r, idx(FleetCol::kLatencyP99Ms)),
                  series.at(r, idx(FleetCol::kLatencyMaxMs)));
        EXPECT_GT(series.at(r, idx(FleetCol::kLatencyMaxMs)), 0u);
    }
    // A fault-free fleet with a fast server passes the default SLOs.
    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.telemetry);
    EXPECT_EQ(slo.verdict, health::Verdict::kPass);
    // Every delivered upload lands in the latency histogram.
    EXPECT_EQ(report.telemetry.upload_latency_ms.count, 3u * 40u);
}

TEST(FleetHealth, SlowServerTripsTheBackpressureSlo) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    // The BackpressureDegradesInsteadOfDropping geometry: one queued batch,
    // 40-second service. Per round one batch is admitted, one queues, and
    // two are rejected — a 50% rejection rate the default SLO must FAIL and
    // pin to the first round.
    EngineConfig config = small_engine_config();
    config.server.queue_capacity = 1;
    config.server.service_seconds_per_batch = 40.0;
    const EngineReport report = run_small_engine(config);
    ASSERT_GT(report.total_backpressure_rejected, 0u);

    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.telemetry);
    EXPECT_EQ(slo.verdict, health::Verdict::kFail);
    bool saw_rule = false;
    for (const health::SloResult& rule : slo.rules) {
        if (rule.name != "backpressure_rejection_rate") continue;
        saw_rule = true;
        EXPECT_EQ(rule.verdict, health::Verdict::kFail);
        EXPECT_GE(rule.observed, 0.05);
        ASSERT_TRUE(rule.has_round);
        EXPECT_EQ(rule.first_violating_round, 0u);
    }
    EXPECT_TRUE(saw_rule);
}

TEST(FleetHealth, QueueDepthColumnCarriesThePeakSettledDepth) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    using health::FleetCol;
    using health::idx;
    // A zero-service server completes every batch at its arrival instant:
    // the settled depth never exceeds 0, even though batches transit the
    // queue — the column must NOT report phantom depth.
    const EngineReport healthy = run_small_engine(small_engine_config());
    for (std::size_t r = 0; r < healthy.telemetry.series.num_rows(); ++r) {
        EXPECT_EQ(healthy.telemetry.series.at(r, idx(FleetCol::kQueueDepthAtClose)), 0u);
    }
    // A slow server with queueing room builds a real backlog WITHIN the
    // round. Before the high-water change this column read the depth at
    // close (drained back down by then on mild backlogs); now it records
    // the round's peak, which the 40-second service time pins at >= 1.
    EngineConfig config = small_engine_config();
    config.server.queue_capacity = 4;
    config.server.service_seconds_per_batch = 40.0;
    const EngineReport backlogged = run_small_engine(config);
    EXPECT_GT(backlogged.telemetry.series.column_max(idx(FleetCol::kQueueDepthAtClose)),
              0u);
    // The scheduler's own backlog is surfaced alongside: every run holds at
    // least a round-end behind the arrivals in flight.
    EXPECT_GT(backlogged.max_event_queue_depth, 0u);
}

TEST(FleetHealth, FlightRecorderDumpsWhenEnvSet) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    const std::string path = ::testing::TempDir() + "drel_engine_flight.json";
    std::remove(path.c_str());
    ASSERT_EQ(::setenv("DREL_FLIGHT_RECORDER", path.c_str(), 1), 0);
    EngineConfig config = small_engine_config();
    config.flight_recorder_capacity = 8;
    (void)run_small_engine(config);
    ASSERT_EQ(::unsetenv("DREL_FLIGHT_RECORDER"), 0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const obs::JsonValue doc = obs::JsonValue::parse(buffer.str());
    EXPECT_EQ(doc.at("capacity").as_uint(), 8u);
    // 3 starts + 3 ends + >= 1 arrival: more events than the ring holds.
    EXPECT_GT(doc.at("total_recorded").as_uint(), 8u);
    const auto& events = doc.at("events").as_array();
    ASSERT_EQ(events.size(), 8u);
    // The tail of the run ends at the final round's close.
    EXPECT_EQ(events.back().at("kind").as_string(), "round_end");
    EXPECT_EQ(events.back().at("round").as_uint(), 2u);
    std::uint64_t prev_seq = 0;
    for (const obs::JsonValue& event : events) {
        EXPECT_TRUE(event.at("virtual_time").is_number());
        const std::uint64_t seq = event.at("seq").as_uint();
        if (&event != &events.front()) {
            EXPECT_EQ(seq, prev_seq + 1);
        }
        prev_seq = seq;
    }
    std::remove(path.c_str());
}

TEST(FleetEngine, ConfigValidationRejectsBadGeometry) {
    EngineConfig config = small_engine_config();
    config.deadline_seconds = 70.0;  // deadline past the round boundary
    EXPECT_THROW(run_small_engine(config), std::invalid_argument);
    config = small_engine_config();
    config.rounds = 0;
    EXPECT_THROW(run_small_engine(config), std::invalid_argument);
    config = small_engine_config();
    config.server.queue_capacity = 0;
    EXPECT_THROW(run_small_engine(config), std::invalid_argument);
}

// ------------------------------------------------------------- scale path

TEST(ScaleFleet, SmallRunRecoversModesAndStaysDeterministic) {
    ScaleFleetConfig config;
    config.devices_per_round = 600;
    config.rounds = 2;
    config.feature_dim = 4;
    config.num_modes = 3;
    config.num_threads = 1;
    config.num_shards = 4;
    stats::Rng rng_a(555);
    const ScaleFleetReport a = run_scale_fleet(config, rng_a);
    ASSERT_EQ(a.engine.rounds.size(), 2u);
    // Well-separated modes with an oracle prior: recovery is near-perfect.
    EXPECT_GT(a.mode_recovery_rate, 0.9);
    EXPECT_EQ(a.prior_components, 3u);
    EXPECT_GT(a.payload_bytes, 0u);
    EXPECT_GT(a.engine.bytes_per_device_round(), 0.0);

    config.num_threads = 4;
    stats::Rng rng_b(555);
    const ScaleFleetReport b = run_scale_fleet(config, rng_b);
    expect_reports_identical(a.engine, b.engine);
    EXPECT_TRUE(bits_equal(a.mode_recovery_rate, b.mode_recovery_rate));
}

TEST(ScaleFleet, ChaosRunDegradesGracefully) {
    ScaleFleetConfig config;
    config.devices_per_round = 400;
    config.rounds = 2;
    config.feature_dim = 4;
    config.num_modes = 3;
    config.num_threads = 2;
    config.faults = FaultConfig::uniform(0.2);
    stats::Rng rng(777);
    ScaleFleetReport report;
    ASSERT_NO_THROW(report = run_scale_fleet(config, rng));
    std::size_t crashed = 0;
    std::size_t stragglers = 0;
    for (const EngineRoundStats& round : report.engine.rounds) {
        crashed += round.crashed;
        stragglers += round.stragglers;
        EXPECT_LT(round.devices_scored, config.devices_per_round);
    }
    EXPECT_GT(crashed, 0u);
    EXPECT_GT(stragglers, 0u);
}

// The engine's round buffers and the shards' scratch are kept per thread
// between runs. A run must not see what an earlier run on its thread left
// there: a small churning run after a larger, faulty one (more devices,
// wider thetas, other shards) reproduces the same run on a thread that never
// ran the engine. Churn leaves slots unwritten, so a stale value would show.
TEST(ScaleFleet, RunsSharingAThreadLeaveNoTrace) {
    ScaleFleetConfig small;
    small.devices_per_round = 300;
    small.rounds = 3;
    small.feature_dim = 3;
    small.num_modes = 3;
    small.num_threads = 1;  // every shard round runs on the calling thread
    small.num_shards = 3;
    small.membership.churn = ChurnConfig::uniform(0.1);
    small.membership.initial_members = 250;
    ScaleFleetConfig large = small;
    large.devices_per_round = 1000;
    large.feature_dim = 6;
    large.num_shards = 2;
    large.faults = FaultConfig::uniform(0.2);
    large.membership = MembershipConfig{};

    const auto last_run_on_new_thread = [](const std::vector<ScaleFleetConfig>& configs) {
        ScaleFleetReport last;
        std::thread([&] {
            for (const ScaleFleetConfig& config : configs) {
                stats::Rng rng(321);
                last = run_scale_fleet(config, rng);
            }
        }).join();
        return last;
    };
    const ScaleFleetReport fresh = last_run_on_new_thread({small});
    const ScaleFleetReport after_large = last_run_on_new_thread({large, small});
    expect_reports_identical(fresh.engine, after_large.engine);
    EXPECT_TRUE(bits_equal(fresh.mode_recovery_rate, after_large.mode_recovery_rate));
    EXPECT_EQ(telemetry_fingerprint(fresh.engine), telemetry_fingerprint(after_large.engine));
}

}  // namespace
}  // namespace drel::edgesim
