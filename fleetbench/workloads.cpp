#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/health.hpp"

namespace fleetbench {
namespace edgesim = drel::edgesim;

namespace {

// The shard count is the batch structure (one upload batch per shard per
// round), so it is pinned rather than derived from the host's thread count.
constexpr std::size_t kShards = 16;
// Cost, bytes and accuracy of a lifecycle call vary by 12-20% between
// synthesized populations (the batch refit's broadcast count most of all),
// so a run averages many small fleets rather than timing one large one.
constexpr std::size_t kStreamSubSeeds = 48;
constexpr std::size_t kDefaultSubSeeds = 48;

edgesim::EncodingOptions wire_v2_8bit_delta() {
    edgesim::EncodingOptions wire;
    wire.version = edgesim::kWireV2;
    wire.quantized = true;
    wire.quantization_bits = 8;
    wire.delta = true;
    return wire;
}

void put_u64(std::string& out, std::uint64_t value) {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    out.append(bytes, sizeof value);
}

void put_f64(std::string& out, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof value);
    put_u64(out, bits);
}

std::size_t skipped_slots(const drel::health::FleetTelemetry& telemetry, std::size_t round,
                          std::size_t devices) {
    const drel::obs::RoundSeries& membership = telemetry.membership;
    if (round >= membership.num_rows()) return 0;
    const std::uint64_t ran =
        membership.at(round, drel::health::idx(drel::health::MembershipCol::kParticipating));
    return ran >= devices ? 0 : devices - static_cast<std::size_t>(ran);
}

}  // namespace

std::size_t Workload::rounds() const noexcept {
    return family == Family::kScale ? scale.rounds : lifecycle.rounds;
}

std::size_t Workload::devices_per_round() const noexcept {
    return family == Family::kScale ? scale.devices_per_round : lifecycle.devices_per_round;
}

Workload make_workload(const std::string& name, std::size_t threads) {
    Workload w;
    w.name = name;
    if (name == "scale_healthy" || name == "scale_churn") {
        w.family = Family::kScale;
        w.scale.devices_per_round = 100000;
        w.scale.rounds = 3;
        w.scale.num_shards = kShards;
        w.scale.num_threads = threads;
        if (name == "scale_churn") {
            w.scale.faults = edgesim::FaultConfig::uniform(0.1);
            w.scale.membership.churn = edgesim::ChurnConfig::uniform(0.10);
            w.scale.membership.initial_members = 90000;
            w.scale.wire = wire_v2_8bit_delta();
        }
    } else if (name == "lifecycle_stream") {
        w.family = Family::kLifecycle;
        w.lifecycle.devices_per_round = 32;
        w.lifecycle.rounds = 8;
        w.lifecycle.cloud.refit_mode = edgesim::CloudRefitMode::kStreaming;
        w.sub_seeds = kStreamSubSeeds;
        w.lifecycle.wire = wire_v2_8bit_delta();
        w.lifecycle.num_shards = kShards;
        w.lifecycle.num_threads = threads;
    } else if (name == "lifecycle_default") {
        w.family = Family::kLifecycle;
        w.lifecycle.devices_per_round = 16;
        w.lifecycle.rounds = 8;
        w.sub_seeds = kDefaultSubSeeds;
        w.lifecycle.num_shards = kShards;
        w.lifecycle.num_threads = threads;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

Workload resized(Workload workload, std::size_t rounds, std::size_t devices) {
    if (workload.family == Family::kScale) {
        edgesim::MembershipConfig& membership = workload.scale.membership;
        if (membership.initial_members > 0) {
            // Keep the reserved tail's share of the fleet.
            membership.initial_members =
                std::max<std::size_t>(1, membership.initial_members * devices /
                                             workload.scale.devices_per_round);
        }
        workload.scale.rounds = rounds;
        workload.scale.devices_per_round = devices;
    } else {
        workload.lifecycle.rounds = rounds;
        workload.lifecycle.devices_per_round = devices;
    }
    return workload;
}

std::string Outputs::serialize() const {
    std::string out;
    put_u64(out, rounds.size());
    for (const RoundOutputs& r : rounds) {
        put_f64(out, r.mean_accuracy);
        put_f64(out, r.novel_accuracy);
        for (const std::size_t v :
             {r.prior_components, static_cast<std::size_t>(r.rebroadcast), r.broadcast_bytes,
              r.devices_scored, r.crashed, r.stragglers, r.fallbacks, r.stale_priors,
              r.uploads_dropped, r.uploads_garbled, r.backpressure_rejected, r.skipped}) {
            put_u64(out, v);
        }
        put_f64(out, r.latency_p50);
        put_f64(out, r.latency_p99);
        put_f64(out, r.latency_max);
        put_u64(out, r.device_degraded.size());
        for (const edgesim::DegradedReason reason : r.device_degraded) {
            out.push_back(static_cast<char>(reason));
        }
    }
    for (const std::size_t v : {total_broadcast_bytes, total_upload_bytes, total_batch_bytes,
                                total_upload_retries, payload_bytes}) {
        put_u64(out, v);
    }
    put_f64(out, mode_recovery);
    return out;
}

std::uint64_t Outputs::fingerprint() const {
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : serialize()) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

Outputs outputs_of(const edgesim::ScaleFleetReport& report) {
    Outputs out;
    const edgesim::EngineReport& engine = report.engine;
    out.rounds.reserve(engine.rounds.size());
    for (const edgesim::EngineRoundStats& s : engine.rounds) {
        RoundOutputs r;
        r.mean_accuracy = s.mean_accuracy;
        r.novel_accuracy = s.novel_mode_accuracy;
        r.prior_components = s.prior_components;
        r.rebroadcast = s.rebroadcast;
        r.broadcast_bytes = s.broadcast_bytes;
        r.devices_scored = s.devices_scored;
        r.crashed = s.crashed;
        r.stragglers = s.stragglers;
        r.fallbacks = s.fallbacks;
        r.stale_priors = s.stale_priors;
        r.uploads_dropped = s.uploads_dropped;
        r.uploads_garbled = s.uploads_garbled;
        r.backpressure_rejected = s.backpressure_rejected;
        r.skipped =
            skipped_slots(engine.telemetry, out.rounds.size(), s.device_degraded.size());
        r.latency_p50 = s.latency_p50_seconds;
        r.latency_p99 = s.latency_p99_seconds;
        r.latency_max = s.latency_max_seconds;
        r.device_degraded = s.device_degraded;
        out.rounds.push_back(std::move(r));
    }
    out.total_broadcast_bytes = engine.total_broadcast_bytes;
    out.total_upload_bytes = engine.total_upload_bytes;
    out.total_batch_bytes = engine.total_batch_bytes;
    out.total_upload_retries = engine.total_upload_retries;
    out.mode_recovery = report.mode_recovery_rate;
    out.payload_bytes = report.payload_bytes;
    return out;
}

Outputs outputs_of(const edgesim::LifecycleReport& report) {
    Outputs out;
    out.rounds.reserve(report.rounds.size());
    for (const edgesim::LifecycleRound& s : report.rounds) {
        RoundOutputs r;
        r.mean_accuracy = s.mean_accuracy;
        r.novel_accuracy = s.novel_mode_accuracy;
        r.prior_components = s.prior_components;
        r.rebroadcast = s.rebroadcast;
        r.broadcast_bytes = s.broadcast_bytes;
        r.devices_scored = s.devices_scored;
        r.crashed = s.crashed;
        r.stragglers = s.stragglers;
        r.fallbacks = s.fallbacks;
        r.stale_priors = s.stale_priors;
        r.uploads_dropped = s.uploads_dropped;
        r.uploads_garbled = s.uploads_garbled;
        r.backpressure_rejected = s.backpressure_rejected;
        r.skipped =
            skipped_slots(report.telemetry, out.rounds.size(), s.device_degraded.size());
        r.latency_p50 = s.latency_p50_seconds;
        r.latency_p99 = s.latency_p99_seconds;
        r.latency_max = s.latency_max_seconds;
        r.device_degraded = s.device_degraded;
        out.rounds.push_back(std::move(r));
    }
    out.total_broadcast_bytes = report.total_broadcast_bytes;
    out.total_upload_bytes = report.total_upload_bytes;
    out.total_upload_retries = report.total_upload_retries;
    return out;
}

Outputs run_entry_point(const Workload& workload, std::uint64_t seed) {
    drel::stats::Rng rng(seed);
    if (workload.family == Family::kScale) {
        return outputs_of(edgesim::run_scale_fleet(workload.scale, rng));
    }
    return outputs_of(edgesim::run_lifecycle(workload.lifecycle, rng));
}

QualityMetrics quality_of(const Workload& workload, const Outputs& outputs) {
    QualityMetrics q;
    std::size_t degraded = 0;
    double accuracy_sum = 0.0;
    double novel_sum = 0.0;
    std::size_t novel_rounds = 0;
    for (const RoundOutputs& r : outputs.rounds) {
        for (const edgesim::DegradedReason reason : r.device_degraded) {
            degraded += reason != edgesim::DegradedReason::kNone ? 1 : 0;
        }
        accuracy_sum += r.mean_accuracy;
        if (r.novel_accuracy >= 0.0) {
            novel_sum += r.novel_accuracy;
            ++novel_rounds;
        }
    }
    const double slots = static_cast<double>(workload.device_rounds());
    q.healthy_fraction = 1.0 - static_cast<double>(degraded) / slots;
    q.bcast_bytes_per_dev_rnd = static_cast<double>(outputs.total_broadcast_bytes) / slots;
    q.bytes_per_dev_rnd = static_cast<double>(outputs.total_broadcast_bytes +
                                              outputs.total_upload_bytes +
                                              outputs.total_batch_bytes) /
                          slots;
    if (!outputs.rounds.empty()) {
        q.mean_accuracy = accuracy_sum / static_cast<double>(outputs.rounds.size());
    }
    if (workload.family == Family::kScale) {
        q.mode_recovery = outputs.mode_recovery;
    } else if (novel_rounds > 0) {
        q.novel_accuracy = novel_sum / static_cast<double>(novel_rounds);
    }
    return q;
}

std::vector<std::string> check_outputs(const Workload& workload, const Outputs& outputs) {
    std::vector<std::string> violations;
    const auto fail = [&](const std::string& what) { violations.push_back(what); };
    if (outputs.rounds.size() != workload.rounds()) {
        fail("expected " + std::to_string(workload.rounds()) + " rounds, got " +
             std::to_string(outputs.rounds.size()));
    }
    const std::size_t attempted = workload.devices_per_round();
    for (std::size_t i = 0; i < outputs.rounds.size(); ++i) {
        const RoundOutputs& r = outputs.rounds[i];
        const std::string where = "round " + std::to_string(i) + ": ";
        // Crashes and stragglers are the only reasons that leave a device
        // unscored; non-members never run.
        const std::size_t accounted = r.devices_scored + r.crashed + r.stragglers + r.skipped;
        if (accounted != attempted) {
            fail(where + "scored " + std::to_string(r.devices_scored) + " + degraded " +
                 std::to_string(r.crashed + r.stragglers) + " + skipped " +
                 std::to_string(r.skipped) + " != attempted " + std::to_string(attempted));
        }
        if (r.device_degraded.size() != attempted) {
            fail(where + "per-device outcome vector has " +
                 std::to_string(r.device_degraded.size()) + " slots");
        }
        const auto count = [&](edgesim::DegradedReason reason) {
            return static_cast<std::size_t>(
                std::count(r.device_degraded.begin(), r.device_degraded.end(), reason));
        };
        if (count(edgesim::DegradedReason::kCrashed) != r.crashed ||
            count(edgesim::DegradedReason::kStraggler) != r.stragglers) {
            fail(where + "crash/straggler counts disagree with the per-device reasons");
        }
        if (count(edgesim::DegradedReason::kNone) < r.skipped) {
            fail(where + "more skipped slots than healthy slots");
        }
    }
    const QualityMetrics q = quality_of(workload, outputs);
    const auto unit_interval = [&](const char* name, double value) {
        if (!std::isfinite(value) || value < 0.0 || value > 1.0) {
            fail(std::string(name) + " = " + std::to_string(value) + " is outside [0, 1]");
        }
    };
    unit_interval("healthy_fraction", q.healthy_fraction);
    unit_interval("mean_accuracy", q.mean_accuracy);
    if (workload.family == Family::kScale) {
        unit_interval("mode_recovery", q.mode_recovery);
    } else {
        unit_interval("novel_accuracy", q.novel_accuracy);
        const int novel_round = workload.lifecycle.novel_mode_round;
        for (std::size_t i = 0; i < outputs.rounds.size(); ++i) {
            const bool novel = novel_round >= 0 && i >= static_cast<std::size_t>(novel_round);
            if (novel && outputs.rounds[i].novel_accuracy < 0.0) {
                fail("round " + std::to_string(i) + ": no novel-type device was scored");
            }
        }
    }
    if (!std::isfinite(q.bytes_per_dev_rnd) || q.bcast_bytes_per_dev_rnd <= 0.0) {
        fail("no broadcast bytes were charged");
    }
    return violations;
}

}  // namespace fleetbench
