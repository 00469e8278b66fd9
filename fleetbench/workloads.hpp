// The fleet benchmark's workloads and the deterministic outputs it checks.
//
// A workload is a fully pinned configuration of one of the library's two
// fleet entry points (edgesim::run_scale_fleet, edgesim::run_lifecycle).
// Only the seed and the runner count come from the command line; the shard
// count is pinned so every host benches the same fleet layout.
//
// Outputs is the deterministic part of a run: per-round quality, fault
// accounting, bytes and virtual-latency quantiles, plus the per-device
// DegradedReason vector. Its canonical serialization is what the traced
// replica must reproduce byte for byte, and its FNV-1a hash is the
// fingerprint that must not change across repetitions of one seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "edgesim/lifecycle.hpp"
#include "edgesim/server.hpp"

namespace fleetbench {

enum class Family { kScale, kLifecycle };

struct Workload {
    std::string name;
    Family family = Family::kScale;
    drel::edgesim::ScaleFleetConfig scale;          ///< used when family == kScale
    drel::edgesim::LifecycleConfig lifecycle;       ///< used when family == kLifecycle
    /// Library seeds one measured run covers (see sub_seed). The lifecycle's
    /// cost, bytes and accuracy depend on the synthesized population, so a
    /// run averages several populations; the scale fleet's do not.
    std::size_t sub_seeds = 1;

    std::size_t rounds() const noexcept;
    std::size_t devices_per_round() const noexcept;
    /// Device slots simulated by one entry-point call (rounds x devices).
    std::size_t device_rounds() const noexcept { return rounds() * devices_per_round(); }
};

inline constexpr std::size_t kMaxSubSeeds = 64;

/// Library seed of sub-run `k` (< kMaxSubSeeds) of benchmark seed `seed`;
/// distinct benchmark seeds never share a library seed.
inline std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
    return seed * kMaxSubSeeds + k;
}

/// The named workload at full size on `threads` runners. Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::size_t threads);

/// The same workload with `rounds` rounds of `devices` devices (the churn
/// reserve scales with it). Used for warm-up and for the tiny fleets of the
/// replica self-test.
Workload resized(Workload workload, std::size_t rounds, std::size_t devices);

struct RoundOutputs {
    double mean_accuracy = 0.0;
    double novel_accuracy = -1.0;
    std::size_t prior_components = 0;
    bool rebroadcast = false;
    std::size_t broadcast_bytes = 0;
    std::size_t devices_scored = 0;
    std::size_t crashed = 0;
    std::size_t stragglers = 0;
    std::size_t fallbacks = 0;
    std::size_t stale_priors = 0;
    std::size_t uploads_dropped = 0;
    std::size_t uploads_garbled = 0;
    std::size_t backpressure_rejected = 0;
    /// Slots that did not run this round (non-members under churn).
    std::size_t skipped = 0;
    double latency_p50 = 0.0;
    double latency_p99 = 0.0;
    double latency_max = 0.0;
    std::vector<drel::edgesim::DegradedReason> device_degraded;
};

struct Outputs {
    std::vector<RoundOutputs> rounds;
    std::size_t total_broadcast_bytes = 0;
    std::size_t total_upload_bytes = 0;
    /// Shard -> server batch bytes; the lifecycle report does not expose
    /// them, so lifecycle outputs carry 0 here.
    std::size_t total_batch_bytes = 0;
    std::size_t total_upload_retries = 0;
    double mode_recovery = 0.0;      ///< scale only
    std::size_t payload_bytes = 0;   ///< scale only: encoded prior per device

    /// Canonical byte string of every field (doubles by bit pattern).
    std::string serialize() const;
    /// FNV-1a 64 of serialize().
    std::uint64_t fingerprint() const;
};

Outputs outputs_of(const drel::edgesim::ScaleFleetReport& report);
Outputs outputs_of(const drel::edgesim::LifecycleReport& report);

/// Runs the workload's library entry point once with a fresh Rng(seed).
Outputs run_entry_point(const Workload& workload, std::uint64_t seed);

/// End-to-end quality and byte metrics of one run's outputs.
struct QualityMetrics {
    double healthy_fraction = 0.0;     ///< 1 - degraded slots / attempted slots
    double mode_recovery = 0.0;        ///< scale only
    /// Mean over rounds of the round's mean device accuracy: test accuracy
    /// on the lifecycle, the MAP mode-match score on the scale fleet.
    double mean_accuracy = 0.0;
    double novel_accuracy = 0.0;       ///< lifecycle only: mean over novel rounds
    double bcast_bytes_per_dev_rnd = 0.0;
    double bytes_per_dev_rnd = 0.0;
};

QualityMetrics quality_of(const Workload& workload, const Outputs& outputs);

/// Correctness violations of one run (empty = correct): device-round
/// accounting per round (scored + unscored-degraded + skipped == attempted,
/// cross-checked against the per-device reason vector), round count, and
/// finite quality metrics inside [0, 1].
std::vector<std::string> check_outputs(const Workload& workload, const Outputs& outputs);

}  // namespace fleetbench
