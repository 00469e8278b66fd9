#include "edgesim/faults.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace drel::edgesim {
namespace {

void check_probability(double p, const char* name) {
    if (!(p >= 0.0) || !(p <= 1.0)) {
        throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                    " must lie in [0, 1]");
    }
}

/// The calling thread's innermost FaultPlan::ScopedCell, if any.
thread_local const FaultPlan::ScopedCell* t_published_cell = nullptr;

}  // namespace

const char* to_string(DegradedReason reason) noexcept {
    switch (reason) {
        case DegradedReason::kNone: return "none";
        case DegradedReason::kCrashed: return "crashed";
        case DegradedReason::kStraggler: return "straggler";
        case DegradedReason::kFallbackLocalErm: return "fallback_local_erm";
        case DegradedReason::kStalePrior: return "stale_prior";
        case DegradedReason::kUploadDropped: return "upload_dropped";
        case DegradedReason::kNonFinite: return "non_finite";
        case DegradedReason::kBackpressure: return "backpressure";
        case DegradedReason::kRejoinStalePrior: return "rejoin_stale_prior";
    }
    return "unknown";
}

bool FaultConfig::any() const noexcept {
    return crash_prob > 0.0 || straggler_prob > 0.0 || prior_corrupt_prob > 0.0 ||
           prior_stale_prob > 0.0 || link_outage_prob > 0.0 || upload_fail_prob > 0.0 ||
           upload_garble_prob > 0.0;
}

void FaultConfig::validate() const {
    check_probability(crash_prob, "crash_prob");
    check_probability(straggler_prob, "straggler_prob");
    check_probability(prior_corrupt_prob, "prior_corrupt_prob");
    check_probability(prior_stale_prob, "prior_stale_prob");
    check_probability(link_outage_prob, "link_outage_prob");
    check_probability(upload_fail_prob, "upload_fail_prob");
    check_probability(upload_garble_prob, "upload_garble_prob");
    if (max_upload_attempts < 1) {
        throw std::invalid_argument("FaultConfig: max_upload_attempts must be >= 1");
    }
    if (!(upload_backoff_base_seconds >= 0.0)) {
        throw std::invalid_argument("FaultConfig: upload_backoff_base_seconds must be >= 0");
    }
    if (!(upload_backoff_jitter >= 0.0) || !(upload_backoff_jitter <= 1.0)) {
        throw std::invalid_argument("FaultConfig: upload_backoff_jitter must lie in [0, 1]");
    }
    if (!(round_deadline_seconds >= 0.0)) {
        throw std::invalid_argument("FaultConfig: round_deadline_seconds must be >= 0");
    }
}

FaultConfig FaultConfig::uniform(double rate) {
    const double p = std::clamp(rate, 0.0, 1.0);
    FaultConfig config;
    config.crash_prob = p;
    config.straggler_prob = p;
    config.prior_corrupt_prob = p;
    config.prior_stale_prob = p;
    config.link_outage_prob = p;
    config.upload_fail_prob = p;
    config.upload_garble_prob = p;
    return config;
}

FaultPlan::FaultPlan(const FaultConfig& config, const stats::Rng& base)
    : config_(config),
      // The plan's stream is doubly removed from the simulation's forks:
      // a dedicated tag keeps fault draws off the data/training streams so
      // enabling faults never perturbs the healthy path's RNG sequence.
      stream_(base.fork(0x0FA0'17ED'0000'0001ull + config.seed)),
      active_(config.any()) {
    config_.validate();
}

stats::Rng FaultPlan::cell_rng(std::uint64_t salt, std::size_t round,
                               std::size_t device) const {
    return stream_.fork(salt).fork(round).fork(device);
}

FaultPlan::ScopedCell::ScopedCell(const FaultPlan& plan, std::size_t round,
                                  std::size_t device,
                                  const DeviceFaultDecision& decision) noexcept
    : plan_(&plan),
      round_(round),
      device_(device),
      decision_(decision),
      previous_(t_published_cell) {
    t_published_cell = this;
}

FaultPlan::ScopedCell::~ScopedCell() { t_published_cell = previous_; }

DeviceFaultDecision FaultPlan::device_faults(std::size_t round, std::size_t device) const {
    DeviceFaultDecision decision;
    if (!active_) return decision;
    if (const ScopedCell* cell = t_published_cell;
        cell != nullptr && cell->plan_ == this && cell->round_ == round &&
        cell->device_ == device) {
        return cell->decision_;
    }
    stats::Rng rng = cell_rng(/*salt=*/1, round, device);
    // One unconditional uniform per fault slot, in a fixed order: the draw
    // for each slot is a pure function of the cell, so raising one
    // probability only ever ADDS faults (monotone chaos sweeps) and never
    // re-rolls another slot's decision.
    const double u_crash = rng.uniform();
    const double u_straggler = rng.uniform();
    const double u_corrupt = rng.uniform();
    const double u_stale = rng.uniform();
    const double u_outage = rng.uniform();
    decision.corrupt_position = rng.uniform();
    decision.crash = u_crash < config_.crash_prob;
    decision.straggler = u_straggler < config_.straggler_prob;
    decision.prior_corrupt = u_corrupt < config_.prior_corrupt_prob;
    decision.prior_stale = u_stale < config_.prior_stale_prob;
    decision.link_outage = u_outage < config_.link_outage_prob;
    return decision;
}

UploadOutcome FaultPlan::upload_outcome(std::size_t round, std::size_t device) const {
    UploadOutcome outcome;
    if (!active_) {
        outcome.delivered = true;
        outcome.attempts = 1;
        return outcome;
    }
    stats::Rng rng = cell_rng(/*salt=*/2, round, device);
    for (int attempt = 1; attempt <= config_.max_upload_attempts; ++attempt) {
        outcome.attempts = attempt;
        if (rng.uniform() >= config_.upload_fail_prob) {
            outcome.delivered = true;
            break;
        }
        if (attempt == config_.max_upload_attempts) break;
        // Exponential backoff with +-jitter, in simulated seconds. Running
        // past the round deadline means the upload is skipped — degraded,
        // never fatal.
        double backoff = config_.upload_backoff_base_seconds *
                         static_cast<double>(1ull << (attempt - 1));
        backoff *= 1.0 + config_.upload_backoff_jitter * (2.0 * rng.uniform() - 1.0);
        outcome.simulated_seconds += backoff;
        if (outcome.simulated_seconds > config_.round_deadline_seconds) break;
    }
    outcome.retries = outcome.attempts - 1;
    if (outcome.delivered) {
        outcome.garbled = rng.uniform() < config_.upload_garble_prob;
    }
    return outcome;
}

std::vector<std::uint8_t> FaultPlan::corrupt_payload(
    const std::vector<std::uint8_t>& payload, const DeviceFaultDecision& decision) const {
    std::vector<std::uint8_t> garbled = payload;
    if (garbled.empty()) return garbled;
    // Damage the magic so the strict decoder (transfer.hpp) always rejects
    // the install — the degradation path must be deterministic, not "maybe
    // the flipped mantissa bit still decodes".
    garbled[0] ^= 0xFFu;
    const auto body = static_cast<std::size_t>(decision.corrupt_position *
                                               static_cast<double>(garbled.size()));
    garbled[std::min(body, garbled.size() - 1)] ^= 0x55u;
    return garbled;
}

void record_injected_faults(const DeviceFaultDecision& decision) {
    static obs::Counter& crash = obs::Registry::global().counter("fault.injected.crash");
    static obs::Counter& straggler =
        obs::Registry::global().counter("fault.injected.straggler");
    static obs::Counter& corrupt =
        obs::Registry::global().counter("fault.injected.prior_corrupt");
    static obs::Counter& stale = obs::Registry::global().counter("fault.injected.prior_stale");
    static obs::Counter& outage =
        obs::Registry::global().counter("fault.injected.link_outage");
    if (decision.crash) crash.add(1);
    if (decision.straggler) straggler.add(1);
    if (decision.prior_corrupt) corrupt.add(1);
    if (decision.prior_stale) stale.add(1);
    if (decision.link_outage) outage.add(1);
}

void record_degradation(DegradedReason reason) {
    switch (reason) {
        case DegradedReason::kNone:
            return;
        case DegradedReason::kCrashed: {
            static obs::Counter& c = obs::Registry::global().counter("fault.degraded.crashed");
            c.add(1);
            return;
        }
        case DegradedReason::kStraggler: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.straggler");
            c.add(1);
            return;
        }
        case DegradedReason::kFallbackLocalErm: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.fallback_local_erm");
            c.add(1);
            return;
        }
        case DegradedReason::kStalePrior: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.stale_prior");
            c.add(1);
            return;
        }
        case DegradedReason::kUploadDropped: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.upload_dropped");
            c.add(1);
            return;
        }
        case DegradedReason::kNonFinite: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.non_finite");
            c.add(1);
            return;
        }
        case DegradedReason::kBackpressure: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.backpressure");
            c.add(1);
            return;
        }
        case DegradedReason::kRejoinStalePrior: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.rejoin_stale_prior");
            c.add(1);
            return;
        }
    }
}

}  // namespace drel::edgesim
