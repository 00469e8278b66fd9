#include "edgesim/membership.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace drel::edgesim {
namespace {

void check_probability(double p, const char* name) {
    if (!(p >= 0.0) || !(p <= 1.0)) {
        throw std::invalid_argument(std::string("ChurnConfig: ") + name +
                                    " must lie in [0, 1]");
    }
}

}  // namespace

const char* to_string(LivenessState state) noexcept {
    switch (state) {
        case LivenessState::kUnknown: return "unknown";
        case LivenessState::kJoining: return "joining";
        case LivenessState::kAlive: return "alive";
        case LivenessState::kSuspect: return "suspect";
        case LivenessState::kDead: return "dead";
    }
    return "invalid";
}

bool ChurnConfig::any() const noexcept {
    return join_prob > 0.0 || leave_prob > 0.0 || heartbeat_loss_prob > 0.0 ||
           rejoin_prob > 0.0;
}

void ChurnConfig::validate() const {
    check_probability(join_prob, "join_prob");
    check_probability(leave_prob, "leave_prob");
    check_probability(heartbeat_loss_prob, "heartbeat_loss_prob");
    check_probability(rejoin_prob, "rejoin_prob");
}

ChurnConfig ChurnConfig::uniform(double rate) {
    const double p = std::clamp(rate, 0.0, 1.0);
    ChurnConfig config;
    config.join_prob = p;
    config.leave_prob = p;
    config.heartbeat_loss_prob = p;
    config.rejoin_prob = p;
    return config;
}

ChurnPlan::ChurnPlan(const ChurnConfig& config, const stats::Rng& base)
    : config_(config),
      // Dedicated tag, distinct from FaultPlan's: churn and fault draws
      // live on unrelated streams, so enabling one never perturbs the
      // other (or the healthy data/training streams).
      stream_(base.fork(0x0C8A'17ED'0000'0002ull + config.seed)),
      active_(config.any()) {
    config_.validate();
}

std::uint8_t DeviceChurnDecision::packed() const noexcept {
    return static_cast<std::uint8_t>((join ? kJoinBit : 0) | (leave ? kLeaveBit : 0) |
                                     (heartbeat_lost ? kHeartbeatLostBit : 0) |
                                     (rejoin ? kRejoinBit : 0));
}

DeviceChurnDecision ChurnPlan::device_churn(std::size_t round, std::size_t device) const {
    if (!active_) return DeviceChurnDecision{};
    return decide(stream_.fork(/*salt=*/1).fork(round), device);
}

void ChurnPlan::fill_decisions(std::size_t round, std::size_t begin, std::size_t end,
                               std::uint8_t* out) const {
    if (!active_) {
        std::fill(out + begin, out + end, std::uint8_t{0});
        return;
    }
    const stats::Rng round_stream = stream_.fork(/*salt=*/1).fork(round);
    for (std::size_t j = begin; j < end; ++j) out[j] = decide(round_stream, j).packed();
}

DeviceChurnDecision ChurnPlan::decide(const stats::Rng& round_stream,
                                      std::size_t device) const {
    stats::Rng rng = round_stream.fork(device);
    // One unconditional uniform per churn slot, in a fixed order — the
    // FaultPlan::device_faults contract: each slot's draw is a pure
    // function of the cell, so raising one probability only ever ADDS
    // churn events and never re-rolls another slot's decision.
    const double u_join = rng.uniform();
    const double u_leave = rng.uniform();
    const double u_heartbeat = rng.uniform();
    const double u_rejoin = rng.uniform();
    DeviceChurnDecision decision;
    decision.join = u_join < config_.join_prob;
    decision.leave = u_leave < config_.leave_prob;
    decision.heartbeat_lost = u_heartbeat < config_.heartbeat_loss_prob;
    decision.rejoin = u_rejoin < config_.rejoin_prob;
    return decision;
}

bool MembershipConfig::enabled(std::size_t capacity) const noexcept {
    return churn.any() || (initial_members > 0 && initial_members < capacity);
}

std::size_t MembershipConfig::effective_initial_members(std::size_t capacity) const noexcept {
    if (initial_members == 0) return capacity;
    return std::min(initial_members, capacity);
}

void MembershipConfig::validate(std::size_t capacity, double round_seconds) const {
    churn.validate();
    if (!enabled(capacity)) return;
    validate_timing(round_seconds);
}

void MembershipConfig::validate_timing(double round_seconds) const {
    if (suspect_rounds_to_dead < 1) {
        throw std::invalid_argument("MembershipConfig: suspect_rounds_to_dead must be >= 1");
    }
    if (!std::isfinite(join_seconds) || !std::isfinite(heartbeat_seconds)) {
        throw std::invalid_argument("MembershipConfig: event offsets must be finite");
    }
    if (!(join_seconds >= 0.0) || !(heartbeat_seconds >= join_seconds) ||
        !(heartbeat_seconds <= round_seconds)) {
        throw std::invalid_argument(
            "MembershipConfig: need 0 <= join_seconds <= heartbeat_seconds <= round_seconds");
    }
}

MembershipTable::MembershipTable(std::size_t capacity, std::size_t initial_members,
                                 std::size_t suspect_rounds_to_dead)
    : records_(capacity),
      participation_(capacity, 0),
      suspect_rounds_to_dead_(suspect_rounds_to_dead) {
    const std::size_t members = std::min(initial_members, capacity);
    for (std::size_t j = 0; j < members; ++j) {
        records_[j].state = LivenessState::kAlive;
        records_[j].prior_version = version_;  // the bootstrap broadcast
    }
}

LivenessState MembershipTable::state(std::size_t device) const {
    return records_.at(device).state;
}

void MembershipTable::begin_round() {
    events_ = MembershipCounts{};
    for (std::size_t j = 0; j < records_.size(); ++j) {
        Record& rec = records_[j];
        rec.resumed_stale = false;
        if (rec.state == LivenessState::kJoining) {
            rec.state = LivenessState::kAlive;
            rec.missed_heartbeats = 0;
            // Promotion hands the device the latest prior. A rejoiner that
            // provably missed a broadcast while Dead resumes on a stale
            // model this round — flagged, not failed.
            if (rec.joining_from_dead && rec.prior_version < version_) {
                rec.resumed_stale = true;
                ++events_.rejoins_stale;
            }
            rec.prior_version = version_;
            rec.joining_from_dead = false;
        }
        participation_[j] = (rec.state == LivenessState::kAlive ||
                             rec.state == LivenessState::kSuspect)
                                ? std::uint8_t{1}
                                : std::uint8_t{0};
    }
}

bool MembershipTable::resumed_stale(std::size_t device) const {
    return records_.at(device).resumed_stale;
}

void MembershipTable::apply_join(std::size_t device) {
    Record& rec = records_.at(device);
    if (rec.state != LivenessState::kUnknown) return;
    rec.state = LivenessState::kJoining;
    rec.joining_from_dead = false;
    ++events_.joins;
}

void MembershipTable::apply_rejoin(std::size_t device) {
    Record& rec = records_.at(device);
    if (rec.state != LivenessState::kDead) return;
    rec.state = LivenessState::kJoining;
    rec.joining_from_dead = true;
    ++events_.rejoins;
}

void MembershipTable::heartbeat_deadline(const std::vector<std::uint8_t>& decisions) {
    if (decisions.size() != records_.size()) {
        throw std::invalid_argument(
            "MembershipTable::heartbeat_deadline: one decision per slot required");
    }
    for (std::size_t j = 0; j < records_.size(); ++j) {
        Record& rec = records_[j];
        if (rec.state != LivenessState::kAlive && rec.state != LivenessState::kSuspect) {
            continue;
        }
        const std::uint8_t decision = decisions[j];
        if ((decision & DeviceChurnDecision::kLeaveBit) != 0) {
            rec.state = LivenessState::kDead;
            rec.missed_heartbeats = 0;
            ++events_.leaves;
            ++events_.deaths;
            continue;
        }
        if ((decision & DeviceChurnDecision::kHeartbeatLostBit) != 0) {
            rec.state = LivenessState::kSuspect;
            ++rec.missed_heartbeats;
            ++events_.heartbeats_missed;
            if (rec.missed_heartbeats >= suspect_rounds_to_dead_) {
                rec.state = LivenessState::kDead;
                rec.missed_heartbeats = 0;
                ++events_.deaths;
            }
            continue;
        }
        if (rec.state == LivenessState::kSuspect) {
            // Heartbeat received: recover, and let the heartbeat response
            // carry the current prior — a Suspect spell never surfaces as
            // staleness, only a Dead one can.
            rec.state = LivenessState::kAlive;
            rec.missed_heartbeats = 0;
            rec.prior_version = version_;
            ++events_.recoveries;
        }
    }
}

void MembershipTable::record_broadcast() {
    ++version_;
    for (Record& rec : records_) {
        if (rec.state == LivenessState::kAlive) rec.prior_version = version_;
    }
}

std::size_t MembershipTable::alive_count() const noexcept {
    std::size_t alive = 0;
    for (const Record& rec : records_) {
        if (rec.state == LivenessState::kAlive) ++alive;
    }
    return alive;
}

MembershipCounts MembershipTable::counts() const {
    MembershipCounts out = events_;
    for (const Record& rec : records_) {
        switch (rec.state) {
            case LivenessState::kAlive: ++out.alive; break;
            case LivenessState::kSuspect: ++out.suspect; break;
            case LivenessState::kDead: ++out.dead; break;
            case LivenessState::kJoining: ++out.joining; break;
            case LivenessState::kUnknown: ++out.unknown; break;
        }
    }
    return out;
}

}  // namespace drel::edgesim
