// Device liveness & churn for the event-driven fleet engine.
//
// Production edge fleets are not a fixed population: devices join mid-run,
// vanish without a goodbye, sit in a gray zone where heartbeats stop
// arriving, and later rejoin carrying whatever prior they last installed.
// This module gives the engine (server.hpp) a server-side view of that
// churn as a per-device liveness state machine
//
//     Unknown --join--> Joining --round start--> Alive
//     Alive --heartbeat lost--> Suspect --k consecutive losses--> Dead
//     Alive/Suspect --leave--> Dead
//     Suspect --heartbeat--> Alive          (recovery)
//     Dead --rejoin--> Joining --round start--> Alive   (graceful rejoin)
//
// driven by virtual-clock heartbeats (kHeartbeatDeadline events), never
// wall clock.
//
// Churn decisions follow the FaultPlan pattern (faults.hpp): a ChurnPlan
// holds a dedicated forked RNG stream, and every join/leave/heartbeat-loss/
// rejoin decision is a PURE FUNCTION of (plan seed, round, device) — one
// unconditional uniform per slot in a fixed order, thresholded against the
// configured probability. Querying order is irrelevant, so the membership
// evolution is bit-identical at any thread or shard count, and for a fixed
// seed the set of churn events grows monotonically in the churn rate.
//
// Rejoin is graceful, never an error: a device whose record says it missed
// a prior broadcast while Dead is handed the LATEST prior on promotion and
// its first round back is flagged with DegradedReason::kRejoinStalePrior —
// it trains and scores normally, the telemetry just names the staleness.
//
// Index-stability contract: a device's slot index never changes. Dead
// slots are SKIPPED by the shards (participation mask), not compacted, and
// joins are admitted into reserved tail capacity [initial_members,
// capacity) — no renumbering, so per-device RNG streams and SoA columns
// stay aligned for the whole run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace drel::edgesim {

/// Server-side liveness verdict for one device slot.
enum class LivenessState : std::uint8_t {
    kUnknown = 0,  ///< reserved capacity; the device has never joined
    kJoining,      ///< announced itself; admitted at the next round start
    kAlive,        ///< heartbeating; receives broadcasts, runs rounds
    kSuspect,      ///< missed heartbeat(s); still scheduled, not broadcast to
    kDead,         ///< left or timed out; slot skipped, index retained
};

/// Stable lowercase name ("unknown", "joining", ...) for logs and tables.
const char* to_string(LivenessState state) noexcept;

struct ChurnConfig {
    // Per-(round, device) churn probabilities. All must lie in [0, 1].
    double join_prob = 0.0;            ///< Unknown slot announces itself
    double leave_prob = 0.0;           ///< Alive/Suspect device departs for good
    double heartbeat_loss_prob = 0.0;  ///< this round's heartbeat goes missing
    double rejoin_prob = 0.0;          ///< Dead device comes back

    /// Extra stream separation from the simulation seed; two plans with
    /// different seeds over the same run draw independent churn patterns.
    std::uint64_t seed = 0;

    /// True iff any churn probability is positive (the plan does work).
    bool any() const noexcept;

    /// Throws std::invalid_argument on probabilities outside [0, 1].
    void validate() const;

    /// Every churn probability set to clamp(rate, 0, 1) — the single-knob
    /// churn sweep mirroring FaultConfig::uniform.
    static ChurnConfig uniform(double rate);
};

/// Churn scheduled for one (round, device) cell.
struct DeviceChurnDecision {
    bool join = false;            ///< applies to Unknown slots
    bool leave = false;           ///< applies to Alive/Suspect devices
    bool heartbeat_lost = false;  ///< applies to Alive/Suspect devices
    bool rejoin = false;          ///< applies to Dead devices

    // The decision packed into one byte, one bit per churn slot: the
    // engine's per-round decision array holds one such byte per device.
    static constexpr std::uint8_t kJoinBit = 1u << 0;
    static constexpr std::uint8_t kLeaveBit = 1u << 1;
    static constexpr std::uint8_t kHeartbeatLostBit = 1u << 2;
    static constexpr std::uint8_t kRejoinBit = 1u << 3;

    std::uint8_t packed() const noexcept;
};

/// Seeded schedule of per-round, per-device churn. Copyable; a
/// default-constructed plan is inactive (nobody ever churns) and costs one
/// branch per query.
class ChurnPlan {
 public:
    /// Inactive plan: every decision is all-clear.
    ChurnPlan() = default;

    /// Derives the plan's private stream from `base` (base is not
    /// advanced). Throws std::invalid_argument if `config` is invalid.
    ChurnPlan(const ChurnConfig& config, const stats::Rng& base);

    const ChurnConfig& config() const noexcept { return config_; }
    bool active() const noexcept { return active_; }

    /// The churn scheduled for (round, device). Pure function of the plan
    /// seed and the cell — independent of query order and thread schedule,
    /// monotone in each probability at fixed seed.
    DeviceChurnDecision device_churn(std::size_t round, std::size_t device) const;

    /// out[j] = device_churn(round, j).packed() for every j in [begin, end),
    /// bit for bit; the round's stream fork is taken once for the range.
    /// The engine's shards each fill their own range of the round's
    /// decision array with this, in parallel.
    void fill_decisions(std::size_t round, std::size_t begin, std::size_t end,
                        std::uint8_t* out) const;

 private:
    /// The cell's decision, given the plan's per-round stream.
    DeviceChurnDecision decide(const stats::Rng& round_stream, std::size_t device) const;

    ChurnConfig config_;
    stats::Rng stream_{0};
    bool active_ = false;
};

/// Membership knobs threaded through EngineConfig / ScaleFleetConfig /
/// LifecycleConfig. Defaults reproduce the fixed-population engine exactly:
/// no churn, no reserved capacity, no membership events, no membership
/// telemetry rows — which is what keeps every pre-churn golden byte-stable.
struct MembershipConfig {
    ChurnConfig churn;

    /// Devices [0, initial_members) boot Alive; the tail [initial_members,
    /// devices_per_round) is reserved Unknown capacity that joins fill.
    /// 0 means the whole index space boots Alive.
    std::size_t initial_members = 0;

    /// Consecutive missed heartbeats that turn Suspect into Dead (>= 1).
    std::size_t suspect_rounds_to_dead = 2;

    /// Virtual offset of kDeviceJoin/kDeviceRejoin events within a round.
    double join_seconds = 10.0;

    /// Virtual offset of the round's kHeartbeatDeadline event. Must land
    /// inside the round and at or after join_seconds.
    double heartbeat_seconds = 45.0;

    /// Membership machinery engages iff churn can happen or part of the
    /// index space is reserved for joins. Disabled == the engine's
    /// pre-membership behavior, bit for bit.
    bool enabled(std::size_t capacity) const noexcept;

    /// initial_members, with 0 resolved to "everyone" and the result
    /// clamped to capacity.
    std::size_t effective_initial_members(std::size_t capacity) const noexcept;

    /// Probability checks always; timing checks only when enabled(capacity)
    /// — a disabled config never constrains the round length.
    void validate(std::size_t capacity, double round_seconds) const;

    /// The timing half alone: suspect_rounds_to_dead >= 1 and
    /// 0 <= join_seconds <= heartbeat_seconds <= round_seconds. The engine
    /// re-checks this whenever membership is engaged (even by an externally
    /// supplied active ChurnPlan).
    void validate_timing(double round_seconds) const;
};

/// One round's membership bookkeeping: the post-heartbeat census plus the
/// churn events counted since begin_round.
struct MembershipCounts {
    // Census (state of every slot when read).
    std::size_t alive = 0;
    std::size_t suspect = 0;
    std::size_t dead = 0;
    std::size_t joining = 0;
    std::size_t unknown = 0;

    // Events accumulated this round (reset by begin_round).
    std::size_t joins = 0;              ///< Unknown -> Joining admissions
    std::size_t rejoins = 0;            ///< Dead -> Joining admissions
    std::size_t leaves = 0;             ///< voluntary departures -> Dead
    std::size_t heartbeats_missed = 0;  ///< Alive/Suspect losses this round
    std::size_t deaths = 0;             ///< Suspect -> Dead timeouts + leaves
    std::size_t recoveries = 0;         ///< Suspect -> Alive heartbeats
    std::size_t rejoins_stale = 0;      ///< promotions handed a newer prior

    /// Total churn events this round (the SLO / monotonicity aggregate).
    std::size_t churn_events() const noexcept {
        return joins + rejoins + leaves + heartbeats_missed;
    }
};

/// The server's per-device membership table. Driver-thread only: every
/// mutation happens in device order inside event handlers, so the table's
/// evolution is a pure function of (config, plan) — never of the thread or
/// shard layout. Shards see it read-only through the participation mask.
class MembershipTable {
 public:
    /// Empty table (capacity 0); usable as a "membership off" placeholder.
    MembershipTable() = default;

    /// `initial_members` slots boot Alive at prior version 1 (the bootstrap
    /// broadcast); the tail boots Unknown at version 0.
    MembershipTable(std::size_t capacity, std::size_t initial_members,
                    std::size_t suspect_rounds_to_dead);

    std::size_t capacity() const noexcept { return records_.size(); }
    LivenessState state(std::size_t device) const;

    /// Round-start transitions, driver thread, device order: every Joining
    /// slot is promoted to Alive and handed the latest prior — flagged
    /// stale when it provably missed a broadcast while Dead — then the
    /// per-round event counters reset and the participation mask snapshots.
    void begin_round();

    /// 1 for slots that run this round (Alive or Suspect at the snapshot),
    /// 0 otherwise. Valid until the next begin_round; size == capacity().
    const std::vector<std::uint8_t>& participation() const noexcept {
        return participation_;
    }

    /// True iff this device was promoted from a rejoin at the last
    /// begin_round AND its stored prior predated the current broadcast —
    /// the engine overlays DegradedReason::kRejoinStalePrior from this.
    bool resumed_stale(std::size_t device) const;

    /// kDeviceJoin handler: Unknown -> Joining (no-op in any other state).
    void apply_join(std::size_t device);

    /// kDeviceRejoin handler: Dead -> Joining (no-op in any other state).
    void apply_rejoin(std::size_t device);

    /// kHeartbeatDeadline handler: folds the round's leave / heartbeat
    /// outcomes over every Alive/Suspect device in device order, reading
    /// each device's packed decision (DeviceChurnDecision::packed(), as
    /// ChurnPlan::fill_decisions writes it) from `decisions`, one byte per
    /// slot. A leave kills outright; a missed heartbeat suspects (or, after
    /// suspect_rounds_to_dead consecutive misses, kills); a heartbeat
    /// received by a Suspect recovers it and re-syncs its prior (the
    /// heartbeat response carries the current version). Throws
    /// std::invalid_argument unless decisions.size() == capacity().
    void heartbeat_deadline(const std::vector<std::uint8_t>& decisions);

    /// A prior broadcast goes out: bump the version and sync every Alive
    /// device. Suspect/Dead devices are deliberately left behind — that is
    /// the staleness a rejoin later surfaces.
    void record_broadcast();

    std::size_t alive_count() const noexcept;
    std::uint64_t prior_version() const noexcept { return version_; }

    /// Census of the current states plus this round's event counters.
    MembershipCounts counts() const;

 private:
    struct Record {
        LivenessState state = LivenessState::kUnknown;
        std::uint32_t missed_heartbeats = 0;
        std::uint64_t prior_version = 0;  ///< last version this device holds
        bool joining_from_dead = false;   ///< pending promotion is a rejoin
        bool resumed_stale = false;       ///< valid for the current round
    };

    std::vector<Record> records_;
    std::vector<std::uint8_t> participation_;
    MembershipCounts events_;  // event fields only; census computed on demand
    std::uint64_t version_ = 1;
    std::size_t suspect_rounds_to_dead_ = 2;
};

}  // namespace drel::edgesim
