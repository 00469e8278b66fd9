// Structure-of-arrays fleet shards + the collision-free RNG stream scheme.
//
// A shard owns a contiguous slice [begin, end) of the round's device index
// space and writes its per-device results into slices of the round's global
// SoA arrays. Devices keep their GLOBAL index everywhere — RNG streams and
// fault decisions are pure functions of (round, global device) — so the
// shard partition is an execution detail: any shard count produces the same
// report, and shards can run on any thread.
//
// RNG sub-streams (the aliasing fix)
// ----------------------------------
// The old lifecycle derived per-device streams as
//     round_rng.fork(round * 1000 + j)
// which aliases as soon as devices_per_round > 1000 — round r's device 1000
// shares a stream with round r+1's device 0 — and collides with the cloud
// update tags 90000 + round / 91000 + round from round 90 on. "Independent"
// devices were silently correlated, exactly the regime the distributed-DRO
// convergence analysis assumes away.
//
// The fix is hierarchical: every consumer gets its own root fork of the run
// seed, and per-cell streams are derived by CHAINED forks
//     device_root.fork(round).fork(device).fork(purpose)
// so distinct (round, device, purpose) cells can never collapse onto one
// tag by arithmetic, at any fleet size. Cloud/server streams hang off a
// DISJOINT root fork (see server.hpp), so they cannot meet a device stream
// either. DESIGN.md "Sharded fleet & server loop" documents the full tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "edgesim/faults.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"
#include "util/workspace.hpp"

namespace drel::edgesim {

/// Per-(round, device) stream flavours. Work and latency draws come from
/// separate leaves so adding latency modelling never perturbs training
/// data, mirroring how the fault plan keeps its own stream.
enum class DeviceStream : std::uint64_t {
    kWork = 0,     ///< task sampling, data generation, training
    kLatency = 1,  ///< virtual compute/transfer latency draws
};

/// Collision-free per-device sub-stream: device_root.fork(round)
/// .fork(device).fork(purpose). `device` is the GLOBAL device index.
stats::Rng device_stream(const stats::Rng& device_root, std::size_t round,
                         std::size_t device, DeviceStream purpose);

/// Contiguous device range owned by one shard.
struct ShardLayout {
    std::size_t index = 0;
    std::size_t begin = 0;  ///< first global device index (inclusive)
    std::size_t end = 0;    ///< past-the-end global device index

    std::size_t size() const noexcept { return end - begin; }
};

/// Splits `devices` into `num_shards` near-equal contiguous ranges (the
/// first `devices % num_shards` shards get one extra). num_shards == 0 is
/// treated as 1; shards beyond the device count come back empty.
std::vector<ShardLayout> make_shard_layouts(std::size_t devices, std::size_t num_shards);

/// Mergeable sufficient statistics of a set of uploaded parameter vectors:
/// count, per-coordinate sum and sum of squares. Merging is associative, so
/// shard batches can be combined in any grouping — what lets the server
/// ingest batches instead of individual uploads.
struct UploadStats {
    std::size_t count = 0;
    linalg::Vector sum;     ///< Σ theta
    linalg::Vector sum_sq;  ///< Σ theta ⊙ theta

    void add(const linalg::Vector& theta);
    void merge(const UploadStats& other);

    /// Wire size of the statistics triple (count + 2 vectors of doubles).
    std::size_t encoded_bytes() const noexcept;
};

/// One shard's aggregated uploads for one round — the unit of admission at
/// the server. Carries the raw thetas only when the consumer needs full
/// fidelity (the lifecycle's Gibbs refresh); the scale path ships the
/// sufficient statistics alone.
struct UploadBatch {
    std::uint32_t round = 0;
    std::uint32_t shard = 0;
    UploadStats stats;
    /// (global device index, theta) for full-fidelity consumers, in device
    /// order. Empty when the engine runs on sufficient statistics only.
    std::vector<std::pair<std::size_t, linalg::Vector>> thetas;
    /// Global indices of devices whose upload rode in this batch (delivered
    /// AND usable) — the devices to mark degraded if the batch is rejected.
    std::vector<std::size_t> devices;
    /// Shard -> server transfer cost for this batch on the wire.
    std::size_t on_air_bytes = 0;
};

/// The round's global structure-of-arrays result store. The engine sizes
/// the arrays to devices_per_round; each shard writes only its slice, so
/// parallel shard execution needs no synchronisation. Reductions run over
/// the global arrays in index order, making every reported aggregate
/// independent of both the shard partition and the thread schedule.
struct RoundSoA {
    std::vector<double> accuracy;          ///< valid where scored != 0
    std::vector<double> latency_seconds;   ///< virtual completion latency
    std::vector<DegradedReason> degraded;
    std::vector<std::uint8_t> scored;
    std::vector<std::uint8_t> novel;
    /// Trained against an out-of-date prior — tracked separately from
    /// `degraded` because a later, stronger reason (solver fallback) may
    /// overwrite the reason slot without un-staling the round.
    std::vector<std::uint8_t> stale_prior;
    std::vector<std::uint16_t> upload_attempts;  ///< on-air tries (0 = no upload)
    std::vector<std::uint8_t> upload_delivered;
    std::vector<std::uint8_t> upload_garbled;
    std::vector<std::uint32_t> upload_retries;

    void resize(std::size_t devices);
    std::size_t size() const noexcept { return degraded.size(); }
};

/// Outcome of one device's round, produced by the engine-owned work
/// callback and folded into the SoA slice by the shard.
struct DeviceResult {
    double accuracy = 0.0;
    bool scored = false;
    bool novel = false;
    bool stale_prior = false;
    DegradedReason reason = DegradedReason::kNone;
    /// Training finished and produced an upload attempt this round.
    bool attempted_upload = false;
    int upload_attempts = 0;
    int upload_retries = 0;
    bool upload_delivered = false;
    bool upload_garbled = false;
    /// Uploaded parameter vector (post-garbling); meaningful only when
    /// attempted_upload && upload_delivered — or when `defer_score` asks the
    /// shard to score it (then it must always be populated).
    linalg::Vector theta;
    /// Extra simulated seconds the device spent before completing (upload
    /// backoff, stretched compute); added to the latency draw.
    double extra_seconds = 0.0;

    /// The work callback produced `theta` and `score_tag` but left
    /// `accuracy` to the shard: after its device loop the shard hands every
    /// deferred theta to the engine's BatchScoreFn in one call (the batched
    /// responsibilities kernel). Requires a populated `theta` and
    /// `scored == true`; ignored when the engine has no batch scorer.
    bool defer_score = false;
    /// Opaque per-device tag forwarded to the batch scorer (the scale
    /// fleet passes the true mode index to match).
    std::size_t score_tag = 0;
};

/// Scores `count` deferred devices in one call: `thetas` is a row-major
/// [count x dim] block in slice order, `tags` the matching score_tags;
/// writes one accuracy per device into `accuracy_out`. Must be pure and
/// thread-safe — shards may invoke it concurrently with their own arenas.
using BatchScoreFn = std::function<void(
    std::size_t round, const std::size_t* tags, const double* thetas, std::size_t count,
    std::size_t dim, double* accuracy_out, util::Workspace& ws)>;

/// Per-device domain logic, supplied by the driver (full EM training for
/// the lifecycle, cheap prior scoring for the scale bench). `work_rng` is
/// the device's kWork stream; `ws` is the executing shard's arena.
using DeviceWork = std::function<DeviceResult(
    std::size_t round, std::size_t device, stats::Rng& work_rng, util::Workspace& ws)>;

/// What a shard hands back to the engine after computing its slice.
struct ShardRoundOutput {
    UploadBatch batch;
    /// Virtual time from round start until the slowest non-crashed,
    /// non-straggler device in the slice finished (0 for an empty slice).
    double completion_seconds = 0.0;
};

/// One shard: its device range. Shards are independent — the engine may run
/// any subset of them concurrently. A round's scratch (the workspace handed
/// to `work`, the deferred-scoring buffers) belongs to the thread running
/// it, not to the shard, so its capacity survives across rounds AND engine
/// runs: a steady stream of fleet runs allocates nothing here.
class Shard {
 public:
    Shard(ShardLayout layout, std::size_t theta_dim);

    const ShardLayout& layout() const noexcept { return layout_; }

    /// Computes the slice [layout.begin, layout.end) for `round`: derives
    /// each device's work/latency streams, applies the fault plan, runs
    /// `work`, writes the SoA slice, and assembles the upload batch
    /// (sufficient stats always; raw thetas when `keep_thetas`).
    /// `deadline_seconds` caps healthy latency draws; stragglers land past
    /// it deterministically. Devices whose result sets `defer_score` are
    /// collected and scored by `batch_score` in ONE call after the device
    /// loop (slice order, so the batch is a pure function of the slice);
    /// pass nullptr when no work defers.
    ///
    /// `participating` (when non-null) is the membership mask over GLOBAL
    /// device indices: a 0 slot is skipped entirely — no fault query, no
    /// RNG draw, no work, no latency — and its SoA entries stay at their
    /// freshly-reset defaults (unscored, kNone). Slots keep their indices:
    /// a Dead device's neighbours never renumber, so every per-device
    /// stream stays aligned. nullptr means everyone participates.
    ShardRoundOutput run_round(std::size_t round, const stats::Rng& device_root,
                               const FaultPlan& plan, const DeviceWork& work,
                               RoundSoA& soa, double deadline_seconds, bool keep_thetas,
                               const BatchScoreFn* batch_score = nullptr,
                               const std::uint8_t* participating = nullptr);

 private:
    ShardLayout layout_;
    std::size_t theta_dim_;
};

}  // namespace drel::edgesim
