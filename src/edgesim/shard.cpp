#include "edgesim/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/profiler.hpp"

namespace drel::edgesim {
namespace {

/// Deferred-scoring buffers of one shard round (about 0.5 MB at 6250
/// devices). Like the Workspace::local() arena the round works in, they are
/// kept per thread so their capacity outlives the engine run: buffers
/// allocated per run go back to the OS at its end and are faulted in again
/// at the next start.
struct DeferScratch {
    std::vector<std::size_t> devices;  ///< global indices, slice order
    std::vector<std::size_t> tags;
    std::vector<double> thetas;        ///< row-major [deferred x dim]
    std::vector<double> accuracy;
};

DeferScratch& thread_defer_scratch() {
    static thread_local DeferScratch scratch;
    return scratch;
}

}  // namespace

stats::Rng device_stream(const stats::Rng& device_root, std::size_t round,
                         std::size_t device, DeviceStream purpose) {
    return device_root.fork(round).fork(device).fork(static_cast<std::uint64_t>(purpose));
}

std::vector<ShardLayout> make_shard_layouts(std::size_t devices, std::size_t num_shards) {
    if (num_shards == 0) num_shards = 1;
    std::vector<ShardLayout> layouts(num_shards);
    const std::size_t base = devices / num_shards;
    const std::size_t extra = devices % num_shards;
    std::size_t begin = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
        const std::size_t size = base + (s < extra ? 1 : 0);
        layouts[s].index = s;
        layouts[s].begin = begin;
        layouts[s].end = begin + size;
        begin += size;
    }
    return layouts;
}

void RoundSoA::resize(std::size_t devices) {
    accuracy.assign(devices, 0.0);
    latency_seconds.assign(devices, 0.0);
    degraded.assign(devices, DegradedReason::kNone);
    scored.assign(devices, 0);
    novel.assign(devices, 0);
    stale_prior.assign(devices, 0);
    upload_attempts.assign(devices, 0);
    upload_delivered.assign(devices, 0);
    upload_garbled.assign(devices, 0);
    upload_retries.assign(devices, 0);
}

Shard::Shard(ShardLayout layout, std::size_t theta_dim)
    : layout_(layout), theta_dim_(theta_dim) {}

ShardRoundOutput Shard::run_round(std::size_t round, const stats::Rng& device_root,
                                  const FaultPlan& plan, const DeviceWork& work,
                                  RoundSoA& soa, double deadline_seconds,
                                  bool keep_thetas, const BatchScoreFn* batch_score,
                                  const std::uint8_t* participating) {
    DREL_PROFILE_SCOPE("engine.shard_round");
    if (layout_.end > soa.size()) {
        throw std::invalid_argument("Shard::run_round: SoA smaller than shard range");
    }
    ShardRoundOutput out;
    out.batch.round = static_cast<std::uint32_t>(round);
    out.batch.shard = static_cast<std::uint32_t>(layout_.index);
    util::Workspace& ws = util::Workspace::local();
    // Taken out of the thread's slot for the round and handed back at its
    // end, so a round nested on this thread cannot clobber it.
    DeferScratch defer = std::move(thread_defer_scratch());
    defer.devices.clear();
    defer.tags.clear();
    defer.thetas.clear();

    for (std::size_t j = layout_.begin; j < layout_.end; ++j) {
        // Non-member slot (Unknown/Joining/Dead): skip without renumbering.
        // The SoA row keeps its freshly-reset defaults, and no stream is
        // touched — a skipped device's RNG cells stay byte-identical for
        // the round it rejoins.
        if (participating != nullptr && participating[j] == 0) continue;
        const DeviceFaultDecision faults = plan.device_faults(round, j);
        if (plan.active()) record_injected_faults(faults);

        stats::Rng work_rng = device_stream(device_root, round, j, DeviceStream::kWork);
        DeviceResult result;
        if (faults.crash) {
            // Died mid-round: contributes nothing — no score, no upload.
            result.reason = DegradedReason::kCrashed;
        } else {
            // Work that queries its own cell gets the decision drawn above.
            const FaultPlan::ScopedCell cell(plan, round, j, faults);
            result = work(round, j, work_rng, ws);
        }

        // Virtual latency: a bounded healthy draw plus whatever simulated
        // time the work itself accrued (upload backoff). Stragglers land
        // deterministically past the deadline; crashes never complete and
        // are pinned AT the deadline for the percentile arrays.
        stats::Rng lat_rng = device_stream(device_root, round, j, DeviceStream::kLatency);
        const double healthy =
            deadline_seconds * (0.05 + 0.20 * lat_rng.uniform()) + result.extra_seconds;
        double latency;
        if (faults.crash) {
            latency = deadline_seconds;
        } else if (faults.straggler) {
            latency = deadline_seconds * (1.5 + 0.5 * lat_rng.uniform());
        } else {
            latency = std::min(healthy, deadline_seconds);
            out.completion_seconds = std::max(out.completion_seconds, latency);
        }

        // Collect deferred thetas BEFORE the upload block may move the
        // vector into the batch. Accuracy for these devices is written by
        // the batch scorer below; the placeholder keeps the slot defined.
        if (result.defer_score && batch_score != nullptr) {
            if (result.theta.size() != theta_dim_) {
                throw std::invalid_argument(
                    "Shard::run_round: defer_score without a populated theta");
            }
            defer.devices.push_back(j);
            defer.tags.push_back(result.score_tag);
            defer.thetas.insert(defer.thetas.end(), result.theta.begin(), result.theta.end());
        }

        soa.accuracy[j] = result.accuracy;
        soa.latency_seconds[j] = latency;
        soa.degraded[j] = result.reason;
        soa.scored[j] = result.scored ? 1 : 0;
        soa.novel[j] = result.novel ? 1 : 0;
        soa.stale_prior[j] = result.stale_prior ? 1 : 0;
        soa.upload_attempts[j] = static_cast<std::uint16_t>(
            std::min<int>(result.upload_attempts, 0xFFFF));
        soa.upload_delivered[j] = result.upload_delivered ? 1 : 0;
        soa.upload_garbled[j] = result.upload_garbled ? 1 : 0;
        soa.upload_retries[j] = static_cast<std::uint32_t>(std::max(0, result.upload_retries));

        if (result.attempted_upload && result.upload_delivered && !result.upload_garbled) {
            if (result.theta.size() != theta_dim_) {
                throw std::invalid_argument(
                    "Shard::run_round: uploaded theta dimension != theta_dim");
            }
            out.batch.devices.push_back(j);
            if (keep_thetas) out.batch.thetas.emplace_back(j, std::move(result.theta));
        }
    }
    if (!defer.devices.empty()) {
        DREL_PROFILE_SCOPE("engine.shard_batch_score");
        defer.accuracy.assign(defer.devices.size(), 0.0);
        (*batch_score)(round, defer.tags.data(), defer.thetas.data(), defer.devices.size(),
                       theta_dim_, defer.accuracy.data(), ws);
        for (std::size_t i = 0; i < defer.devices.size(); ++i) {
            soa.accuracy[defer.devices[i]] = defer.accuracy[i];
        }
    }
    thread_defer_scratch() = std::move(defer);

    const std::size_t uploads = out.batch.devices.size();
    const std::size_t theta_bytes = theta_dim_ * sizeof(double);
    out.batch.on_air_bytes =
        uploads == 0 ? 0
                     : sizeof(std::uint64_t) + 2 * theta_bytes +
                           (keep_thetas ? uploads * theta_bytes : 0);
    return out;
}

}  // namespace drel::edgesim
