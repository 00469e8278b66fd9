// Traced replicas of the library's fleet entry points.
//
// run_replica drives edgesim::run_fleet_engine directly with the benchmark's
// own DeviceWork / BatchScoreFn / RoundEndFn closures. Each closure makes the
// same public calls, in the same order and on the same stream forks, as the
// closures inside edgesim::run_scale_fleet and edgesim::run_lifecycle, and
// wraps every call into a layer in a Span. The replica therefore reproduces
// the entry point's deterministic outputs exactly (the traced run proves it
// before reporting any span), while the spans say where the time went.
//
// What the replica leaves out: the process-wide obs::Registry counters the
// lifecycle bumps (observability only, no effect on outputs) and the
// DREL_CLOUD_REFIT override (the benchmark runs with DREL_* unset).
#pragma once

#include <cstdint>

#include "spans.hpp"
#include "workloads.hpp"

namespace fleetbench {

struct ReplicaRun {
    Outputs outputs;
    std::uint64_t events_processed = 0;
    double wall_seconds = 0.0;  ///< the whole replica call, set-up included
};

/// Runs the workload's replica once with a fresh Rng(seed). A null tracer
/// records nothing.
ReplicaRun run_replica(const Workload& workload, std::uint64_t seed, Tracer* tracer);

}  // namespace fleetbench
