#!/usr/bin/env bash
# Builds and runs the concurrency and chaos tests under ThreadSanitizer and
# AddressSanitizer (the DREL_SANITIZE CMake option). Part of the verify
# flow for any change to util/thread_pool, util/executor, or code running
# on the shared executor (fleet simulation, EM multi-start, collaborative),
# and for the fault-injection layer (test_faults): the chaos suite drives
# the degraded paths the healthy tests never touch, so memory/race bugs on
# those paths only surface here.
#
# Both sanitizer suites always run: a ThreadSanitizer failure no longer
# short-circuits the AddressSanitizer pass. The script exits non-zero if
# EITHER suite failed.
#
# The SIMD dispatch and sampling-statistics suites (test_simd_dispatch,
# test_sampling_stats) ride in both sanitizer builds: the dispatch layer's
# scoped-override atomics are TSan territory, and the alias/reservoir
# builds index worklists ASan should watch.
#
# The observability suite (test_obs: Timeseries/Health/FleetHealth) rides
# along too: histograms are observed from worker threads through relaxed
# atomics and the engine's telemetry fold runs on the driver while shards
# fan out — exactly the write/read boundary TSan must bless.
#
# The membership/churn suite (test_membership, test_membership_stats) is in
# both builds as well: shards read the driver-owned participation mask while
# fanned out, and Dead-slot skipping changes which SoA rows each thread
# touches — precisely the sharing pattern the sanitizers must bless. The
# shards also fill disjoint ranges of the round's churn decision array that
# the driver then folds (MembershipEngine.DecisionArray*,
# MembershipTableTest.PrecomputedFold*), and each device's work runs inside
# a thread-local published fault cell (FaultPlanScopedCell.*).
#
# The streaming-posterior and wire-v2 suites (test_streaming_posterior,
# test_transfer_v2) ride in both builds too: the merge/fold property tests
# exercise the fixed-point SuffStats accumulators over arbitrary partition
# trees, and the v2 decoders parse attacker-shaped buffers with bit-packed
# reads — buffer arithmetic ASan exists to falsify.
#
# The RNG suite (test_rng) rides in both builds: the lazily built engine
# state is copied word-by-word up to its built prefix, and ASan should watch
# those copies and the chunked first-block twist index arithmetic. Its bulk
# normal fill (RngFill, RngPinned) writes through a raw pointer, as does the
# data generator that fills feature rows in place (test_data:
# GenerateInPlace); the L-BFGS correction ring (test_optim: LbfgsRing)
# swaps preallocated vectors in and out of its slots.
#
# The evaluate-once differential suites ride in both builds as well
# (test_optim: LineSearchAccepted, LbfgsEvalReuse; test_dp: FusedSurrogate,
# GibbsMeanCache; test_core: EmDro.ObjectiveMonotone*, EmDro.TraceTerms*):
# the Gibbs sampler keeps per-cluster cached mean vectors that move on
# compaction, and the line search hands its probe gradient over by move — a stale or moved-from
# vector read is exactly what ASan should catch. The lifecycle suite
# (test_lifecycle) rides along because the cloud's bootstrap contributor
# fits run on the shared executor, checked at 2 and 4 threads.
#
# Usage: scripts/check_sanitizers.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

failed=()
for sanitizer in thread address; do
    build_dir="build-${sanitizer}san"
    echo "=== ${sanitizer} sanitizer ==="
    cmake -B "${build_dir}" -S . -DDREL_SANITIZE="${sanitizer}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "${build_dir}" -j "${jobs}" \
        --target test_util test_concurrency test_faults test_engine \
                 test_membership test_membership_stats \
                 test_linalg_property test_dro_invariants \
                 test_simd_dispatch test_sampling_stats test_obs \
                 test_streaming_posterior test_transfer_v2 test_rng \
                 test_optim test_dp test_core test_lifecycle test_data > /dev/null
    # The property/differential harness (ctest -L property) runs here too:
    # the allocation-free kernels and workspace arenas are exactly the code
    # whose buffer reuse ASan/TSan can falsify. The event-driven engine
    # suite (test_engine) rides along because its shard fan-out merges
    # per-shard SoA slices across threads — the exact pattern TSan exists
    # to check.
    if ! (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}" \
        -R 'ThreadPool|ParallelFor|ParallelReduce|Executor|Determinism|Fault|Chaos|EmDroDegradation|WorkspaceKernels|LinalgProperty|DroInvariants|FleetEngine|FleetHealth|EventQueue|StreamScheme|ScaleFleet|ShardLayout|UploadSufficientStats|SimdDispatch|SamplingStats|Timeseries|Health\.|Metrics\.|Membership|Churn|DecisionArray|PrecomputedFold|FaultPlanScopedCell|Liveness|Streaming|Transfer|RngStream|RngMethod|RngFill|RngPinned|GenerateInPlace|LbfgsRing|LineSearchAccepted|LbfgsEvalReuse|FusedSurrogate|GibbsMeanCache|EmDro\.ObjectiveMonotone|EmDro\.TraceTerms|Lifecycle\.'); then
        echo "!!! ${sanitizer} sanitizer suite FAILED"
        failed+=("${sanitizer}")
    fi
done

if [ "${#failed[@]}" -ne 0 ]; then
    echo "sanitizer checks FAILED: ${failed[*]}"
    exit 1
fi
echo "sanitizer checks passed"
