#!/usr/bin/env python3
"""Fleet benchmark: build, run one workload, check and report.

    python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds fleetbench/fleet_bench against the repository's library sources
(into .bench_build/ at the repository root), runs one workload and prints,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics of untraced entry-point calls;
--trace 1 reports the per-layer metrics of the traced replica run. A
human-readable table goes to standard error. The exit code is 0 only when
every output check passed. See fleetbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fleetbench")
BINARY = os.path.join(BUILD_DIR, "fleet_bench")
# Output fingerprints of full-size runs, by workload and seed. A mismatch is
# reported, not failed: it marks a change of the library's results.
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")

WORKLOADS = ["scale_healthy", "scale_churn", "lifecycle_stream", "lifecycle_default"]
SCALE = {"scale_healthy", "scale_churn"}

# Reported for a quality metric on a workload family it does not apply to
# (mode recovery on the lifecycle, novel-type accuracy on the scale fleet):
# a fixed value, so the metric never moves there.
NOT_APPLICABLE = 1.0

# name -> (unit, better); the order is the order of the printed table.
END_TO_END = {
    "throughput_dev_rnd_per_s": ("1/s", "higher"),
    "cpu_ms_per_kdev_rnd": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "healthy_fraction": ("ratio", "higher"),
    "mode_recovery": ("ratio", "higher"),
    "mean_accuracy": ("ratio", "higher"),
    "novel_accuracy": ("ratio", "higher"),
    "bcast_bytes_per_dev_rnd": ("B", "lower"),
    "bytes_per_dev_rnd": ("B", "lower"),
}

PER_LAYER = {
    "edgesim.engine.per_device_overhead_us": ("us", "lower"),
    "edgesim.round_close_ms": ("ms", "lower"),
    "edgesim.round_open_ms": ("ms", "lower"),
    "edgesim.engine.events_per_round": ("count", "lower"),
    "util.executor.busy_share": ("ratio", "higher"),
    "util.executor.barrier_wait_ms": ("ms", "lower"),
    "stats.rng.device_stream_us": ("us", "lower"),
    "stats.rng.device_stream_us_p999": ("us", "lower"),
    "stats.rng.fork_us": ("us", "lower"),
    "stats.rng.fork_us_p999": ("us", "lower"),
    "edgesim.faults.decide_us_per_device": ("us", "lower"),
    "edgesim.churn.decide_us_per_device": ("us", "lower"),
    "edgesim.churn.decide_us_p999": ("us", "lower"),
    "probe.samples": ("count", "higher"),
    "dp.batch_score_us_per_device": ("us", "lower"),
    "dp.cloud_refit_ms_per_round": ("ms", "lower"),
    "dp.gibbs.add_observation_us_p50": ("us", "lower"),
    "dp.gibbs.add_observation_us_p99": ("us", "lower"),
    "dp.gibbs.history_size": ("count", "lower"),
    "dp.streaming.accumulate_us": ("us", "lower"),
    "dp.kl_check_ms_per_round": ("ms", "lower"),
    "core.em_fit_ms_p50": ("ms", "lower"),
    "core.em_fit_ms_p99": ("ms", "lower"),
    "core.em.outer_iterations": ("count", "lower"),
    "core.em.degraded_fits": ("count", "lower"),
    "core.em.e_step_ms": ("ms", "lower"),
    "core.em.m_step_ms": ("ms", "lower"),
    "optim.lbfgs_self_ms": ("ms", "lower"),
    "dro.wasserstein_eval_ms": ("ms", "lower"),
    "optim.upload_fit_ms": ("ms", "lower"),
    "data.generate_ms_per_device": ("ms", "lower"),
    "models.accuracy_ms_per_device": ("ms", "lower"),
    "edgesim.transfer.encode_us": ("us", "lower"),
    "edgesim.transfer.payload_bytes": ("B", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.replica_match": ("count", "higher"),
}

SETUP_SAMPLES = 5      # processes timed from spawn to "ready", the main run included
RUN_DEADLINE_S = 160.0  # after the build; the whole command must end within 180 s


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def runner_threads():
    """At most four runners, and never more than this process may use."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def child_env():
    # The workloads pin every library knob; DREL_* overrides are dropped.
    return {k: v for k, v in os.environ.items() if not k.startswith("DREL_")}


def build():
    """Configures (once) and builds the benchmark binary; idempotent."""
    if not os.path.isfile(os.path.join(ROOT, "src", "edgesim", "server.hpp")):
        raise BenchError("library sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr, env=child_env())
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(runner_threads())],
                       check=True, stdout=sys.stderr, env=child_env())


def spawn(args, deadline):
    """Runs the binary; returns (seconds from spawn to its "ready" line, last
    stdout line parsed as JSON or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, text=True,
                            env=child_env())
    ready_at = None
    last = None
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == "ready" and ready_at is None:
                ready_at = time.perf_counter() - start
            elif line:
                last = line
            if time.perf_counter() > deadline:
                raise BenchError("run exceeded its time budget")
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError("fleet_bench %s exited with %d" % (" ".join(args), proc.returncode))
    if ready_at is None:
        raise BenchError("fleet_bench never reported ready")
    return ready_at, (json.loads(last) if last and last.startswith("{") else None)


def recorded_fingerprint(workload, seed):
    with open(FINGERPRINTS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def end_to_end(opts, common, deadline):
    setup = []
    ready, raw = spawn(["--mode", "run", "--seconds", str(opts.seconds)] + common, deadline)
    setup.append(ready)
    for _ in range(SETUP_SAMPLES - 1):
        setup.append(spawn(["--mode", "setup"] + common, deadline)[0])
    if raw is None:
        raise BenchError("fleet_bench run printed no result")

    # Medians over all calls of the run, whatever their sub-seed: robust to a
    # stretch of calls slowed by a busy host, and to an unusually costly
    # population.
    device_rounds = raw["device_rounds"]
    wall, cpu = raw["wall_s"], raw["cpu_s"]
    quality = raw["quality"]
    scale = opts.workload in SCALE
    values = {
        "throughput_dev_rnd_per_s": statistics.median(device_rounds / w for w in wall),
        "cpu_ms_per_kdev_rnd": statistics.median(cpu) * 1e3 / (device_rounds / 1e3),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
        "healthy_fraction": quality["healthy_fraction"],
        "mode_recovery": quality["mode_recovery"] if scale else NOT_APPLICABLE,
        "mean_accuracy": quality["mean_accuracy"],
        "novel_accuracy": NOT_APPLICABLE if scale else quality["novel_accuracy"],
        "bcast_bytes_per_dev_rnd": quality["bcast_bytes_per_dev_rnd"],
        "bytes_per_dev_rnd": quality["bytes_per_dev_rnd"],
    }
    log("calls: %d, wall s: %s" % (len(wall), " ".join("%.3f" % w for w in wall)))
    log("setup s: %s" % " ".join("%.3f" % s for s in setup))
    print("fingerprint %s seed=%d %s" % (opts.workload, opts.seed, raw["fingerprint"]))
    recorded = recorded_fingerprint(opts.workload, opts.seed)
    if recorded is not None and recorded != raw["fingerprint"]:
        log("NOTE: outputs differ from the fingerprint recorded in %s (%s): the library's "
            "results changed" % (os.path.basename(FINGERPRINTS), recorded))
    return values, len(wall), raw["failed_calls"], raw["violations"], END_TO_END


def per_layer(opts, common, deadline):
    _, raw = spawn(["--mode", "trace"] + common, deadline)
    if raw is None:
        raise BenchError("fleet_bench trace printed no result")
    calls = raw["traced_calls"]
    failed = 0 if raw["replica_match"] else calls
    return raw["metrics"], calls, failed, raw["violations"], PER_LAYER


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    try:
        build()
        deadline = time.perf_counter() + RUN_DEADLINE_S
        common = ["--workload", opts.workload, "--seed", str(opts.seed),
                  "--threads", str(runner_threads())]
        measure = per_layer if opts.trace else end_to_end
        values, attempted, failed, violations, table = measure(opts, common, deadline)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError, ValueError) as err:
        log("fleetbench: %s" % err)
        return 1

    metrics = {}
    for name, (unit, _) in table.items():
        value = values.get(name)
        if value is None:
            violations.append("metric %s missing" % name)
            continue
        metrics[name] = {"value": value, "unit": unit}
        log("  %-40s %14.6g %s" % (name, value, unit))
    for violation in violations:
        log("VIOLATION: %s" % violation)
    correct = not violations and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
