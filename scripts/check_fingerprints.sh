#!/usr/bin/env bash
# Reproduces the recorded seed-1 output fingerprint of every fleetbench
# workload and fails on any difference. A change that claims to leave the
# library's results bit-identical (a pure speedup) must pass this; a change
# that moves results on purpose re-records fleetbench/fingerprints.json in
# the same change, with the reason stated.
#
# This is the fleetbench suite's own fingerprint test: it runs every
# workload with `fleetbench/run.py --seed 1 --seconds 1` (untraced, then
# traced) and asserts each printed fingerprint equals
# `run.recorded_fingerprint(workload, 1)`. The first call builds fleet_bench
# into .bench_build/, about a minute on four cores. `-B` keeps Python from
# writing bytecode, so nothing under fleetbench/ is written.
#
# Usage: scripts/check_fingerprints.sh
set -euo pipefail

cd "$(dirname "$0")/.."
exec python3 -B fleetbench/test_fleetbench.py Outputs.test_every_workload_emits_every_metric
