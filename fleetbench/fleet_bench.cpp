// fleet_bench: the measuring process behind fleetbench/run.py.
//
//   fleet_bench --mode setup    --workload W --seed S --threads T
//   fleet_bench --mode run      --workload W --seed S --threads T --seconds X
//   fleet_bench --mode trace    --workload W --seed S --threads T
//   fleet_bench --mode selftest --threads T
//
// Every mode but selftest first sets up (input construction, executor start,
// one-round warm-up call) and prints the line "ready"; run.py times process
// start to that line as the set-up time. `setup` exits there. `run` then
// calls the workload's entry point, cycling through its sub-seeds, until X
// seconds have passed and every sub-seed ran (one sub-seed at least twice),
// and prints one JSON line of raw samples. `trace` runs the
// traced replica, proves it reproduces the entry point, and prints the
// per-layer metrics. `selftest` checks the replica and the fingerprint on a
// tiny fleet of each family.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "edgesim/membership.hpp"
#include "edgesim/shard.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "replica.hpp"
#include "spans.hpp"
#include "stats/descriptive.hpp"
#include "workloads.hpp"

extern char** environ;

namespace fleetbench {
namespace {

namespace edgesim = drel::edgesim;
using drel::obs::JsonValue;

struct Args {
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    std::size_t threads = 1;
    double seconds = 10.0;
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--mode") {
            args.mode = value;
        } else if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::stoull(value);
        } else if (key == "--threads") {
            args.threads = std::max<std::size_t>(1, std::stoul(value));
        } else if (key == "--seconds") {
            args.seconds = std::stod(value);
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    return args;
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return drel::stats::nearest_rank(values, q);
}

JsonValue json_list(const std::vector<double>& values) {
    return JsonValue::Array(values.begin(), values.end());
}

JsonValue json_strings(const std::vector<std::string>& values) {
    return JsonValue::Array(values.begin(), values.end());
}

/// One JSON object on one line: the last line run.py parses.
void print_line(JsonValue::Object object) {
    std::cout << JsonValue(std::move(object)).dump(0) << std::endl;
}

std::string hex(std::uint64_t value) {
    char buffer[19];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
    return buffer;
}

/// Input construction plus one single-round call of the entry point: starts
/// the executor's pool, faults in the code and the allocator arenas.
Workload set_up(const Args& args) {
    Workload workload = make_workload(args.workload, args.threads);
    run_entry_point(resized(workload, 1, workload.devices_per_round()), sub_seed(args.seed, 0));
    std::cout << "ready" << std::endl;
    return workload;
}

// ---------------------------------------------------------------------------
// --mode run

int run_mode(const Args& args) {
    const Workload workload = set_up(args);
    const std::size_t k_count = workload.sub_seeds;
    // Every sub-seed once, then at least one repeat, so each run proves its
    // outputs are deterministic; then the cycle continues until time is up.
    const std::size_t min_calls = std::max<std::size_t>(3, k_count + 1);
    std::vector<double> wall;  // per call, in call order
    std::vector<double> cpu;
    std::vector<std::size_t> calls_of(k_count, 0);
    std::vector<std::string> reference(k_count);
    std::vector<std::uint64_t> fingerprints(k_count, 0);
    std::vector<bool> sub_failed(k_count, false);
    std::vector<std::string> violations;
    std::size_t failed_calls = 0;
    QualityMetrics sum;  // over the sub-seeds
    const auto begin = std::chrono::steady_clock::now();
    while (wall.size() < min_calls || seconds_since(begin) < args.seconds) {
        const std::size_t k = wall.size() % k_count;
        const double cpu_start = cpu_seconds();
        const auto start = std::chrono::steady_clock::now();
        const Outputs outputs = run_entry_point(workload, sub_seed(args.seed, k));
        wall.push_back(seconds_since(start));
        cpu.push_back(cpu_seconds() - cpu_start);
        ++calls_of[k];

        std::string bytes = outputs.serialize();
        if (reference[k].empty()) {
            reference[k] = std::move(bytes);
            fingerprints[k] = outputs.fingerprint();
            const QualityMetrics q = quality_of(workload, outputs);
            sum.healthy_fraction += q.healthy_fraction;
            sum.mode_recovery += q.mode_recovery;
            sum.mean_accuracy += q.mean_accuracy;
            sum.novel_accuracy += q.novel_accuracy;
            sum.bcast_bytes_per_dev_rnd += q.bcast_bytes_per_dev_rnd;
            sum.bytes_per_dev_rnd += q.bytes_per_dev_rnd;
            for (const std::string& v : check_outputs(workload, outputs)) {
                violations.push_back("sub-seed " + std::to_string(k) + ": " + v);
                sub_failed[k] = true;
            }
        } else if (bytes != reference[k]) {
            sub_failed[k] = true;
            violations.push_back("sub-seed " + std::to_string(k) + " call " +
                                 std::to_string(calls_of[k]) +
                                 ": outputs differ from its first call (fingerprint " +
                                 hex(outputs.fingerprint()) + " vs " + hex(fingerprints[k]) +
                                 ")");
        }
    }
    std::uint64_t fingerprint = 1469598103934665603ull;
    for (std::size_t k = 0; k < k_count; ++k) {
        if (sub_failed[k]) failed_calls += calls_of[k];
        fingerprint = (fingerprint ^ fingerprints[k]) * 1099511628211ull;
    }
    const auto mean = [&](double total) { return total / static_cast<double>(k_count); };
    print_line({{"workload", workload.name},
                {"device_rounds", workload.device_rounds()},
                {"failed_calls", failed_calls},
                {"wall_s", json_list(wall)},
                {"cpu_s", json_list(cpu)},
                {"peak_rss_mb", peak_rss_mb()},
                {"fingerprint", hex(fingerprint)},
                {"quality", JsonValue::Object{
                                {"healthy_fraction", mean(sum.healthy_fraction)},
                                {"mode_recovery", mean(sum.mode_recovery)},
                                {"mean_accuracy", mean(sum.mean_accuracy)},
                                {"novel_accuracy", mean(sum.novel_accuracy)},
                                {"bcast_bytes_per_dev_rnd", mean(sum.bcast_bytes_per_dev_rnd)},
                                {"bytes_per_dev_rnd", mean(sum.bytes_per_dev_rnd)}}},
                {"violations", json_strings(violations)}});
    return 0;
}

// ---------------------------------------------------------------------------
// --mode trace: span analysis

/// Sums the spans of one traced call into per-layer totals.
struct LayerTotals {
    std::size_t runs = 0;
    std::size_t rounds = 0;
    std::size_t device_rounds = 0;
    std::size_t devices_scored = 0;
    std::uint64_t events = 0;
    double wall_seconds = 0.0;

    double parallel_capacity_s = 0.0;  ///< threads x parallel-phase wall
    double parallel_busy_s = 0.0;      ///< device-work + batch-score spans
    double parallel_overhead_s = 0.0; ///< inside each thread's active window, outside spans
    std::vector<double> barrier_wait_ms;  ///< per round
    std::vector<double> round_close_ms;   ///< per round
    std::vector<double> round_open_ms;    ///< per round after the first

    std::vector<double> total_s = std::vector<double>(static_cast<std::size_t>(Layer::kCount));
    std::vector<std::size_t> calls =
        std::vector<std::size_t>(static_cast<std::size_t>(Layer::kCount));
    std::vector<double> em_fit_ms;
    std::vector<double> gibbs_add_us;

    std::uint64_t em_fits = 0;
    std::uint64_t em_outer_iterations = 0;
    std::uint64_t em_degraded_fits = 0;
    std::uint64_t encodes = 0;
    std::uint64_t encoded_bytes = 0;
    std::size_t gibbs_history = 0;

    void add(const Workload& workload, const ReplicaRun& run, const Tracer& tracer,
             std::size_t threads);
};

void LayerTotals::add(const Workload& workload, const ReplicaRun& run, const Tracer& tracer,
                      std::size_t threads) {
    const std::size_t num_rounds = workload.rounds();
    ++runs;
    rounds += num_rounds;
    device_rounds += workload.device_rounds();
    events += run.events_processed;
    wall_seconds += run.wall_seconds;
    for (const RoundOutputs& r : run.outputs.rounds) devices_scored += r.devices_scored;

    struct Window {
        std::uint64_t first = UINT64_MAX;
        std::uint64_t last = 0;
        std::uint64_t busy = 0;
    };
    std::vector<Window> phase(num_rounds);
    std::vector<std::uint64_t> round_end_start(num_rounds, 0);
    std::vector<std::uint64_t> round_end_finish(num_rounds, 0);
    std::vector<double> active_s(num_rounds, 0.0);

    for (const std::vector<SpanRecord>& thread_spans : tracer.spans()) {
        std::vector<Window> mine(num_rounds);
        for (const SpanRecord& span : thread_spans) {
            const auto layer = static_cast<std::size_t>(span.layer);
            total_s[layer] += span.seconds();
            ++calls[layer];
            if (span.layer == Layer::kEmFit) em_fit_ms.push_back(span.seconds() * 1e3);
            if (span.layer == Layer::kGibbsAdd) gibbs_add_us.push_back(span.seconds() * 1e6);
            if (span.round >= num_rounds) continue;
            if (span.layer == Layer::kRoundEnd) {
                round_end_start[span.round] = span.start_ns;
                round_end_finish[span.round] = span.end_ns;
            }
            if (span.layer != Layer::kDeviceWork && span.layer != Layer::kBatchScore) continue;
            Window& w = mine[span.round];
            w.first = std::min(w.first, span.start_ns);
            w.last = std::max(w.last, span.end_ns);
            w.busy += span.end_ns - span.start_ns;
        }
        for (std::size_t r = 0; r < num_rounds; ++r) {
            const Window& w = mine[r];
            if (w.busy == 0 && w.last == 0) continue;
            const double active = static_cast<double>(w.last - w.first) * 1e-9;
            const double busy = static_cast<double>(w.busy) * 1e-9;
            parallel_busy_s += busy;
            parallel_overhead_s += std::max(0.0, active - busy);
            active_s[r] += active;
            phase[r].first = std::min(phase[r].first, w.first);
            phase[r].last = std::max(phase[r].last, w.last);
        }
    }
    for (std::size_t r = 0; r < num_rounds; ++r) {
        if (phase[r].last == 0) continue;
        const double wall = static_cast<double>(phase[r].last - phase[r].first) * 1e-9;
        const double capacity = static_cast<double>(threads) * wall;
        parallel_capacity_s += capacity;
        barrier_wait_ms.push_back(std::max(0.0, capacity - active_s[r]) * 1e3);
        if (round_end_start[r] >= phase[r].last) {
            round_close_ms.push_back(static_cast<double>(round_end_start[r] - phase[r].last) *
                                     1e-6);
        }
        if (r > 0 && round_end_finish[r - 1] != 0 &&
            phase[r].first >= round_end_finish[r - 1]) {
            round_open_ms.push_back(
                static_cast<double>(phase[r].first - round_end_finish[r - 1]) * 1e-6);
        }
    }
    em_fits += tracer.em_fits.load();
    em_outer_iterations += tracer.em_outer_iterations.load();
    em_degraded_fits += tracer.em_degraded_fits.load();
    encodes += tracer.encodes;
    encoded_bytes += tracer.encoded_payload_bytes;
    gibbs_history = std::max(gibbs_history, tracer.gibbs_history);
}

double per(double total, double count) { return count > 0.0 ? total / count : 0.0; }

struct ProbeStats {
    double median_us = 0.0;
    double p999_us = 0.0;
    std::size_t samples = 0;
};

/// Times `call` once per sample after a short untimed warm-up. The sample
/// count keeps at least ten samples beyond the reported p99.9.
template <typename Call>
ProbeStats probe(Call&& call) {
    constexpr std::size_t kWarmup = 1000;
    constexpr std::size_t kSamples = 20000;
    std::vector<double> us;
    us.reserve(kSamples);
    for (std::size_t i = 0; i < kWarmup + kSamples; ++i) {
        const std::uint64_t start = now_ns();
        call(i);
        const std::uint64_t end = now_ns();
        if (i >= kWarmup) us.push_back(static_cast<double>(end - start) * 1e-3);
    }
    return {percentile(us, 0.5), percentile(us, 0.999), us.size()};
}

volatile double g_sink = 0.0;

/// Exclusive wall time, summed over every profiler path that ends in `name`.
double self_ms(const std::map<std::string, drel::obs::Profiler::PhaseStats>& phases,
               const std::string& name) {
    double total_ns = 0.0;
    for (const auto& [path, stats] : phases) {
        const bool match = path == name || (path.size() > name.size() &&
                                            path.compare(path.size() - name.size(),
                                                         name.size(), name) == 0 &&
                                            path[path.size() - name.size() - 1] == '/');
        if (!match) continue;
        total_ns += static_cast<double>(stats.wall_ns) -
                    std::min(static_cast<double>(stats.wall_ns),
                             static_cast<double>(stats.child_wall_ns));
    }
    return total_ns * 1e-6;
}

int trace_mode(const Args& args) {
    const Workload workload = set_up(args);
    // One traced call per sub-seed, as many as a p99 with ten samples beyond
    // it needs. Each sub-seed first runs untraced through the entry point:
    // the outputs the replica must reproduce, and the tracing-overhead base.
    const std::size_t per_call = workload.device_rounds();
    const std::size_t wanted = std::max<std::size_t>(1, (1000 + per_call - 1) / per_call);
    const std::size_t calls = std::min(workload.sub_seeds, wanted);
    std::vector<std::string> violations;
    LayerTotals totals;
    bool replica_match = true;
    double untraced_wall = 0.0;
    for (std::size_t i = 0; i < calls; ++i) {
        const std::uint64_t seed = sub_seed(args.seed, i);
        const auto untraced_start = std::chrono::steady_clock::now();
        const Outputs reference = run_entry_point(workload, seed);
        untraced_wall += seconds_since(untraced_start);
        for (const std::string& v : check_outputs(workload, reference)) violations.push_back(v);

        Tracer tracer;
        const ReplicaRun run = run_replica(workload, seed, &tracer);
        if (run.outputs.serialize() != reference.serialize()) {
            replica_match = false;
            violations.push_back("sub-seed " + std::to_string(i) +
                                 ": traced replica differs from the entry point (fingerprint " +
                                 hex(run.outputs.fingerprint()) + " vs " +
                                 hex(reference.fingerprint()) + ")");
        }
        totals.add(workload, run, tracer, args.threads);
    }
    const std::uint64_t seed = sub_seed(args.seed, 0);

    JsonValue::Object m;
    m["trace.replica_match"] = replica_match ? 1.0 : 0.0;
    if (replica_match) {
        const auto total = [&](Layer layer) {
            return totals.total_s[static_cast<std::size_t>(layer)];
        };
        const auto count = [&](Layer layer) {
            return static_cast<double>(totals.calls[static_cast<std::size_t>(layer)]);
        };
        const double device_rounds = static_cast<double>(totals.device_rounds);
        const double rounds = static_cast<double>(totals.rounds);
        m["edgesim.engine.per_device_overhead_us"] =
            per(totals.parallel_overhead_s * 1e6, device_rounds);
        m["edgesim.round_close_ms"] = percentile(totals.round_close_ms, 0.5);
        m["edgesim.round_open_ms"] = percentile(totals.round_open_ms, 0.5);
        m["edgesim.engine.events_per_round"] = per(static_cast<double>(totals.events), rounds);
        m["util.executor.busy_share"] = per(totals.parallel_busy_s, totals.parallel_capacity_s);
        m["util.executor.barrier_wait_ms"] = percentile(totals.barrier_wait_ms, 0.5);
        m["edgesim.faults.decide_us_per_device"] =
            per(total(Layer::kFaults) * 1e6, count(Layer::kDeviceWork));
        m["dp.batch_score_us_per_device"] =
            per(total(Layer::kBatchScore) * 1e6, static_cast<double>(totals.devices_scored));
        m["dp.cloud_refit_ms_per_round"] = per(total(Layer::kCloudRefit) * 1e3, rounds);
        m["dp.gibbs.add_observation_us_p50"] = percentile(totals.gibbs_add_us, 0.5);
        m["dp.gibbs.add_observation_us_p99"] = percentile(totals.gibbs_add_us, 0.99);
        m["dp.gibbs.history_size"] = static_cast<double>(totals.gibbs_history);
        m["dp.streaming.accumulate_us"] =
            per(total(Layer::kStreamingAccumulate) * 1e6, count(Layer::kStreamingAccumulate));
        m["dp.kl_check_ms_per_round"] = per(total(Layer::kKlCheck) * 1e3, rounds);
        m["core.em_fit_ms_p50"] = percentile(totals.em_fit_ms, 0.5);
        m["core.em_fit_ms_p99"] = percentile(totals.em_fit_ms, 0.99);
        m["core.em.outer_iterations"] = per(static_cast<double>(totals.em_outer_iterations),
                                            static_cast<double>(totals.em_fits));
        m["core.em.degraded_fits"] =
            per(static_cast<double>(totals.em_degraded_fits), static_cast<double>(totals.runs));
        m["optim.upload_fit_ms"] =
            per(total(Layer::kUploadFit) * 1e3, count(Layer::kUploadFit));
        m["data.generate_ms_per_device"] =
            per(total(Layer::kDataGenerate) * 1e3, count(Layer::kDataGenerate));
        m["models.accuracy_ms_per_device"] =
            per(total(Layer::kAccuracy) * 1e3, count(Layer::kAccuracy));
        m["edgesim.transfer.encode_us"] =
            per(total(Layer::kEncode) * 1e6, count(Layer::kEncode));
        m["edgesim.transfer.payload_bytes"] =
            per(static_cast<double>(totals.encoded_bytes),
                static_cast<double>(std::max<std::uint64_t>(1, totals.encodes)));
        m["trace.overhead_share"] = (totals.wall_seconds - untraced_wall) / untraced_wall;
    }

    // EM inner split: a separate entry-point call with the library's own
    // phase profiler on, read through its public snapshot API.
    double e_step = 0.0, m_step = 0.0, lbfgs = 0.0, wasserstein = 0.0;
    if (workload.family == Family::kLifecycle) {
        drel::obs::Profiler& profiler = drel::obs::Profiler::global();
        profiler.reset();
        profiler.enable();
        run_entry_point(workload, seed);
        profiler.disable();
        const auto phases = profiler.merged_phases();
        const double device_rounds = static_cast<double>(workload.device_rounds());
        e_step = self_ms(phases, "em.e_step") / device_rounds;
        m_step = self_ms(phases, "em.m_step") / device_rounds;
        lbfgs = self_ms(phases, "optim.lbfgs") / device_rounds;
        wasserstein = self_ms(phases, "dro.wasserstein_eval") / device_rounds;
    }
    m["core.em.e_step_ms"] = e_step;
    m["core.em.m_step_ms"] = m_step;
    m["optim.lbfgs_self_ms"] = lbfgs;
    m["dro.wasserstein_eval_ms"] = wasserstein;

    // Layer probes, timed outside any workload call.
    const drel::stats::Rng root = drel::stats::Rng(seed).fork(4);
    const ProbeStats stream = probe([&](std::size_t i) {
        drel::stats::Rng rng = edgesim::device_stream(root, i % 8, (i * 7919) % 100000,
                                                      edgesim::DeviceStream::kWork);
        g_sink = g_sink + rng.uniform();
    });
    const drel::stats::Rng base(seed);
    const ProbeStats fork = probe([&](std::size_t i) {
        const drel::stats::Rng child = base.fork(i);
        g_sink = g_sink + static_cast<double>(child.seed() & 1u);
    });
    const edgesim::ChurnPlan churn(edgesim::ChurnConfig::uniform(0.10),
                                   drel::stats::Rng(seed));
    const ProbeStats churn_probe = probe([&](std::size_t i) {
        const edgesim::DeviceChurnDecision d = churn.device_churn(i % 8, (i * 7919) % 100000);
        g_sink = g_sink + (d.leave ? 1.0 : 0.0);
    });
    m["stats.rng.device_stream_us"] = stream.median_us;
    m["stats.rng.device_stream_us_p999"] = stream.p999_us;
    m["stats.rng.fork_us"] = fork.median_us;
    m["stats.rng.fork_us_p999"] = fork.p999_us;
    m["edgesim.churn.decide_us_per_device"] = churn_probe.median_us;
    m["edgesim.churn.decide_us_p999"] = churn_probe.p999_us;
    m["probe.samples"] = static_cast<double>(stream.samples);

    print_line({{"workload", workload.name},
                {"replica_match", replica_match},
                {"traced_calls", calls},
                {"metrics", std::move(m)},
                {"violations", json_strings(violations)}});
    return 0;
}

// ---------------------------------------------------------------------------
// --mode selftest

int selftest_mode(const Args& args) {
    struct Tiny {
        const char* workload;
        std::size_t rounds;
        std::size_t devices;
    };
    const Tiny tiny[] = {{"scale_healthy", 3, 2000},
                         {"scale_churn", 4, 2000},
                         {"lifecycle_stream", 5, 12},
                         {"lifecycle_default", 5, 8}};
    std::vector<std::string> failures;
    JsonValue::Array results;
    for (const Tiny& t : tiny) {
        const Workload workload =
            resized(make_workload(t.workload, args.threads), t.rounds, t.devices);
        const Outputs first = run_entry_point(workload, args.seed);
        const Outputs second = run_entry_point(workload, args.seed);
        Tracer tracer;
        const ReplicaRun replica = run_replica(workload, args.seed, &tracer);
        const bool stable = first.serialize() == second.serialize();
        const bool match = replica.outputs.serialize() == first.serialize();
        const std::vector<std::string> violations = check_outputs(workload, first);
        if (!stable) failures.push_back(std::string(t.workload) + ": fingerprint not stable");
        if (!match) failures.push_back(std::string(t.workload) + ": replica differs");
        for (const std::string& v : violations) {
            failures.push_back(std::string(t.workload) + ": " + v);
        }
        std::size_t spans = 0;
        for (const std::vector<SpanRecord>& thread_spans : tracer.spans()) {
            spans += thread_spans.size();
        }
        results.push_back(JsonValue::Object{{"workload", t.workload},
                                            {"fingerprint", hex(first.fingerprint())},
                                            {"stable", stable},
                                            {"replica_match", match},
                                            {"spans", spans}});
    }
    print_line({{"results", std::move(results)}, {"violations", json_strings(failures)}});
    return 0;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
    using namespace fleetbench;
    try {
        // The workloads pin every knob; a DREL_* override (refit mode, SIMD
        // backend, profiler, thread count) would silently change them.
        for (char** env = environ; *env != nullptr; ++env) {
            if (std::strncmp(*env, "DREL_", 5) == 0) {
                std::cerr << "fleet_bench: unset " << *env << " before running\n";
                return 2;
            }
        }
        const Args args = parse_args(argc, argv);
        if (args.mode == "setup") {
            set_up(args);
            return 0;
        }
        if (args.mode == "run") return run_mode(args);
        if (args.mode == "trace") return trace_mode(args);
        if (args.mode == "selftest") return selftest_mode(args);
        std::cerr << "fleet_bench: --mode must be setup, run, trace or selftest\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "fleet_bench: " << e.what() << "\n";
        return 1;
    }
}
