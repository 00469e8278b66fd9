// Performance baseline runner — produces BENCH_PERF.json.
//
// A fixed registry of microbenchmarks over the numerical kernels on the
// training hot path (the same kernels the phase profiler instruments) plus
// end-to-end scenarios (an EM solve, small and large fleet rounds). Each
// benchmark is calibrated to a target sample duration, warmed up, and then
// repeated; we report robust statistics (min / median / MAD) rather than a
// bare mean so the regression gate (scripts/perf_compare.py) can use a
// noise-aware threshold: max(5% of median, 3x MAD).
//
// Usage:
//   bench_perf_runner [--out PATH] [--filter SUBSTR] [--smoke] [--list]
//
// --smoke shrinks calibration targets and repetition counts to keep the
// whole run in the low seconds for the perf_smoke ctest; the JSON written is
// schema-identical to a full run, just noisier — smoke output is for schema
// validation and plumbing tests, not for committing as a baseline.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/edge_learner.hpp"
#include "data/task_generator.hpp"
#include "dp/batch_responsibilities.hpp"
#include "dp/dpmm_gibbs.hpp"
#include "dp/mixture_prior.hpp"
#include "dro/chi_square.hpp"
#include "dro/kl.hpp"
#include "dro/wasserstein.hpp"
#include "edgesim/server.hpp"
#include "edgesim/shard.hpp"
#include "edgesim/simulation.hpp"
#include "edgesim/transfer.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/qr.hpp"
#include "models/erm_objective.hpp"
#include "models/stochastic_erm.hpp"
#include "obs/json.hpp"
#include "optim/lbfgs.hpp"
#include "optim/sgd.hpp"
#include "stats/alias_table.hpp"
#include "stats/rng.hpp"
#include "util/executor.hpp"
#include "util/workspace.hpp"

namespace {

using namespace drel;
using Clock = std::chrono::steady_clock;

/// Defeat dead-code elimination without google-benchmark's helpers.
volatile double g_sink = 0.0;
inline void sink(double v) { g_sink = g_sink + v; }

struct BenchSpec {
    std::string name;
    bool end_to_end = false;  ///< skip calibration, one iteration per sample
    std::function<void(std::size_t iters)> run;
};

struct BenchResult {
    std::uint64_t inner_iterations = 0;
    std::uint64_t repetitions = 0;
    double min_ms = 0.0;
    double median_ms = 0.0;
    double mad_ms = 0.0;
    double mean_ms = 0.0;
};

double elapsed_ms(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median absolute deviation — the gate's noise estimate. Robust to the
/// occasional scheduler hiccup that would wreck a stddev.
double mad_of(const std::vector<double>& v, double median) {
    std::vector<double> dev;
    dev.reserve(v.size());
    for (const double x : v) dev.push_back(std::fabs(x - median));
    return median_of(std::move(dev));
}

/// Doubles the iteration count until one sample takes >= target_ms, so the
/// per-sample timing floor is well above clock granularity.
std::uint64_t calibrate(const BenchSpec& spec, double target_ms) {
    std::uint64_t iters = 1;
    for (int round = 0; round < 30; ++round) {
        const auto start = Clock::now();
        spec.run(iters);
        if (elapsed_ms(start) >= target_ms) break;
        iters *= 2;
    }
    return iters;
}

BenchResult measure(const BenchSpec& spec, double target_ms, std::uint64_t reps) {
    BenchResult result;
    result.inner_iterations = spec.end_to_end ? 1 : calibrate(spec, target_ms);
    result.repetitions = reps;

    spec.run(result.inner_iterations);  // warmup (cold caches, lazy pools)

    std::vector<double> samples;
    samples.reserve(reps);
    for (std::uint64_t r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        spec.run(result.inner_iterations);
        samples.push_back(elapsed_ms(start) / static_cast<double>(result.inner_iterations));
    }
    result.min_ms = *std::min_element(samples.begin(), samples.end());
    result.median_ms = median_of(samples);
    result.mad_ms = mad_of(samples, result.median_ms);
    double sum = 0.0;
    for (const double s : samples) sum += s;
    result.mean_ms = sum / static_cast<double>(samples.size());
    return result;
}

// ---------------------------------------------------------------------------
// Fixtures (mirror bench_micro.cpp so the two suites agree on shapes).

models::Dataset bench_dataset(std::size_t n, std::size_t d) {
    stats::Rng rng(1);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(d, 3, 2.5, 0.05, rng);
    return pop.generate(pop.sample_task(rng), n, rng);
}

dp::MixturePrior bench_prior(std::size_t dim, std::size_t k) {
    stats::Rng rng(2);
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t i = 0; i < k; ++i) {
        weights.push_back(1.0);
        atoms.push_back(stats::MultivariateNormal::isotropic(
            rng.standard_normal_vector(dim), 0.5));
    }
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

linalg::Matrix spd_matrix(std::size_t n, std::uint64_t seed) {
    stats::Rng rng(seed);
    linalg::Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.normal();
    }
    linalg::Matrix spd = m.matmul(m.transposed());
    spd.add_diagonal(1.0);
    return spd;
}

std::vector<BenchSpec> build_registry() {
    std::vector<BenchSpec> registry;

    registry.push_back({"linalg.cholesky_factor_solve", false, [](std::size_t iters) {
        static const linalg::Matrix spd = spd_matrix(32, 3);
        static const linalg::Vector b = stats::Rng(4).standard_normal_vector(32);
        for (std::size_t i = 0; i < iters; ++i) {
            const linalg::Cholesky chol(spd);
            sink(chol.solve(b)[0]);
        }
    }});

    registry.push_back({"linalg.eig_sym", false, [](std::size_t iters) {
        static const linalg::Matrix spd = spd_matrix(24, 5);
        for (std::size_t i = 0; i < iters; ++i) sink(linalg::eigen_sym(spd).values[0]);
    }});

    registry.push_back({"linalg.qr", false, [](std::size_t iters) {
        static const linalg::Matrix a = [] {
            stats::Rng rng(6);
            linalg::Matrix m(48, 16);
            for (std::size_t r = 0; r < 48; ++r) {
                for (std::size_t c = 0; c < 16; ++c) m(r, c) = rng.normal();
            }
            return m;
        }();
        for (std::size_t i = 0; i < iters; ++i) sink(linalg::QR(a).r()(0, 0));
    }});

    registry.push_back({"linalg.matmul", false, [](std::size_t iters) {
        static const linalg::Matrix a = spd_matrix(48, 7);
        static const linalg::Matrix b = spd_matrix(48, 8);
        for (std::size_t i = 0; i < iters; ++i) sink(a.matmul(b)(0, 0));
    }});

    // The dispatched SIMD kernels at a hot-path-typical length. These time
    // whatever backend linalg::simd::active() resolved (DREL_SIMD overrides),
    // so a recorded baseline pins the NATIVE backend's throughput.
    registry.push_back({"linalg.simd_dot", false, [](std::size_t iters) {
        static const linalg::Vector x = stats::Rng(31).standard_normal_vector(256);
        static const linalg::Vector y = stats::Rng(32).standard_normal_vector(256);
        for (std::size_t i = 0; i < iters; ++i) {
            sink(linalg::dot_n(x.data(), y.data(), x.size()));
        }
    }});

    registry.push_back({"linalg.simd_axpy", false, [](std::size_t iters) {
        static const linalg::Vector x = stats::Rng(33).standard_normal_vector(256);
        static linalg::Vector y = stats::Rng(34).standard_normal_vector(256);
        // Paired +a/-a updates keep y bounded at any iteration count; one
        // "iteration" therefore times TWO axpy calls.
        for (std::size_t i = 0; i < iters; ++i) {
            linalg::axpy_n(0.5, x.data(), y.data(), y.size());
            linalg::axpy_n(-0.5, x.data(), y.data(), y.size());
        }
        sink(y[0]);
    }});

    registry.push_back({"models.erm_gradient", false, [](std::size_t iters) {
        static const models::Dataset d = bench_dataset(256, 8);
        static const auto loss = models::make_logistic_loss();
        static const models::ErmObjective objective(d, *loss);
        static const linalg::Vector theta = stats::Rng(9).standard_normal_vector(d.dim());
        linalg::Vector grad;
        for (std::size_t i = 0; i < iters; ++i) sink(objective.eval(theta, &grad));
    }});

    registry.push_back({"dro.wasserstein_eval", false, [](std::size_t iters) {
        static const models::Dataset d = bench_dataset(256, 8);
        static const auto loss = models::make_logistic_loss();
        static const dro::WassersteinDroObjective objective(d, *loss, 0.2);
        static const linalg::Vector theta = stats::Rng(10).standard_normal_vector(d.dim());
        linalg::Vector grad;
        for (std::size_t i = 0; i < iters; ++i) sink(objective.eval(theta, &grad));
    }});

    registry.push_back({"dro.kl_dual", false, [](std::size_t iters) {
        static const linalg::Vector losses = [] {
            stats::Rng rng(11);
            linalg::Vector l(256);
            for (double& x : l) x = rng.gamma(2.0, 0.5);
            return l;
        }();
        for (std::size_t i = 0; i < iters; ++i) sink(dro::solve_kl_dual(losses, 0.3).value);
    }});

    registry.push_back({"dro.chi2_dual", false, [](std::size_t iters) {
        static const linalg::Vector losses = [] {
            stats::Rng rng(12);
            linalg::Vector l(256);
            for (double& x : l) x = rng.gamma(2.0, 0.5);
            return l;
        }();
        for (std::size_t i = 0; i < iters; ++i) {
            sink(dro::solve_chi_square_dual(losses, 0.3).value);
        }
    }});

    registry.push_back({"dp.mixture_responsibilities", false, [](std::size_t iters) {
        static const dp::MixturePrior prior = bench_prior(9, 16);
        static const linalg::Vector theta = stats::Rng(13).standard_normal_vector(9);
        for (std::size_t i = 0; i < iters; ++i) sink(prior.responsibilities(theta)[0]);
    }});

    // Batched shard scoring: the SAME mixture shape as
    // dp.mixture_responsibilities (dim 9, 16 atoms), 512 devices per call.
    // One iteration here does the work of 512 per-device evaluations, so
    // the ≥2x win shows up as median(this) < 0.5 * 512 *
    // median(dp.mixture_responsibilities) — the comparison EXPERIMENTS.md
    // E22 records.
    registry.push_back({"dp.batch_responsibilities", false, [](std::size_t iters) {
        static const dp::MixturePrior prior = bench_prior(9, 16);
        static const dp::BatchResponsibilities batch(prior);
        constexpr std::size_t kDevices = 512;
        static const std::vector<double> thetas = [] {
            stats::Rng rng(35);
            std::vector<double> t(kDevices * 9);
            for (double& v : t) v = rng.normal();
            return t;
        }();
        static const std::vector<std::size_t> tags(kDevices, 0);
        static std::vector<double> accuracy(kDevices, 0.0);
        util::Workspace& ws = util::Workspace::local();
        for (std::size_t i = 0; i < iters; ++i) {
            batch.score_match_into(thetas.data(), kDevices, tags.data(), accuracy.data(),
                                   ws);
            sink(accuracy[0]);
        }
    }});

    // One alias draw over a 64-way table (build amortized away): the O(1)
    // replacement for the O(K) categorical scan in the Gibbs sweep.
    registry.push_back({"stats.alias_draw", false, [](std::size_t iters) {
        static const stats::AliasTable table = [] {
            stats::Rng rng(36);
            std::vector<double> weights(64);
            for (double& w : weights) w = 0.1 + rng.uniform();
            stats::AliasTable t;
            t.rebuild(weights.data(), weights.size());
            return t;
        }();
        stats::Rng rng(37);
        double acc = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
            acc += static_cast<double>(table.draw(rng));
        }
        sink(acc);
    }});

    // One device stream as the fleet engine builds it every device-round:
    // device_stream's three-level fork chain (round -> device -> purpose)
    // plus the first draw, which is where the engine state gets built.
    registry.push_back({"stats.rng_device_stream", false, [](std::size_t iters) {
        static const stats::Rng device_root = stats::Rng(20).fork(4);
        double acc = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
            stats::Rng rng = edgesim::device_stream(device_root, i % 3, i,
                                                    edgesim::DeviceStream::kWork);
            acc += rng.uniform();
        }
        sink(acc);
    }});

    // One device's local data as the lifecycle synthesizes it every
    // device-round: 16 training rows and a 1500-row test set at feature
    // dimension 8 (LifecycleConfig's defaults).
    registry.push_back({"data.generate_device", false, [](std::size_t iters) {
        static const data::TaskPopulation pop = [] {
            stats::Rng rng(38);
            return data::TaskPopulation::make_synthetic(8, 3, 2.5, 0.05, rng);
        }();
        static const data::TaskSpec task = [] {
            stats::Rng rng(39);
            return pop.sample_task(rng);
        }();
        stats::Rng rng(40);
        double acc = 0.0;
        for (std::size_t i = 0; i < iters; ++i) {
            const models::Dataset train = pop.generate(task, 16, rng);
            const models::Dataset test = pop.generate(task, 1500, rng);
            acc += train.label(0) + test.label(0);
        }
        sink(acc);
    }});

    // The standard normals behind those rows, (16 + 1500) x 8 = 12128, in
    // one bulk fill.
    registry.push_back({"stats.rng_normal_fill", false, [](std::size_t iters) {
        static std::vector<double> out(12128);
        stats::Rng rng(41);
        for (std::size_t i = 0; i < iters; ++i) {
            rng.fill_standard_normal(out.data(), out.size());
            sink(out[0]);
        }
    }});

    registry.push_back({"dp.gibbs_sweep", false, [](std::size_t iters) {
        static std::vector<linalg::Vector> observations = [] {
            stats::Rng rng(14);
            std::vector<linalg::Vector> obs;
            for (int i = 0; i < 40; ++i) {
                linalg::Vector x = rng.standard_normal_vector(9);
                x[0] += (i % 3) * 6.0;
                obs.push_back(std::move(x));
            }
            return obs;
        }();
        static dp::DpmmGibbs sampler = [] {
            dp::DpmmConfig config;
            config.base_mean = linalg::zeros(9);
            config.base_covariance = linalg::Matrix::identity(9) * 10.0;
            config.within_covariance = linalg::Matrix::identity(9) * 0.3;
            return dp::DpmmGibbs(observations, config);
        }();
        stats::Rng sweep_rng(15);
        for (std::size_t i = 0; i < iters; ++i) sampler.sweep(sweep_rng);
        sink(static_cast<double>(sampler.num_clusters()));
    }});

    registry.push_back({"optim.lbfgs_erm", false, [](std::size_t iters) {
        static const models::Dataset d = bench_dataset(64, 8);
        static const auto loss = models::make_logistic_loss();
        static const models::ErmObjective objective(d, *loss, 0.01);
        for (std::size_t i = 0; i < iters; ++i) {
            sink(optim::minimize_lbfgs(objective, linalg::zeros(d.dim())).value);
        }
    }});

    registry.push_back({"optim.sgd_epoch", false, [](std::size_t iters) {
        static const models::Dataset d = bench_dataset(256, 8);
        static const auto loss = models::make_logistic_loss();
        static const models::StochasticErm stochastic(d, *loss, 0.01);
        static const optim::SgdOptions options = [] {
            optim::SgdOptions o;
            o.epochs = 1;
            return o;
        }();
        stats::Rng rng(16);
        for (std::size_t i = 0; i < iters; ++i) {
            sink(optim::minimize_sgd(stochastic, linalg::zeros(d.dim()), rng, options).value);
        }
    }});

    registry.push_back({"edgesim.prior_encode_decode", false, [](std::size_t iters) {
        static const dp::MixturePrior prior = bench_prior(9, 6);
        for (std::size_t i = 0; i < iters; ++i) {
            const auto encoded = edgesim::encode_prior(prior);
            sink(edgesim::decode_prior(encoded).weights()[0]);
        }
    }});

    registry.push_back({"edgesim.prior_encode_decode_v2", false, [](std::size_t iters) {
        // The compressed broadcast path: 8-bit quantized + delta against the
        // last-acked prior, i.e. the per-round re-push a v2 fleet pays.
        static const dp::MixturePrior prior = bench_prior(9, 6);
        static const edgesim::PriorBase base{&prior, 1};
        static const edgesim::EncodingOptions options = [] {
            edgesim::EncodingOptions o;
            o.version = edgesim::kWireV2;
            o.quantized = true;
            o.quantization_bits = 8;
            o.delta = true;
            o.prior_version = 2;
            return o;
        }();
        for (std::size_t i = 0; i < iters; ++i) {
            const auto encoded = edgesim::encode_prior(prior, options, &base);
            sink(edgesim::decode_prior(encoded, &base).weights()[0]);
        }
    }});

    registry.push_back({"e2e.em_solve_small", true, [](std::size_t iters) {
        static const models::Dataset train = bench_dataset(48, 5);
        static const dp::MixturePrior prior = bench_prior(6, 3);
        static const core::EdgeLearner learner = [] {
            core::EdgeLearnerConfig config;
            config.em.max_outer_iterations = 8;
            return core::EdgeLearner(bench_prior(6, 3), config);
        }();
        for (std::size_t i = 0; i < iters; ++i) sink(learner.fit(train).objective);
    }});

    registry.push_back({"e2e.fleet_round_small", true, [](std::size_t iters) {
        edgesim::SimulationConfig config;
        config.feature_dim = 5;
        config.num_modes = 3;
        config.num_contributors = 4;
        config.contributor_samples = 80;
        config.num_edge_devices = 3;
        config.edge_samples = 8;
        config.test_samples = 100;
        config.cloud.gibbs_sweeps = 10;
        config.learner.em.max_outer_iterations = 5;
        config.num_threads = util::Executor::global().max_threads();
        for (std::size_t i = 0; i < iters; ++i) {
            stats::Rng rng(17);
            sink(edgesim::run_fleet_simulation(config, rng).mean_em_dro_accuracy());
        }
    }});

    registry.push_back({"edgesim.engine_event_loop", false, [](std::size_t iters) {
        // Pure engine overhead: scheduler + shard dispatch + server admission
        // with near-zero device work. Catches regressions in the event loop
        // itself that the large e2e run would hide under device work.
        static const stats::Rng root(18);
        static const stats::Rng device_root = root.fork(4);
        static const edgesim::FaultPlan plan({}, root);
        edgesim::EngineConfig config;
        config.rounds = 3;
        config.devices_per_round = 64;
        config.theta_dim = 2;
        config.num_shards = 4;
        const edgesim::DeviceWork work = [](std::size_t /*round*/, std::size_t /*device*/,
                                            stats::Rng& work_rng, util::Workspace& /*ws*/) {
            edgesim::DeviceResult result;
            result.scored = true;
            result.accuracy = work_rng.uniform();
            result.attempted_upload = true;
            result.upload_attempts = 1;
            result.upload_delivered = true;
            result.theta = work_rng.standard_normal_vector(2);
            return result;
        };
        const edgesim::RoundEndFn round_end = [](std::size_t /*round*/,
                                                 edgesim::CloudServer& server) {
            (void)server.take_serviced_thetas();
            return edgesim::RoundEndDecision{};
        };
        for (std::size_t i = 0; i < iters; ++i) {
            sink(edgesim::run_fleet_engine(config, device_root, plan, work, round_end)
                     .rounds.back()
                     .mean_accuracy);
        }
    }});

    registry.push_back({"e2e.fleet_round_large", true, [](std::size_t iters) {
        // Deployment-scale round: 100k devices through the sharded
        // event-driven engine (cheap per-device work, sufficient-statistics
        // uploads) — the throughput number bench_fleet_scale reports,
        // pinned here so the gate watches it.
        edgesim::ScaleFleetConfig config;
        config.devices_per_round = 100000;
        config.rounds = 1;
        config.num_shards = 16;
        config.num_threads = util::Executor::global().max_threads();
        for (std::size_t i = 0; i < iters; ++i) {
            stats::Rng rng(19);
            sink(edgesim::run_scale_fleet(config, rng).mode_recovery_rate);
        }
    }});

    registry.push_back({"e2e.fleet_round_churn", true, [](std::size_t iters) {
        // The large round on the membership path, fleetbench's scale_churn
        // shape: 10% uniform faults, 10% uniform churn over a 90k-member
        // start, wire v2 (8-bit quantized deltas). Pins the churn draws and
        // the driver's membership fold next to e2e.fleet_round_large.
        edgesim::ScaleFleetConfig config;
        config.devices_per_round = 100000;
        config.rounds = 1;
        config.num_shards = 16;
        config.num_threads = util::Executor::global().max_threads();
        config.faults = edgesim::FaultConfig::uniform(0.1);
        config.membership.churn = edgesim::ChurnConfig::uniform(0.1);
        config.membership.initial_members = 90000;
        config.wire.version = edgesim::kWireV2;
        config.wire.quantized = true;
        config.wire.quantization_bits = 8;
        config.wire.delta = true;
        for (std::size_t i = 0; i < iters; ++i) {
            stats::Rng rng(19);
            sink(edgesim::run_scale_fleet(config, rng).mode_recovery_rate);
        }
    }});

    return registry;
}

// ---------------------------------------------------------------------------
// Environment capture.

std::string capture_git_sha() {
    if (const char* env = std::getenv("DREL_GIT_SHA")) return env;
#if defined(__unix__) || defined(__APPLE__)
    if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buffer[128] = {0};
        std::string sha;
        if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
        ::pclose(pipe);
        while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
        if (sha.size() == 40) return sha;
    }
#endif
    return "unknown";
}

obs::JsonValue capture_environment() {
    obs::JsonValue::Object env;
    env["git_sha"] = capture_git_sha();
#if defined(__VERSION__)
    env["compiler"] = std::string(__VERSION__);
#else
    env["compiler"] = "unknown";
#endif
#if defined(DREL_BUILD_TYPE)
    env["build_type"] = std::string(DREL_BUILD_TYPE);
#else
    env["build_type"] = "unknown";
#endif
    env["threads"] = static_cast<std::uint64_t>(util::Executor::global().max_threads());
    return obs::JsonValue(std::move(env));
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_PERF.json";
    std::string filter;
    bool smoke = false;
    bool list_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--filter" && i + 1 < argc) {
            filter = argv[++i];
        } else {
            std::cerr << "usage: bench_perf_runner [--out PATH] [--filter SUBSTR]"
                         " [--smoke] [--list]\n";
            return 2;
        }
    }

    const std::vector<BenchSpec> registry = build_registry();
    if (list_only) {
        for (const BenchSpec& spec : registry) std::cout << spec.name << "\n";
        return 0;
    }

    // Full run: ~2ms samples x 11 reps gives a stable median on a quiet box.
    // Smoke: just enough to exercise every benchmark and the JSON schema.
    const double target_ms = smoke ? 0.1 : 2.0;
    const std::uint64_t reps_micro = smoke ? 3 : 11;
    const std::uint64_t reps_e2e = smoke ? 2 : 5;

    obs::JsonValue::Object benchmarks;
    for (const BenchSpec& spec : registry) {
        if (!filter.empty() && spec.name.find(filter) == std::string::npos) continue;
        std::cerr << "perf: " << spec.name << " ..." << std::flush;
        const BenchResult r = measure(spec, target_ms, spec.end_to_end ? reps_e2e : reps_micro);
        std::cerr << " median " << r.median_ms << " ms (mad " << r.mad_ms << ")\n";
        obs::JsonValue::Object entry;
        entry["inner_iterations"] = r.inner_iterations;
        entry["repetitions"] = r.repetitions;
        entry["min_ms"] = r.min_ms;
        entry["median_ms"] = r.median_ms;
        entry["mad_ms"] = r.mad_ms;
        entry["mean_ms"] = r.mean_ms;
        benchmarks[spec.name] = obs::JsonValue(std::move(entry));
    }
    if (benchmarks.empty()) {
        std::cerr << "bench_perf_runner: filter matched no benchmarks\n";
        return 2;
    }

    obs::JsonValue::Object config;
    config["smoke"] = smoke;
    config["target_sample_ms"] = target_ms;
    config["repetitions_micro"] = reps_micro;
    config["repetitions_e2e"] = reps_e2e;

    obs::JsonValue::Object doc;
    doc["schema_version"] = std::uint64_t{1};
    doc["environment"] = capture_environment();
    doc["config"] = obs::JsonValue(std::move(config));
    doc["benchmarks"] = obs::JsonValue(std::move(benchmarks));

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "bench_perf_runner: cannot open " << out_path << "\n";
        return 1;
    }
    out << obs::JsonValue(std::move(doc)).dump(2) << "\n";
    std::cerr << "perf: wrote " << out_path << "\n";
    return 0;
}
