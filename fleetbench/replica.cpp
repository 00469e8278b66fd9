#include "replica.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "data/task_generator.hpp"
#include "dp/batch_responsibilities.hpp"
#include "dp/dpmm_gibbs.hpp"
#include "dp/mixture_prior.hpp"
#include "dp/prior_diagnostics.hpp"
#include "dp/streaming_vb.hpp"
#include "edgesim/cloud.hpp"
#include "edgesim/transfer.hpp"
#include "models/erm_objective.hpp"
#include "models/metrics.hpp"
#include "optim/lbfgs.hpp"
#include "stats/descriptive.hpp"
#include "stats/multivariate_normal.hpp"

namespace fleetbench {
namespace {

namespace edgesim = drel::edgesim;
namespace dp = drel::dp;
namespace linalg = drel::linalg;
namespace stats = drel::stats;
namespace util = drel::util;
using edgesim::DegradedReason;

std::vector<std::uint8_t> traced_encode(Tracer* tracer, std::size_t round,
                                        const dp::MixturePrior& prior,
                                        const edgesim::EncodingOptions& options,
                                        const edgesim::PriorBase* base = nullptr) {
    std::vector<std::uint8_t> frame;
    {
        const Span span(tracer, Layer::kEncode, round);
        frame = edgesim::encode_prior(prior, options, base);
    }
    if (tracer != nullptr) {
        tracer->encoded_payload_bytes += frame.size();
        ++tracer->encodes;
    }
    return frame;
}

// ---------------------------------------------------------------------------
// Scale family: mirrors edgesim::run_scale_fleet.

ReplicaRun scale_replica(const edgesim::ScaleFleetConfig& config, stats::Rng& rng,
                         Tracer* tracer) {
    const std::size_t num_modes = std::max<std::size_t>(1, config.num_modes);
    const std::size_t dim = std::max<std::size_t>(1, config.feature_dim);

    stats::Rng mode_rng = rng.fork(11);
    std::vector<linalg::Vector> means;
    means.reserve(num_modes);
    std::vector<stats::MultivariateNormal> atoms;
    atoms.reserve(num_modes);
    for (std::size_t k = 0; k < num_modes; ++k) {
        linalg::Vector mean = mode_rng.standard_normal_vector(dim);
        for (double& m : mean) m *= config.mode_radius;
        atoms.push_back(stats::MultivariateNormal::isotropic(mean, config.within_mode_var));
        means.push_back(std::move(mean));
    }
    const dp::MixturePrior prior(linalg::Vector(num_modes, 1.0), std::move(atoms));
    config.wire.validate();
    std::size_t payload_bytes =
        edgesim::encoded_size(num_modes, dim, edgesim::EncodingOptions{});
    std::size_t rebroadcast_bytes = payload_bytes;
    if (config.wire.version >= edgesim::kWireV2 || config.wire.use_float32 ||
        config.wire.diagonal_only) {
        edgesim::EncodingOptions bootstrap_wire = config.wire;
        bootstrap_wire.delta = false;
        bootstrap_wire.prior_version = 0;
        payload_bytes = traced_encode(tracer, 0, prior, bootstrap_wire).size();
        rebroadcast_bytes = payload_bytes;
        if (config.wire.version >= edgesim::kWireV2) {
            edgesim::EncodingOptions push = config.wire;
            push.prior_version = 1;
            const edgesim::PriorBase base{&prior, 0};
            rebroadcast_bytes =
                traced_encode(tracer, 0, prior, push, push.delta ? &base : nullptr).size();
        }
    }

    edgesim::EngineConfig engine;
    engine.rounds = config.rounds;
    engine.devices_per_round = config.devices_per_round;
    engine.theta_dim = dim;
    engine.num_shards = config.num_shards;
    engine.num_threads = config.num_threads;
    engine.round_seconds = config.round_seconds;
    engine.deadline_seconds = config.deadline_seconds;
    engine.uplink_seconds = config.uplink_seconds;
    engine.keep_thetas = false;
    engine.initial_broadcast_bytes =
        payload_bytes * config.membership.effective_initial_members(config.devices_per_round);
    engine.initial_prior_components = num_modes;
    engine.server = config.server;
    engine.membership = config.membership;

    const stats::Rng device_root = rng.fork(4);
    const edgesim::FaultPlan plan(config.faults, rng);
    const edgesim::ChurnPlan churn(config.membership.churn, rng);
    const double within_sd = std::sqrt(std::max(0.0, config.within_mode_var));

    const edgesim::DeviceWork work = [&](std::size_t round, std::size_t device,
                                         stats::Rng& work_rng, util::Workspace& /*ws*/) {
        const Span work_span(tracer, Layer::kDeviceWork, round);
        edgesim::DeviceResult result;
        edgesim::DeviceFaultDecision faults;
        {
            const Span span(tracer, Layer::kFaults, round);
            faults = plan.device_faults(round, device);
        }
        if (faults.straggler) {
            result.reason = DegradedReason::kStraggler;
            return result;
        }
        const std::size_t mode = work_rng.uniform_index(means.size());
        linalg::Vector theta = means[mode];
        for (double& value : theta) value += within_sd * work_rng.normal();
        result.scored = true;
        result.defer_score = true;
        result.score_tag = mode;

        edgesim::UploadOutcome up;
        {
            const Span span(tracer, Layer::kFaults, round);
            up = plan.upload_outcome(round, device);
        }
        result.attempted_upload = true;
        result.upload_attempts = up.attempts;
        result.upload_retries = up.retries;
        result.upload_delivered = up.delivered;
        result.upload_garbled = up.garbled;
        result.extra_seconds = up.simulated_seconds;
        if (!up.delivered) result.reason = DegradedReason::kUploadDropped;
        result.theta = std::move(theta);
        return result;
    };

    const dp::BatchResponsibilities batch_prior(prior);
    const edgesim::BatchScoreFn batch_score =
        [&](std::size_t round, const std::size_t* tags, const double* thetas, std::size_t count,
            std::size_t /*theta_dim*/, double* accuracy_out, util::Workspace& ws) {
            const Span span(tracer, Layer::kBatchScore, round);
            batch_prior.score_match_into(thetas, count, tags, accuracy_out, ws);
        };

    const edgesim::RoundEndFn round_end = [&](std::size_t round,
                                              edgesim::CloudServer& /*server*/) {
        const Span span(tracer, Layer::kRoundEnd, round);
        edgesim::RoundEndDecision decision;
        decision.prior_components = num_modes;
        decision.payload_bytes = rebroadcast_bytes;
        decision.rebroadcast =
            config.rebroadcast_every > 0 && (round + 1) % config.rebroadcast_every == 0;
        return decision;
    };

    edgesim::ScaleFleetReport report;
    report.engine = edgesim::run_fleet_engine(engine, device_root, plan, work, round_end,
                                              &batch_score, &churn);
    report.prior_components = num_modes;
    report.payload_bytes = payload_bytes;
    if (tracer != nullptr && tracer->encodes == 0) {
        // v1 charges encoded_size without an encode call.
        tracer->encoded_payload_bytes = payload_bytes;
    }
    double accuracy_weighted = 0.0;
    std::size_t scored = 0;
    for (const edgesim::EngineRoundStats& round : report.engine.rounds) {
        accuracy_weighted += round.mean_accuracy * static_cast<double>(round.devices_scored);
        scored += round.devices_scored;
    }
    if (scored > 0) report.mode_recovery_rate = accuracy_weighted / static_cast<double>(scored);

    ReplicaRun run;
    run.events_processed = report.engine.events_processed;
    run.outputs = outputs_of(report);
    return run;
}

// ---------------------------------------------------------------------------
// Lifecycle family: mirrors edgesim::run_lifecycle.

linalg::Vector fit_theta(const drel::models::Dataset& data, const drel::models::Loss& loss) {
    const double l2 = 1.0 / static_cast<double>(data.size());
    const drel::models::ErmObjective objective(data, loss, l2);
    drel::optim::LbfgsOptions options;
    options.stopping.max_iterations = 300;
    return drel::optim::minimize_lbfgs(objective, linalg::zeros(data.dim()), options).x;
}

ReplicaRun lifecycle_replica(const edgesim::LifecycleConfig& config, stats::Rng& rng,
                             Tracer* tracer) {
    config.faults.validate();
    const auto loss = drel::models::make_loss(config.learner.loss);
    drel::data::DataOptions options;
    options.margin_scale = config.margin_scale;

    stats::Rng pop_rng = rng.fork(1);
    const drel::data::TaskPopulation initial_population =
        drel::data::TaskPopulation::make_synthetic(config.feature_dim, config.initial_modes + 1,
                                                   config.mode_radius, config.within_mode_var,
                                                   pop_rng);
    std::vector<drel::data::ParameterMode> base_modes(
        initial_population.modes().begin(),
        initial_population.modes().begin() + static_cast<long>(config.initial_modes));
    const drel::data::ParameterMode novel_mode = initial_population.modes().back();
    const drel::data::TaskPopulation pre_population(std::move(base_modes));

    stats::Rng contributor_rng = rng.fork(2);
    std::vector<linalg::Vector> thetas;
    for (std::size_t j = 0; j < config.initial_contributors; ++j) {
        stats::Rng device_rng = contributor_rng.fork(j);
        const drel::data::TaskSpec task = pre_population.sample_task(device_rng);
        thetas.push_back(fit_theta(
            pre_population.generate(task, config.contributor_samples, device_rng, options),
            *loss));
    }
    const std::size_t d = thetas.front().size();
    dp::DpmmConfig dpmm;
    dpmm.alpha = config.dp_alpha;
    dpmm.base_mean = stats::mean_rows(thetas);
    dpmm.base_covariance = stats::covariance_rows(thetas);
    dpmm.base_covariance *= 2.0;
    dpmm.base_covariance.add_diagonal(1e-6 + 0.01 * config.within_scale);
    dpmm.within_covariance = linalg::Matrix::identity(d);
    dpmm.within_covariance *= config.within_scale;
    dpmm.num_sweeps = config.gibbs_sweeps;
    dp::DpmmGibbs sampler(thetas, dpmm);
    stats::Rng gibbs_rng = rng.fork(3);
    sampler.run(gibbs_rng);

    dp::MixturePrior broadcast_prior = sampler.extract_prior();
    const dp::MixturePrior initial_prior = broadcast_prior;

    std::optional<dp::StreamingVb> streaming;
    if (config.cloud.refit_mode == edgesim::CloudRefitMode::kStreaming) {
        dp::StreamingVbConfig svb;
        svb.alpha = config.dp_alpha;
        svb.base_mean = dpmm.base_mean;
        svb.base_covariance = dpmm.base_covariance;
        svb.within_covariance = dpmm.within_covariance;
        svb.truncation = config.cloud.streaming_truncation;
        svb.prior_strength = config.cloud.streaming_prior_strength > 0.0
                                 ? config.cloud.streaming_prior_strength
                                 : static_cast<double>(config.initial_contributors);
        streaming.emplace(std::move(svb), broadcast_prior);
    }

    const edgesim::FaultPlan fault_plan(config.faults, rng);
    const edgesim::ChurnPlan churn_plan(config.membership.churn, rng);

    config.wire.validate();
    std::uint64_t wire_version = 0;
    dp::MixturePrior last_acked_prior = broadcast_prior;
    edgesim::EncodingOptions bootstrap_wire = config.wire;
    bootstrap_wire.delta = false;
    bootstrap_wire.prior_version = 0;
    auto payload = traced_encode(tracer, 0, broadcast_prior, bootstrap_wire);

    const stats::Rng device_root = rng.fork(4);
    const stats::Rng server_root = rng.fork(5);

    edgesim::EngineConfig engine;
    engine.rounds = config.rounds;
    engine.devices_per_round = config.devices_per_round;
    engine.theta_dim = d;
    engine.num_shards = config.num_shards;
    engine.num_threads = config.num_threads;
    engine.round_seconds = config.round_seconds;
    engine.deadline_seconds = config.deadline_seconds;
    engine.uplink_seconds = config.uplink_seconds;
    engine.keep_thetas = true;
    engine.initial_broadcast_bytes = payload.size();
    engine.initial_prior_components = broadcast_prior.num_components();
    engine.server = config.server;
    engine.membership = config.membership;

    const edgesim::DeviceWork work = [&](std::size_t round, std::size_t j, stats::Rng& work_rng,
                                         util::Workspace& /*ws*/) {
        const Span work_span(tracer, Layer::kDeviceWork, round);
        edgesim::DeviceResult result;
        edgesim::DeviceFaultDecision faults;
        {
            const Span span(tracer, Layer::kFaults, round);
            faults = fault_plan.device_faults(round, j);
        }
        if (faults.straggler) {
            result.reason = DegradedReason::kStraggler;
            return result;
        }
        const bool novel_active = config.novel_mode_round >= 0 &&
                                  round >= static_cast<std::size_t>(config.novel_mode_round);
        const bool is_novel = novel_active && (j % 2 == 0);
        drel::data::TaskSpec task;
        if (is_novel) {
            const stats::MultivariateNormal mode_dist(novel_mode.mean, novel_mode.covariance);
            task.theta_star = mode_dist.sample(work_rng);
            task.mode_index = config.initial_modes;
        } else {
            task = pre_population.sample_task(work_rng);
        }
        std::optional<drel::models::Dataset> train;
        std::optional<drel::models::Dataset> test;
        {
            const Span span(tracer, Layer::kDataGenerate, round);
            train.emplace(
                pre_population.generate(task, config.edge_samples, work_rng, options));
            test.emplace(pre_population.generate(task, config.test_samples, work_rng, options));
        }
        const auto score = [&](const drel::models::LinearModel& model) {
            const Span span(tracer, Layer::kAccuracy, round);
            return drel::models::accuracy(model, *test);
        };

        double accuracy = 0.0;
        if (!faults.prior_usable()) {
            result.reason = DegradedReason::kFallbackLocalErm;
            accuracy = score(drel::models::LinearModel(fit_theta(*train, *loss)));
        } else {
            if (faults.prior_stale) {
                result.reason = DegradedReason::kStalePrior;
                result.stale_prior = true;
            }
            const drel::core::EdgeLearner learner(
                faults.prior_stale ? initial_prior : broadcast_prior, config.learner);
            std::optional<drel::core::FitResult> fit;
            {
                const Span span(tracer, Layer::kEmFit, round);
                fit.emplace(learner.fit(*train));
            }
            if (tracer != nullptr) {
                tracer->em_fits.fetch_add(1, std::memory_order_relaxed);
                tracer->em_outer_iterations.fetch_add(
                    static_cast<std::uint64_t>(std::max(0, fit->trace.outer_iterations)),
                    std::memory_order_relaxed);
                if (fit->degraded) {
                    tracer->em_degraded_fits.fetch_add(1, std::memory_order_relaxed);
                }
            }
            if (fit->degraded) {
                result.reason = DegradedReason::kNonFinite;
                accuracy = score(drel::models::LinearModel(fit_theta(*train, *loss)));
            } else {
                accuracy = score(fit->model);
            }
        }
        result.accuracy = accuracy;
        result.scored = true;
        result.novel = is_novel;

        if (config.feedback) {
            linalg::Vector theta;
            {
                const Span span(tracer, Layer::kUploadFit, round);
                theta = fit_theta(*train, *loss);
            }
            edgesim::UploadOutcome up;
            {
                const Span span(tracer, Layer::kFaults, round);
                up = fault_plan.upload_outcome(round, j);
            }
            result.attempted_upload = true;
            result.upload_attempts = up.attempts;
            result.upload_retries = up.retries;
            result.upload_delivered = up.delivered;
            result.extra_seconds = up.simulated_seconds;
            if (!up.delivered) {
                if (result.reason == DegradedReason::kNone) {
                    result.reason = DegradedReason::kUploadDropped;
                }
            } else {
                if (up.garbled) theta[0] = std::numeric_limits<double>::quiet_NaN();
                if (edgesim::CloudNode::upload_is_usable(theta, d)) {
                    result.theta = std::move(theta);
                } else {
                    result.upload_garbled = true;
                    if (result.reason == DegradedReason::kNone) {
                        result.reason = DegradedReason::kUploadDropped;
                    }
                }
            }
        }
        return result;
    };

    const edgesim::RoundEndFn round_end = [&](std::size_t round, edgesim::CloudServer& server) {
        const Span round_span(tracer, Layer::kRoundEnd, round);
        edgesim::RoundEndDecision decision;
        std::vector<std::pair<std::size_t, linalg::Vector>> uploads;
        if (config.max_refresh_uploads > 0) {
            stats::Rng subsample_rng =
                edgesim::server_stream(server_root, round, edgesim::ServerStream::kSubsample);
            uploads = server.sample_serviced_thetas(config.max_refresh_uploads, subsample_rng);
        } else {
            uploads = server.take_serviced_thetas();
        }
        if (config.feedback && !uploads.empty()) {
            dp::MixturePrior refreshed = broadcast_prior;
            {
                const Span refit_span(tracer, Layer::kCloudRefit, round);
                if (streaming.has_value()) {
                    dp::StreamingSuffStats round_stats = streaming->make_stats();
                    for (const auto& [device, theta] : uploads) {
                        const Span span(tracer, Layer::kStreamingAccumulate, round);
                        streaming->accumulate(theta, round_stats);
                    }
                    streaming->apply(round_stats);
                    refreshed = streaming->extract_prior();
                } else {
                    stats::Rng update_rng = edgesim::server_stream(
                        server_root, round, edgesim::ServerStream::kPosteriorUpdate);
                    for (auto& [device, theta] : uploads) {
                        const Span span(tracer, Layer::kGibbsAdd, round);
                        sampler.add_observation(std::move(theta), update_rng,
                                                config.refresh_sweeps_per_upload);
                    }
                    refreshed = sampler.extract_prior();
                }
            }
            stats::Rng kl_rng =
                edgesim::server_stream(server_root, round, edgesim::ServerStream::kKlEstimate);
            double drift = 0.0;
            {
                const Span span(tracer, Layer::kKlCheck, round);
                drift = dp::symmetric_kl_estimate(refreshed, broadcast_prior, config.kl_samples,
                                                  kl_rng);
            }
            if (drift > config.rebroadcast_kl_threshold) {
                broadcast_prior = refreshed;
                edgesim::EncodingOptions push = config.wire;
                push.prior_version = ++wire_version;
                if (push.delta) {
                    const edgesim::PriorBase base{&last_acked_prior, wire_version - 1};
                    payload = traced_encode(tracer, round, broadcast_prior, push, &base);
                } else {
                    payload = traced_encode(tracer, round, broadcast_prior, push);
                }
                last_acked_prior = broadcast_prior;
                decision.rebroadcast = true;
                if (streaming.has_value()) streaming->refresh_anchor();
            }
        }
        decision.payload_bytes = payload.size();
        decision.prior_components = broadcast_prior.num_components();
        return decision;
    };

    const edgesim::EngineReport engine_report = edgesim::run_fleet_engine(
        engine, device_root, fault_plan, work, round_end, nullptr, &churn_plan);
    if (tracer != nullptr) tracer->gibbs_history = sampler.num_observations();

    // The lifecycle's mapping of the engine report (round 0 always counts
    // as a broadcast: the bootstrap push).
    edgesim::LifecycleReport report;
    report.total_broadcast_bytes = engine_report.total_broadcast_bytes;
    report.total_upload_bytes = engine_report.total_upload_bytes;
    report.total_upload_retries = engine_report.total_upload_retries;
    report.telemetry = engine_report.telemetry;
    for (const edgesim::EngineRoundStats& s : engine_report.rounds) {
        edgesim::LifecycleRound round;
        round.round = s.round;
        round.mean_accuracy = s.mean_accuracy;
        round.novel_mode_accuracy = s.novel_mode_accuracy;
        round.prior_components = s.prior_components;
        round.rebroadcast = s.round == 0 ? true : s.rebroadcast;
        round.broadcast_bytes = s.broadcast_bytes;
        round.devices_scored = s.devices_scored;
        round.crashed = s.crashed;
        round.stragglers = s.stragglers;
        round.fallbacks = s.fallbacks;
        round.stale_priors = s.stale_priors;
        round.uploads_dropped = s.uploads_dropped;
        round.uploads_garbled = s.uploads_garbled;
        round.backpressure_rejected = s.backpressure_rejected;
        round.latency_p50_seconds = s.latency_p50_seconds;
        round.latency_p99_seconds = s.latency_p99_seconds;
        round.latency_max_seconds = s.latency_max_seconds;
        round.device_degraded = s.device_degraded;
        report.rounds.push_back(std::move(round));
    }

    ReplicaRun run;
    run.events_processed = engine_report.events_processed;
    run.outputs = outputs_of(report);
    return run;
}

}  // namespace

ReplicaRun run_replica(const Workload& workload, std::uint64_t seed, Tracer* tracer) {
    const auto start = std::chrono::steady_clock::now();
    stats::Rng rng(seed);
    ReplicaRun run = workload.family == Family::kScale
                         ? scale_replica(workload.scale, rng, tracer)
                         : lifecycle_replica(workload.lifecycle, rng, tracer);
    run.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return run;
}

}  // namespace fleetbench
