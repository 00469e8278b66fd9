// E19 (extension) — the closed loop: feedback + online prior updates when a
// novel device type appears mid-deployment.
//
// A 3-type population runs for 9 rounds; from round 3 on, half of each
// round's new devices are a FOURTH, previously unseen type. Two worlds:
//   feedback ON  — devices upload fitted parameters, the cloud's DP
//                  posterior absorbs them online (DpmmGibbs::add_observation)
//                  and re-broadcasts when the prior drifts (symmetric-KL
//                  trigger);
//   feedback OFF — the round-0 prior is frozen forever.
// Expect: identical until round 3; afterwards the frozen world's novel-type
// accuracy stays depressed while the feedback world recovers within 1-2
// rounds as the posterior opens a cluster for the new type. The bytes
// column shows what the recovery costs on the wire.
//
// The phase profiler runs throughout. At the end, stderr gets the
// attribution of the per-device work: each named child phase of
// lifecycle.device (data synthesis, EM fit, scoring, upload) as a share of
// its wall time, and the self share no child accounts for (target <= 20%).
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "edgesim/lifecycle.hpp"
#include "obs/profiler.hpp"

#include "bench_common.hpp"

namespace {

/// Device-phase attribution from the merged profile: wall time of every
/// lifecycle.device frame, and of each of its direct children by name.
void report_device_attribution(std::ostream& out) {
    const std::string device = "lifecycle.device";
    const auto leaf = [](const std::string& path) {
        const std::size_t slash = path.rfind('/');
        return slash == std::string::npos ? path : path.substr(slash + 1);
    };
    std::uint64_t device_ns = 0;
    std::uint64_t child_ns = 0;
    std::map<std::string, std::uint64_t> children;
    for (const auto& [path, stats] : drel::obs::Profiler::global().merged_phases()) {
        if (leaf(path) == device) {
            device_ns += stats.wall_ns;
            child_ns += stats.child_wall_ns;
        } else {
            const std::size_t slash = path.rfind('/');
            if (slash != std::string::npos && leaf(path.substr(0, slash)) == device) {
                children[leaf(path)] += stats.wall_ns;
            }
        }
    }
    if (device_ns == 0) return;
    const auto pct = [device_ns](std::uint64_t ns) {
        return 100.0 * static_cast<double>(ns) / static_cast<double>(device_ns);
    };
    out << "\nlifecycle.device: " << static_cast<double>(device_ns) / 1e6 << " ms wall\n";
    for (const auto& [name, ns] : children) out << "  " << name << ": " << pct(ns) << "%\n";
    const std::uint64_t self_ns = device_ns > child_ns ? device_ns - child_ns : 0;
    out << "  self (unattributed): " << pct(self_ns) << "% (target <= 20%)\n";
}

}  // namespace

int main() {
    using namespace drel;
    bench::MetricsSidecar sidecar("bench_fig14_lifecycle");
    bench::print_header("E19 (Fig. 14, extension)",
                        "Lifecycle with a novel device type from round 3 (half of new "
                        "devices), mean+-std over 4 seeds. nov-acc = accuracy of "
                        "novel-type devices that round.");

    const int num_seeds = 4;
    const std::size_t rounds = 9;
    obs::Profiler::global().enable();

    struct World {
        std::vector<stats::RunningStats> mean_acc{rounds};
        std::vector<stats::RunningStats> novel_acc{rounds};
        std::vector<stats::RunningStats> components{rounds};
        stats::RunningStats total_bytes;
        int rebroadcasts = 0;
    };
    World fed;
    World frozen;

    for (int s = 0; s < num_seeds; ++s) {
        edgesim::LifecycleConfig config;
        config.rounds = rounds;
        config.devices_per_round = 10;
        config.novel_mode_round = 3;
        config.learner.transfer_weight = 2.0;
        config.learner.em.max_outer_iterations = 12;

        for (const bool feedback : {true, false}) {
            config.feedback = feedback;
            stats::Rng rng(4200 + s);
            const edgesim::LifecycleReport report = edgesim::run_lifecycle(config, rng);
            World& world = feedback ? fed : frozen;
            for (std::size_t r = 0; r < rounds; ++r) {
                world.mean_acc[r].push(report.rounds[r].mean_accuracy);
                if (report.rounds[r].novel_mode_accuracy >= 0.0) {
                    world.novel_acc[r].push(report.rounds[r].novel_mode_accuracy);
                }
                world.components[r].push(
                    static_cast<double>(report.rounds[r].prior_components));
                if (r > 0 && report.rounds[r].rebroadcast) ++world.rebroadcasts;
            }
            world.total_bytes.push(static_cast<double>(report.total_broadcast_bytes +
                                                       report.total_upload_bytes));
        }
    }

    util::Table table({"round", "fed acc", "fed nov-acc", "fed K", "frozen acc",
                       "frozen nov-acc", "frozen K"});
    for (std::size_t r = 0; r < rounds; ++r) {
        auto nov = [&](World& w) {
            return w.novel_acc[r].count() == 0 ? std::string("-")
                                               : bench::mean_std(w.novel_acc[r]);
        };
        table.add_row({std::to_string(r), bench::mean_std(fed.mean_acc[r]), nov(fed),
                       bench::mean_std(fed.components[r], 1),
                       bench::mean_std(frozen.mean_acc[r]), nov(frozen),
                       bench::mean_std(frozen.components[r], 1)});
    }
    table.print(std::cout);

    std::cout << "\nfeedback world : " << fed.rebroadcasts << " re-broadcasts across "
              << num_seeds << " seeds, " << bench::mean_std(fed.total_bytes, 0)
              << " total bytes (broadcast + uploads)\n"
              << "frozen world   : " << frozen.rebroadcasts << " re-broadcasts, "
              << bench::mean_std(frozen.total_bytes, 0) << " total bytes\n";
    // Timing goes to stderr so stdout stays identical from run to run.
    report_device_attribution(std::cerr);
    return 0;
}
