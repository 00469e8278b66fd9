// In-memory span recorder for the traced replica runs.
//
// A span is (layer, round, start, end) on the steady clock, recorded on the
// thread that ran it into that thread's own buffer — no lock on the hot
// path, no I/O until the run ends. Spans nest by time on one thread (a
// fault-decision span inside a device-work span); the analysis derives
// self and gap times from the intervals, so no parent pointer is stored.
//
// The recorder lives only in the benchmark: it wraps calls INTO the
// library's public functions from the benchmark's own closures and adds
// nothing inside the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace fleetbench {

enum class Layer : std::uint8_t {
    kDeviceWork,        ///< the DeviceWork closure (engine parallel phase)
    kBatchScore,        ///< the BatchScoreFn closure (engine parallel phase)
    kRoundEnd,          ///< the RoundEndFn closure (serial)
    kFaults,            ///< FaultPlan::device_faults + upload_outcome
    kDataGenerate,      ///< TaskPopulation::generate (train + test)
    kEmFit,             ///< EdgeLearner::fit
    kAccuracy,          ///< models::accuracy on the test set
    kUploadFit,         ///< ridge L-BFGS fit of the uploaded theta
    kCloudRefit,        ///< Gibbs add_observation loop or streaming VB, + extract
    kGibbsAdd,          ///< one DpmmGibbs::add_observation
    kStreamingAccumulate,  ///< one StreamingVb::accumulate
    kKlCheck,           ///< dp::symmetric_kl_estimate
    kEncode,            ///< edgesim::encode_prior
    kCount,
};

struct SpanRecord {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t round = 0;
    Layer layer = Layer::kDeviceWork;

    double seconds() const noexcept { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

class Tracer {
 public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Appends one span to the calling thread's buffer.
    void record(Layer layer, std::size_t round, std::uint64_t start_ns, std::uint64_t end_ns);

    /// Every thread's spans, one vector per recording thread, in recording
    /// order. Call only after the traced run returned (no span in flight).
    std::vector<std::vector<SpanRecord>> spans() const;

    // Counts taken at the same boundaries as the spans.
    std::atomic<std::uint64_t> em_fits{0};
    std::atomic<std::uint64_t> em_outer_iterations{0};
    std::atomic<std::uint64_t> em_degraded_fits{0};
    // Driver-thread only (RoundEndFn / set-up).
    std::uint64_t encoded_payload_bytes = 0;
    std::uint64_t encodes = 0;
    std::size_t gibbs_history = 0;

 private:
    struct Buffer {
        std::vector<SpanRecord> spans;
    };
    Buffer& local();

    const std::uint64_t id_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;  ///< guarded by mutex_
};

/// RAII span; a null tracer records nothing and reads no clock.
class Span {
 public:
    Span(Tracer* tracer, Layer layer, std::size_t round) noexcept
        : tracer_(tracer), round_(round), layer_(layer), start_(tracer ? now_ns() : 0) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
        if (tracer_ != nullptr) tracer_->record(layer_, round_, start_, now_ns());
    }

 private:
    Tracer* tracer_;
    std::size_t round_;
    Layer layer_;
    std::uint64_t start_;
};

}  // namespace fleetbench
