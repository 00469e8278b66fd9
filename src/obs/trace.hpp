// Scoped trace spans with a chrome://tracing-compatible JSON exporter.
//
// Usage: set DREL_TRACE=/tmp/run.trace.json in the environment; every
// DREL_TRACE_SPAN("name") scope in the process then records one complete
// ("ph":"X") event, and the trace file is written at process exit (or on an
// explicit flush()). Load the file in chrome://tracing or Perfetto.
//
// Cost model: when tracing is off (no DREL_TRACE), a span is one relaxed
// atomic load and two untaken branches — no clock reads, no allocation, no
// locks — so instrumentation can stay in the hot paths permanently. When
// on, each span takes two steady_clock reads and one short mutex-protected
// append; spans are therefore placed at solve/device granularity, not
// inside per-example loops.
//
// Tracing never feeds the metrics registry: span durations are wall clock
// and would violate the deterministic-snapshot contract (see metrics.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace drel::obs {

class TraceCollector {
 public:
    /// Process-wide collector. Reads DREL_TRACE once at first use; if set
    /// and non-empty, tracing starts enabled with that output path and a
    /// flush is registered via atexit.
    static TraceCollector& global();

    TraceCollector(const TraceCollector&) = delete;
    TraceCollector& operator=(const TraceCollector&) = delete;

    bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

    /// Programmatic control (tests, long-lived services). enable() replaces
    /// the output path; disable() stops recording but keeps buffered events.
    void enable(std::string path);
    void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }

    /// Appends one complete event. `name` must point at storage that
    /// outlives the collector (string literals at the macro call sites).
    void record(const char* name, std::uint64_t ts_us, std::uint64_t dur_us) noexcept;

    void clear();

    /// The chrome://tracing JSON document for everything recorded so far.
    std::string json() const;

    /// Writes json() to the configured path and clears the buffer. Returns
    /// false (logging a warning) when disabled-with-no-path or on IO error.
    bool flush();

    /// Microseconds since collector creation (the trace time base).
    std::uint64_t now_us() const noexcept;

 private:
    TraceCollector();

    std::atomic<bool> enabled_{false};
    std::uint64_t epoch_ns_ = 0;

    mutable std::mutex mutex_;
    std::string path_;
    struct Event {
        const char* name;
        std::uint64_t ts_us;
        std::uint64_t dur_us;
        std::size_t tid;
    };
    std::vector<Event> events_;
};

/// RAII complete-event span. Captures the start time only when tracing is
/// enabled at construction; records at destruction.
class TraceSpan {
 public:
    explicit TraceSpan(const char* name) noexcept {
        TraceCollector& collector = TraceCollector::global();
        if (collector.enabled()) {
            name_ = name;
            start_us_ = collector.now_us();
        }
    }
    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;
    ~TraceSpan() {
        if (name_ != nullptr) {
            TraceCollector& collector = TraceCollector::global();
            collector.record(name_, start_us_, collector.now_us() - start_us_);
        }
    }

 private:
    const char* name_ = nullptr;
    std::uint64_t start_us_ = 0;
};

}  // namespace drel::obs

#define DREL_OBS_CONCAT_IMPL(a, b) a##b
#define DREL_OBS_CONCAT(a, b) DREL_OBS_CONCAT_IMPL(a, b)
/// One scoped trace span; `name` must be a string literal.
#define DREL_TRACE_SPAN(name) \
    ::drel::obs::TraceSpan DREL_OBS_CONCAT(drel_obs_span_, __LINE__) { name }
