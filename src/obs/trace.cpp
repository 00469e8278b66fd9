#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace drel::obs {
namespace {

std::uint64_t steady_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void flush_global_at_exit() { (void)TraceCollector::global().flush(); }

}  // namespace

TraceCollector::TraceCollector() : epoch_ns_(steady_ns()) {
    if (const char* env = std::getenv("DREL_TRACE"); env != nullptr && env[0] != '\0') {
        path_ = env;
        enabled_.store(true, std::memory_order_relaxed);
        std::atexit(&flush_global_at_exit);
    }
}

TraceCollector& TraceCollector::global() {
    static TraceCollector* instance = new TraceCollector();  // leaked: outlives all spans
    return *instance;
}

void TraceCollector::enable(std::string path) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        path_ = std::move(path);
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void TraceCollector::record(const char* name, std::uint64_t ts_us,
                            std::uint64_t dur_us) noexcept {
    const std::size_t tid = detail::thread_slot();
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(Event{name, ts_us, dur_us, tid});
}

void TraceCollector::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::string TraceCollector::json() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    JsonValue::Array trace_events;
    trace_events.reserve(events_.size());
    for (const Event& e : events_) {
        JsonValue::Object event;
        event.emplace("name", e.name);
        event.emplace("cat", "drel");
        event.emplace("ph", "X");
        event.emplace("pid", std::uint64_t{1});
        event.emplace("tid", static_cast<std::uint64_t>(e.tid));
        event.emplace("ts", e.ts_us);
        event.emplace("dur", e.dur_us);
        trace_events.push_back(std::move(event));
    }
    JsonValue::Object doc;
    doc.emplace("traceEvents", std::move(trace_events));
    doc.emplace("displayTimeUnit", "ms");
    return JsonValue(std::move(doc)).dump(0);
}

bool TraceCollector::flush() {
    std::string path;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        path = path_;
    }
    if (path.empty()) return false;
    const std::string document = json();
    std::ofstream out(path);
    if (!out) {
        DREL_LOG_WARN("obs") << "cannot write trace file " << path;
        return false;
    }
    out << document << "\n";
    if (!out) return false;
    clear();
    DREL_LOG_INFO("obs") << "trace written to " << path;
    return true;
}

std::uint64_t TraceCollector::now_us() const noexcept {
    return (steady_ns() - epoch_ns_) / 1000;
}

}  // namespace drel::obs
