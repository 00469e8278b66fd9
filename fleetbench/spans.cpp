#include "spans.hpp"

namespace fleetbench {
namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

// The calling thread's buffer in the most recent tracer it recorded into.
// Tracer ids are never reused, so a stale entry can never match.
struct LocalSlot {
    std::uint64_t tracer_id = 0;
    void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

}  // namespace

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
    if (t_slot.tracer_id != id_) {
        auto buffer = std::make_unique<Buffer>();
        buffer->spans.reserve(1 << 16);
        t_slot.buffer = buffer.get();
        t_slot.tracer_id = id_;
        const std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::move(buffer));
    }
    return *static_cast<Buffer*>(t_slot.buffer);
}

void Tracer::record(Layer layer, std::size_t round, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
    local().spans.push_back(
        SpanRecord{start_ns, end_ns, static_cast<std::uint32_t>(round), layer});
}

std::vector<std::vector<SpanRecord>> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<SpanRecord>> out;
    out.reserve(buffers_.size());
    for (const auto& buffer : buffers_) out.push_back(buffer->spans);
    return out;
}

}  // namespace fleetbench
