#include "stats/weighted_reservoir.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace drel::stats {

WeightedReservoir::WeightedReservoir(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) {
        throw std::invalid_argument("WeightedReservoir: capacity must be >= 1");
    }
    heap_.reserve(capacity_);
}

void WeightedReservoir::offer(std::size_t item, double weight, Rng& rng) {
    if (weight < 0.0 || !std::isfinite(weight)) {
        throw std::invalid_argument("WeightedReservoir: weight must be finite and >= 0");
    }
    const auto cmp = [](const Entry& a, const Entry& b) noexcept { return a.key > b.key; };

    if (heap_.size() < capacity_) {
        // Filling phase: every item draws its own key, exactly the naive
        // A-ES. Zero weight takes the limit key u^(1/w) -> 0 with no draw.
        Entry entry;
        entry.item = item;
        entry.key = weight > 0.0 ? std::pow(rng.uniform(), 1.0 / weight) : 0.0;
        heap_.push_back(entry);
        std::push_heap(heap_.begin(), heap_.end(), cmp);
        jump_armed_ = false;  // min key changed; re-arm on the next offer
        return;
    }

    if (!jump_armed_) arm_jump(rng);
    if (weight <= 0.0) return;  // can never displace a resident key

    skip_remaining_ -= weight;
    if (skip_remaining_ > 0.0) return;  // jumped over this item

    // This item crosses the jump threshold: it enters with a key
    // conditioned to beat the current minimum T — u ~ U(T^w, 1),
    // key = u^(1/w) in (T, 1).
    const double min_key = heap_.front().key;
    Entry entry;
    entry.item = item;
    if (min_key <= 0.0) {
        entry.key = std::pow(rng.uniform(), 1.0 / weight);
    } else if (min_key >= 1.0) {
        entry.key = 1.0;  // degenerate: every key saturated at 1
    } else {
        const double floor_u = std::pow(min_key, weight);
        // floor_u can round UP to 1.0 for tiny weights; the conditioned
        // uniform then has no width and the key collapses to the minimum.
        entry.key = floor_u < 1.0 ? std::pow(rng.uniform(floor_u, 1.0), 1.0 / weight)
                                  : min_key;
    }
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    heap_.back() = entry;
    std::push_heap(heap_.begin(), heap_.end(), cmp);
    arm_jump(rng);
}

void WeightedReservoir::arm_jump(Rng& rng) {
    const double min_key = heap_.front().key;
    if (min_key <= 0.0) {
        // A zero key at the root: the next positive-weight item displaces it
        // immediately, no draw needed.
        skip_remaining_ = 0.0;
    } else if (min_key >= 1.0) {
        skip_remaining_ = std::numeric_limits<double>::infinity();
    } else {
        // X = log(r) / log(T): the exponentially-distributed weight to skip.
        // r is clamped away from 0 so a once-in-2^53 uniform cannot freeze
        // the reservoir with an infinite skip.
        const double r = std::max(rng.uniform(), std::numeric_limits<double>::min());
        skip_remaining_ = std::log(r) / std::log(min_key);
    }
    jump_armed_ = true;
}

std::vector<std::size_t> WeightedReservoir::sorted_items() const {
    std::vector<std::size_t> items;
    items.reserve(heap_.size());
    for (const Entry& entry : heap_) items.push_back(entry.item);
    std::sort(items.begin(), items.end());
    return items;
}

}  // namespace drel::stats
