// Weighted reservoir sampling without replacement — Efraimidis–Spirakis
// A-ES with exponential jumps (A-ExpJ).
//
// Keeps the k offered items with the largest keys u_i^(1/w_i), u_i ~ U(0,1)
// — which samples WITHOUT replacement with per-step inclusion proportional
// to weight — in O(k) memory over a stream of any length. The exponential
// jump replaces per-item key draws once the reservoir is full: from the
// current minimum key T one uniform gives the total WEIGHT to skip before
// the next admission, so a stream of n items costs O(k log(n/k)) expected
// RNG draws instead of n. The cloud uses this to subsample serviced device
// uploads for the Gibbs refresh (CloudServer::sample_serviced_thetas) with
// recency weights, bounding refresh cost at any fleet scale.
//
// Determinism: offers must arrive in a deterministic order for a given Rng
// (the server offers uploads sorted by (round, device)); the selected set is
// then a pure function of (stream order, weights, seed). The naive oracle —
// every item draws its own key, top-k wins — is
// linalg::reference::weighted_topk; the A-ExpJ stream must match its
// DISTRIBUTION (inclusion probabilities, pinned by tests/test_sampling_stats
// .cpp), not its draws, since the jumps consume a different uniform stream.
//
// Zero weights are legal: such items enter only while the reservoir is
// under-filled and are displaced before any positive-weight item — matching
// the w -> 0 limit u^(1/w) -> 0. Negative or non-finite weights throw
// std::invalid_argument.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/rng.hpp"

namespace drel::stats {

class WeightedReservoir {
 public:
    /// Throws std::invalid_argument on capacity == 0.
    explicit WeightedReservoir(std::size_t capacity);

    /// Offers one stream item. Throws std::invalid_argument on a negative
    /// or non-finite weight.
    void offer(std::size_t item, double weight, Rng& rng);

    std::size_t capacity() const noexcept { return capacity_; }
    std::size_t size() const noexcept { return heap_.size(); }

    /// The selected items, sorted ascending — a deterministic order for
    /// consumers (heap order is an implementation detail).
    std::vector<std::size_t> sorted_items() const;

 private:
    struct Entry {
        double key = 0.0;
        std::size_t item = 0;
    };

    void arm_jump(Rng& rng);

    std::size_t capacity_;
    std::vector<Entry> heap_;      ///< min-heap on key
    double skip_remaining_ = 0.0;  ///< weight left to jump before the next admission
    bool jump_armed_ = false;
};

}  // namespace drel::stats
