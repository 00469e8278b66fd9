// Deterministic random number generation.
//
// Everything stochastic in the library (data generators, Gibbs sampling,
// initialization) draws from an explicitly threaded Rng so experiments are
// exactly reproducible from a seed. `fork(tag)` derives independent
// sub-streams — one per device in the fleet simulation — without the
// devices' draws aliasing each other.
//
// The engine emits exactly the 64-bit sequence of std::mt19937_64 for the
// same seed (tests/test_rng.cpp holds it to that), but seeds and twists
// lazily: constructing or forking an Rng stores only the seed, and the first
// draw computes just the state words its first outputs depend on. A fleet
// forks several streams per device-round and draws a handful of values from
// each, so the full 312-word seeding and twist that std::mt19937_64 pays up
// front would dominate the round.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace drel::stats {

class Rng {
 public:
    explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

    std::uint64_t seed() const noexcept { return engine_.seed(); }

    /// Derives an independent stream. SplitMix64 mixing of (seed, tag) keeps
    /// sibling streams decorrelated even for adjacent tags. O(1): the child's
    /// state is built on its first draw.
    Rng fork(std::uint64_t tag) const noexcept;

    /// U[0,1)
    double uniform();
    /// U[lo,hi)
    double uniform(double lo, double hi);
    /// Uniform integer in [0, n).
    std::size_t uniform_index(std::size_t n);

    /// N(0,1)
    double normal();
    /// N(mean, stddev^2)
    double normal(double mean, double stddev);

    /// Gamma(shape, scale). Marsaglia–Tsang; valid for any shape > 0.
    double gamma(double shape, double scale = 1.0);

    /// Beta(a, b)
    double beta(double a, double b);

    /// Exponential with the given rate.
    double exponential(double rate);

    /// Draws an index with probability proportional to `weights` (must be
    /// non-negative and not all zero).
    std::size_t categorical(const linalg::Vector& weights);

    /// Draws from Dirichlet(alpha).
    linalg::Vector dirichlet(const linalg::Vector& alpha);

    /// Vector of iid N(0,1).
    linalg::Vector standard_normal_vector(std::size_t n);

    /// Fisher–Yates shuffle of indices [0, n).
    std::vector<std::size_t> permutation(std::size_t n);

    /// Samples `k` distinct indices from [0, n) without replacement.
    std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

 private:
    /// MT19937-64 with lazy seeding and a lazy first twist. Output is
    /// bit-identical to std::mt19937_64. The first block is built in chunks:
    /// new word k of the twist reads old words k, k+1 and k+156, so emitting
    /// words [0, c) needs only seed words [0, c+156). Every later block is
    /// the ordinary full twist. Only the leading `filled_` words of `state_`
    /// ever hold a value; copies move just those.
    class Mt19937_64 {
     public:
        using result_type = std::uint64_t;
        static constexpr result_type min() noexcept { return 0; }
        static constexpr result_type max() noexcept { return ~result_type{0}; }

        explicit Mt19937_64(std::uint64_t seed) noexcept : seed_(seed) {}
        Mt19937_64(const Mt19937_64& other) noexcept { *this = other; }
        Mt19937_64& operator=(const Mt19937_64& other) noexcept;

        std::uint64_t seed() const noexcept { return seed_; }

        result_type operator()() noexcept;

     private:
        static constexpr std::uint32_t kWords = 312;  // n
        static constexpr std::uint32_t kShift = 156;  // m

        void refill() noexcept;
        void seed_through(std::uint32_t end) noexcept;
        void twist(std::uint32_t begin, std::uint32_t end) noexcept;

        std::uint64_t seed_ = 0;
        std::uint32_t filled_ = 0;  ///< leading words of state_ holding a value
        std::uint32_t ready_ = 0;   ///< leading words twisted into the current block
        std::uint32_t pos_ = 0;     ///< next word to emit
        // Not initialized on purpose: clearing 2.5 KB would cost more than a
        // whole fork chain. Reads stay inside [0, filled_).
        std::uint64_t state_[kWords];
    };

    Mt19937_64 engine_;
};

}  // namespace drel::stats
