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
//
// uniform() and normal() are the library's own code, transcribed from the
// algorithms libstdc++ runs for a freshly constructed
// std::uniform_real_distribution / std::normal_distribution on this engine
// (see DESIGN.md "Owned distributions"). They consume the same words and
// return the same bits, so every stream and golden built on the standard
// distributions reproduces; the engine step is inline.
#pragma once

#include <cmath>
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

    /// U[0,1): one engine word scaled by 2^-64, as
    /// std::generate_canonical<double, 53> computes it for a 64-bit engine,
    /// including its clamp of a result that rounds up to 1.
    double uniform() noexcept {
        const double u = static_cast<double>(engine_()) / 18446744073709551616.0;
        return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
    }
    /// U[lo,hi)
    double uniform(double lo, double hi);
    /// Uniform integer in [0, n).
    std::size_t uniform_index(std::size_t n);

    /// N(0,1) by the Marsaglia polar method, as a fresh
    /// std::normal_distribution draws it: the variate paired with the
    /// returned one is discarded, so each call starts a new pair.
    double normal() noexcept;
    /// N(mean, stddev^2)
    double normal(double mean, double stddev);

    /// Gamma(shape, scale). Marsaglia–Tsang; valid for any shape > 0.
    double gamma(double shape, double scale = 1.0);

    /// Beta(a, b)
    double beta(double a, double b);

    /// Draws an index with probability proportional to `weights` (must be
    /// non-negative and not all zero).
    std::size_t categorical(const linalg::Vector& weights);

    /// Writes n iid N(0,1) draws to out[0, n): exactly n calls of normal().
    void fill_standard_normal(double* out, std::size_t n) noexcept;

    /// Vector of iid N(0,1).
    linalg::Vector standard_normal_vector(std::size_t n);

    /// Fisher–Yates shuffle of indices [0, n).
    std::vector<std::size_t> permutation(std::size_t n);

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

        result_type operator()() noexcept {
            if (pos_ == ready_) refill();
            std::uint64_t z = state_[pos_++];
            z ^= (z >> 29) & 0x5555555555555555ULL;
            z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
            z ^= (z << 37) & 0xFFF7EEE000000000ULL;
            return z ^ (z >> 43);
        }

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
