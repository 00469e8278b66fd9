#include "stats/rng.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace drel::stats {
namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

// Words ready after the first lazy step of the first block; each later step
// doubles the ready prefix. A stream that takes only a few draws (most fleet
// streams) stops after one step that seeds kFirstChunk + 156 words, and one
// that drains the block takes eight steps.
constexpr std::uint32_t kFirstChunk = 4;

}  // namespace

Rng::Mt19937_64& Rng::Mt19937_64::operator=(const Mt19937_64& other) noexcept {
    if (this == &other) return *this;
    seed_ = other.seed_;
    filled_ = other.filled_;
    ready_ = other.ready_;
    pos_ = other.pos_;
    std::copy_n(other.state_, filled_, state_);
    return *this;
}

Rng::Mt19937_64::result_type Rng::Mt19937_64::operator()() noexcept {
    if (pos_ == ready_) refill();
    std::uint64_t z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
}

void Rng::Mt19937_64::refill() noexcept {
    if (ready_ == kWords) {
        twist(0, kWords);
        pos_ = 0;
        return;
    }
    const std::uint32_t end = std::min(std::max(2 * ready_, kFirstChunk), kWords);
    seed_through(std::min(end + kShift, kWords));
    twist(ready_, end);
    ready_ = end;
}

// std::mt19937_64's seeding recurrence, continued up to word `end`. Called
// only while the first block is being built, so state_[filled_ - 1] is still
// an untwisted seed word.
void Rng::Mt19937_64::seed_through(std::uint32_t end) noexcept {
    if (filled_ == 0) state_[filled_++] = seed_;
    for (std::uint32_t i = filled_; i < end; ++i) {
        const std::uint64_t prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
    filled_ = std::max(filled_, end);
}

// The in-place MT19937-64 twist of words [begin, end), in the same order as
// the full-block twist, so any split into consecutive ranges produces the
// same block.
void Rng::Mt19937_64::twist(std::uint32_t begin, std::uint32_t end) noexcept {
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    constexpr std::uint64_t kLower = ~kUpper;
    const auto mix = [](std::uint64_t far, std::uint64_t cur, std::uint64_t next) {
        const std::uint64_t y = (cur & kUpper) | (next & kLower);
        return far ^ (y >> 1) ^ ((y & 1U) != 0 ? 0xB5026F5AA96619E9ULL : 0);
    };
    std::uint32_t k = begin;
    for (const std::uint32_t stop = std::min(end, kWords - kShift); k < stop; ++k) {
        state_[k] = mix(state_[k + kShift], state_[k], state_[k + 1]);
    }
    for (const std::uint32_t stop = std::min(end, kWords - 1); k < stop; ++k) {
        state_[k] = mix(state_[k + kShift - kWords], state_[k], state_[k + 1]);
    }
    if (k < end) state_[k] = mix(state_[kShift - 1], state_[k], state_[0]);
}

Rng Rng::fork(std::uint64_t tag) const noexcept {
    return Rng(splitmix64(seed() ^ splitmix64(tag + 0xA5A5A5A5A5A5A5A5ULL)));
}

double Rng::uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
    if (!(lo < hi)) throw std::invalid_argument("Rng::uniform: requires lo < hi");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::size_t Rng::uniform_index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::uniform_index: n must be positive");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

double Rng::normal() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

double Rng::normal(double mean, double stddev) {
    if (!(stddev >= 0.0)) throw std::invalid_argument("Rng::normal: stddev must be >= 0");
    return mean + stddev * normal();
}

double Rng::gamma(double shape, double scale) {
    if (!(shape > 0.0) || !(scale > 0.0)) {
        throw std::invalid_argument("Rng::gamma: shape and scale must be positive");
    }
    // Marsaglia–Tsang squeeze; boost shape < 1 via the standard power trick.
    if (shape < 1.0) {
        const double u = uniform();
        return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        double x;
        double v;
        do {
            x = normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
        if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v * scale;
    }
}

double Rng::beta(double a, double b) {
    const double x = gamma(a);
    const double y = gamma(b);
    return x / (x + y);
}

double Rng::exponential(double rate) {
    if (!(rate > 0.0)) throw std::invalid_argument("Rng::exponential: rate must be positive");
    return std::exponential_distribution<double>(rate)(engine_);
}

std::size_t Rng::categorical(const linalg::Vector& weights) {
    if (weights.empty()) throw std::invalid_argument("Rng::categorical: empty weights");
    double total = 0.0;
    for (const double w : weights) {
        if (w < 0.0 || !std::isfinite(w)) {
            throw std::invalid_argument("Rng::categorical: weights must be finite and >= 0");
        }
        total += w;
    }
    if (!(total > 0.0)) throw std::invalid_argument("Rng::categorical: all weights are zero");
    double u = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        u -= weights[i];
        if (u <= 0.0) return i;
    }
    return weights.size() - 1;  // round-off fallthrough
}

linalg::Vector Rng::dirichlet(const linalg::Vector& alpha) {
    if (alpha.empty()) throw std::invalid_argument("Rng::dirichlet: empty alpha");
    linalg::Vector out(alpha.size());
    double total = 0.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        out[i] = gamma(alpha[i]);
        total += out[i];
    }
    if (total <= 0.0) {
        // Extremely small alphas can underflow every gamma draw; fall back to
        // a one-hot draw, which is the correct limiting behaviour.
        linalg::Vector one_hot(alpha.size(), 0.0);
        one_hot[categorical(alpha)] = 1.0;
        return one_hot;
    }
    for (double& v : out) v /= total;
    return out;
}

linalg::Vector Rng::standard_normal_vector(std::size_t n) {
    linalg::Vector out(n);
    for (double& v : out) v = normal();
    return out;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        std::swap(out[i - 1], out[uniform_index(i)]);
    }
    return out;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
    if (k > n) throw std::invalid_argument("Rng::sample_without_replacement: k > n");
    std::vector<std::size_t> perm = permutation(n);
    perm.resize(k);
    return perm;
}

}  // namespace drel::stats
