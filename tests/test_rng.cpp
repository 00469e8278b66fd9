// stats::Rng against std::mt19937_64: the engine inside Rng seeds and twists
// lazily but must emit exactly the standard MT19937-64 sequence, and its own
// uniform()/normal() must return exactly what std::uniform_real_distribution
// and std::normal_distribution return on that sequence, so every golden
// built on the standard distributions consumes the same bits it always has.
// A few first draws are also pinned to literal bit patterns, so the streams
// cannot move silently with a standard library that changes its algorithms.
//
// Raw 64-bit words are read through the public API as
// uniform_index(SIZE_MAX), i.e. std::uniform_int_distribution over
// [0, 2^64 - 2]. For that range one engine word maps to one output,
// one-to-one, so comparing these outputs with the same distribution run on
// std::mt19937_64 compares the words themselves.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "stats/rng.hpp"

namespace {

using drel::stats::Rng;

constexpr std::size_t kFullRange = std::numeric_limits<std::size_t>::max();

std::uint64_t word(Rng& rng) { return rng.uniform_index(kFullRange); }

std::uint64_t word(std::mt19937_64& oracle) {
    return std::uniform_int_distribution<std::size_t>(0, kFullRange - 1)(oracle);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Seeds 0, 1, 5489 (the standard default), UINT64_MAX and `count` more
/// spread over the whole 64-bit range.
std::vector<std::uint64_t> test_seeds(std::size_t count) {
    std::vector<std::uint64_t> seeds = {0, 1, 5489, std::numeric_limits<std::uint64_t>::max()};
    std::uint64_t x = 0x243F6A8885A308D3ULL;
    for (std::size_t i = 0; i < count; ++i) {
        x += 0x9E3779B97F4A7C15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        seeds.push_back(z ^ (z >> 31));
    }
    return seeds;
}

/// Draw counts around every boundary of the lazy first block (156 = m,
/// 312 = n) and of the first two full twists.
const std::vector<std::size_t> kDrawCounts = {0,   1,   155, 156, 157, 311,
                                              312, 313, 623, 624, 625, 2000};

/// Draws `count` words from both and fails on the first mismatch.
::testing::AssertionResult same_words(Rng& rng, std::mt19937_64& oracle, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t got = word(rng);
        const std::uint64_t want = word(oracle);
        if (got != want) {
            return ::testing::AssertionFailure()
                   << "seed " << rng.seed() << " word " << i << ": " << got << " != " << want;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(RngStream, MatchesStdMt19937_64AcrossSeedsAndDrawCounts) {
    for (const std::uint64_t seed : test_seeds(1000)) {
        for (const std::size_t drawn : kDrawCounts) {
            Rng rng(seed);
            std::mt19937_64 oracle(seed);
            ASSERT_TRUE(same_words(rng, oracle, drawn));
            // Whatever has been built so far, the stream continues exactly.
            ASSERT_TRUE(same_words(rng, oracle, 40)) << "after " << drawn << " draws";
        }
    }
}

TEST(RngStream, StandardValueForDefaultSeed) {
    // [rand.predef]: the 10000th consecutive invocation of a
    // default-constructed std::mt19937_64 (seed 5489) produces
    // 9981545732273789042.
    struct Fixed {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }
        result_type value;
        result_type operator()() const { return value; }
    };
    Fixed standard_word{9981545732273789042ULL};
    const std::uint64_t expected =
        std::uniform_int_distribution<std::size_t>(0, kFullRange - 1)(standard_word);

    Rng rng(5489);
    for (int i = 0; i < 9999; ++i) (void)word(rng);
    EXPECT_EQ(word(rng), expected);
}

TEST(RngStream, CopyAndAssignmentMidStream) {
    for (const std::uint64_t seed : test_seeds(64)) {
        for (const std::size_t drawn : kDrawCounts) {
            Rng rng(seed);
            std::mt19937_64 oracle(seed);
            ASSERT_TRUE(same_words(rng, oracle, drawn));

            Rng copied(rng);
            std::mt19937_64 copied_oracle(oracle);
            ASSERT_TRUE(same_words(copied, copied_oracle, 700)) << "copy after " << drawn;

            // Assign over a stream that has built more state than the
            // source: none of the target's old words may leak through.
            Rng assigned(seed ^ 0x5555);
            for (int i = 0; i < 1000; ++i) (void)word(assigned);
            assigned = rng;
            std::mt19937_64 assigned_oracle(oracle);
            ASSERT_TRUE(same_words(assigned, assigned_oracle, 700)) << "assign after " << drawn;

            // The source is untouched by being copied.
            ASSERT_TRUE(same_words(rng, oracle, 700)) << "source after " << drawn;
        }
    }
}

TEST(RngStream, SelfAssignmentKeepsTheStream) {
    Rng rng(17);
    std::mt19937_64 oracle(17);
    ASSERT_TRUE(same_words(rng, oracle, 200));
    Rng& alias = rng;
    rng = alias;
    EXPECT_TRUE(same_words(rng, oracle, 500));
}

TEST(RngStream, ThreeLevelForkChainsWithCopies) {
    for (const std::uint64_t seed : test_seeds(32)) {
        const Rng root(seed);
        for (std::uint64_t a = 0; a < 3; ++a) {
            Rng level1 = root.fork(a);
            for (std::uint64_t b = 0; b < 3; ++b) {
                Rng level2 = level1.fork(b);
                // Drawing from a parent never changes what it forks.
                const Rng before = level2.fork(7);
                for (int i = 0; i < 157; ++i) (void)word(level2);
                Rng level3 = level2.fork(7);
                EXPECT_EQ(level3.seed(), before.seed());
                EXPECT_EQ(level3.seed(), root.fork(a).fork(b).fork(7).seed());

                std::mt19937_64 oracle(level3.seed());
                for (const std::size_t drawn : std::vector<std::size_t>{1, 200, 400}) {
                    ASSERT_TRUE(same_words(level3, oracle, drawn));
                    Rng copied = level3;
                    std::mt19937_64 copied_oracle = oracle;
                    ASSERT_TRUE(same_words(copied, copied_oracle, 400));
                    level2 = copied;  // assign a deeper stream over its parent
                    ASSERT_TRUE(same_words(level2, copied_oracle, 400));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Every Rng method equals the same algorithm run on std::mt19937_64. Each
// test interleaves calls so they straddle the lazy first block's chunk
// boundaries and the later full twists.

constexpr int kMethodCalls = 1500;

TEST(RngMethod, UniformMatchesStdDistribution) {
    for (const std::uint64_t seed : test_seeds(16)) {
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < kMethodCalls; ++i) {
            if (i % 3 == 2) {
                ASSERT_EQ(bits(rng.uniform(-2.5, 4.0)),
                          bits(std::uniform_real_distribution<double>(-2.5, 4.0)(oracle)));
            } else {
                ASSERT_EQ(bits(rng.uniform()),
                          bits(std::uniform_real_distribution<double>(0.0, 1.0)(oracle)));
            }
        }
    }
}

TEST(RngMethod, UniformIndexMatchesStdDistribution) {
    const std::vector<std::size_t> sizes = {1, 2, 3, 7, 1000, (std::size_t{1} << 40) + 3};
    for (const std::uint64_t seed : test_seeds(16)) {
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < kMethodCalls; ++i) {
            const std::size_t n = sizes[static_cast<std::size_t>(i) % sizes.size()];
            ASSERT_EQ(rng.uniform_index(n),
                      std::uniform_int_distribution<std::size_t>(0, n - 1)(oracle));
        }
    }
}

TEST(RngMethod, NormalMatchesStdDistribution) {
    for (const std::uint64_t seed : test_seeds(16)) {
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < kMethodCalls; ++i) {
            const double z = std::normal_distribution<double>(0.0, 1.0)(oracle);
            if (i % 2 == 0) {
                ASSERT_EQ(bits(rng.normal()), bits(z));
            } else {
                ASSERT_EQ(bits(rng.normal(1.5, 0.25)), bits(1.5 + 0.25 * z));
            }
        }
    }
}

/// Marsaglia–Tsang with the shape < 1 power boost, on the std engine.
double oracle_gamma(std::mt19937_64& e, double shape, double scale) {
    const auto uniform = [&e] { return std::uniform_real_distribution<double>(0.0, 1.0)(e); };
    if (shape < 1.0) {
        const double u = uniform();
        return oracle_gamma(e, shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        double x;
        double v;
        do {
            x = std::normal_distribution<double>(0.0, 1.0)(e);
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
        if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v * scale;
    }
}

TEST(RngMethod, GammaMatchesMarsagliaTsangOnStdEngine) {
    const std::vector<double> shapes = {0.3, 1.0, 2.5, 40.0};
    for (const std::uint64_t seed : test_seeds(16)) {
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < kMethodCalls / 2; ++i) {
            const double shape = shapes[static_cast<std::size_t>(i) % shapes.size()];
            ASSERT_EQ(bits(rng.gamma(shape, 0.75)), bits(oracle_gamma(oracle, shape, 0.75)));
        }
    }
}

TEST(RngMethod, CategoricalMatchesCdfScanOnStdEngine) {
    const drel::linalg::Vector weights = {0.5, 0.0, 2.0, 1.25, 0.25};
    double total = 0.0;
    for (const double w : weights) total += w;
    for (const std::uint64_t seed : test_seeds(16)) {
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < kMethodCalls; ++i) {
            double u = std::uniform_real_distribution<double>(0.0, 1.0)(oracle) * total;
            std::size_t want = weights.size() - 1;
            for (std::size_t k = 0; k < weights.size(); ++k) {
                u -= weights[k];
                if (u <= 0.0) {
                    want = k;
                    break;
                }
            }
            ASSERT_EQ(rng.categorical(weights), want);
        }
    }
}

TEST(RngMethod, PermutationMatchesFisherYatesOnStdEngine) {
    for (const std::uint64_t seed : test_seeds(16)) {
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (const std::size_t n : std::vector<std::size_t>{0, 1, 2, 5, 64, 400}) {
            std::vector<std::size_t> want(n);
            for (std::size_t i = 0; i < n; ++i) want[i] = i;
            for (std::size_t i = n; i > 1; --i) {
                std::swap(want[i - 1],
                          want[std::uniform_int_distribution<std::size_t>(0, i - 1)(oracle)]);
            }
            ASSERT_EQ(rng.permutation(n), want) << "n = " << n;
        }
    }
}

// ---------------------------------------------------------------------------
// fill_standard_normal is n calls of normal(): the same values, and the
// stream left at the same word.

/// Fills n normals into one stream and draws n normal() from the other,
/// then checks the values bit for bit and the next word of both streams.
::testing::AssertionResult fill_matches_calls(Rng& filled, Rng& called, std::size_t n) {
    std::vector<double> bulk(n);
    filled.fill_standard_normal(bulk.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const double z = called.normal();
        if (bits(bulk[i]) != bits(z)) {
            return ::testing::AssertionFailure()
                   << "seed " << filled.seed() << " normal " << i << " of " << n << ": "
                   << bulk[i] << " != " << z;
        }
    }
    if (word(filled) != word(called)) {
        return ::testing::AssertionFailure() << "seed " << filled.seed() << ": streams part after "
                                             << n << " normals";
    }
    return ::testing::AssertionSuccess();
}

TEST(RngFill, EqualsRepeatedNormalAcrossEveryBoundary) {
    for (const std::uint64_t seed : test_seeds(16)) {
        // 0..625 words drawn first, so fills start on every lazy-chunk and
        // full-twist boundary of the first two blocks.
        for (std::size_t drawn = 0; drawn <= 625; ++drawn) {
            Rng filled(seed);
            for (std::size_t i = 0; i < drawn; ++i) (void)word(filled);
            Rng called(filled);
            const std::size_t n = 1 + (drawn * 37) % 331;
            ASSERT_TRUE(fill_matches_calls(filled, called, n)) << "after " << drawn << " words";
        }
    }
}

TEST(RngFill, LongFillsEqualRepeatedNormal) {
    for (const std::uint64_t seed : test_seeds(16)) {
        for (const std::size_t n : std::vector<std::size_t>{0, 1, 2, 155, 156, 312, 1500}) {
            Rng filled(seed);
            Rng called(seed);
            ASSERT_TRUE(fill_matches_calls(filled, called, n)) << "n = " << n;
        }
    }
}

TEST(RngFill, MidStreamCopiesAndForks) {
    for (const std::uint64_t seed : test_seeds(16)) {
        Rng root(seed);
        (void)root.normal();
        for (std::uint64_t tag = 0; tag < 4; ++tag) {
            // A fork of a stream that has drawn, filled against its twin.
            Rng filled = root.fork(tag);
            Rng called = Rng(seed).fork(tag);
            ASSERT_TRUE(fill_matches_calls(filled, called, 100 + 60 * tag));

            // A copy taken between two fills continues like the original.
            Rng copy(filled);
            ASSERT_TRUE(fill_matches_calls(copy, called, 400));
            Rng again(seed);
            again = filled;
            ASSERT_TRUE(fill_matches_calls(filled, again, 400));
        }
    }
}

TEST(RngFill, StandardNormalVectorIsAFill) {
    for (const std::uint64_t seed : test_seeds(16)) {
        Rng vec_rng(seed);
        Rng called(seed);
        const drel::linalg::Vector v = vec_rng.standard_normal_vector(700);
        for (const double x : v) ASSERT_EQ(bits(x), bits(called.normal()));
        ASSERT_EQ(word(vec_rng), word(called));
    }
}

// ---------------------------------------------------------------------------
// The first four uniform() and normal() draws of three seeds, as bit
// patterns. They equal what libstdc++'s distributions return on
// std::mt19937_64 today; they must not change with the standard library.

struct PinnedDraws {
    std::uint64_t seed;
    std::uint64_t uniform[4];
    std::uint64_t normal[4];
};

constexpr PinnedDraws kPinned[] = {
    {0,
     {0x3FC4741BE2E5A0EEULL, 0x3FEFBFA74F87C81FULL, 0x3FA442642FE065D1ULL,
      0x3FE31EAD2079DC80ULL},
     {0x3FBA17559ECA5E43ULL, 0xBFE5C78002CD6723ULL, 0xBFF189B3FBDECB2FULL,
      0x3FFD84414636C521ULL}},
    {1,
     {0x3FC122DEAFDDB438ULL, 0x3FC175C928118C7DULL, 0x3FDCE0B479DEB991ULL,
      0x3F95876015E4D702ULL},
     {0xBFD8C1DA014DDA10ULL, 0x3FE5FA75918CA314ULL, 0xBFE971D689089FDDULL,
      0x3FFF01D3E119CA68ULL}},
    {5489,
     {0x3FE92DA3239EDED6ULL, 0x3FD007DEB1E2F204ULL, 0x3FE6BDD196D57C8BULL,
      0x3FEE4B1A45A9B722ULL},
     {0xBFE5FCEF5939FE3AULL, 0x3FC9BE8078C10041ULL, 0xBFAC2E4DFC3EAC4AULL,
      0xC00115A685BBBE7CULL}},
};

TEST(RngPinned, FirstUniformAndNormalDraws) {
    for (const PinnedDraws& pin : kPinned) {
        Rng uniform_rng(pin.seed);
        Rng normal_rng(pin.seed);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(bits(uniform_rng.uniform()), pin.uniform[i])
                << "seed " << pin.seed << " uniform " << i;
            EXPECT_EQ(bits(normal_rng.normal()), pin.normal[i])
                << "seed " << pin.seed << " normal " << i;
        }
    }
}

}  // namespace
