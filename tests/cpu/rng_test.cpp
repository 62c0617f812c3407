/**
 * The simulator's random source must make exactly the draws and
 * decisions of std::mt19937_64 and std::uniform_real_distribution
 * that the trace fingerprints were recorded with.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "cpu/rng.h"

namespace
{

using eddie::cpu::CoinThreshold;
using eddie::cpu::Mt19937x64;

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(Mt19937x64Test, SameStreamAsStdEngine)
{
    for (const std::uint64_t seed : {std::uint64_t(0), std::uint64_t(1),
                                     std::uint64_t(5489), kMax}) {
        std::mt19937_64 want(seed);
        Mt19937x64 got(seed);
        for (int i = 0; i < 1'000'000; ++i)
            ASSERT_EQ(got(), want()) << "seed " << seed << " draw " << i;
    }
}

TEST(Mt19937x64Test, SameDistributionDraws)
{
    std::mt19937_64 want(17);
    Mt19937x64 got(17);
    std::uniform_real_distribution<double> d(0.5, 1.5);
    for (int i = 0; i < 100'000; ++i)
        ASSERT_EQ(d(got), d(want)) << "draw " << i;
}

// The threshold is found by bisection over the standard library's
// own mapping, which is only valid if that mapping is monotone and
// uses one engine draw per coin. libstdc++ maps x to double(x) * 2^-64
// clamped below 1; the recorded trace fingerprints assume it too.
TEST(CoinThresholdTest, StandardCoinIsLibstdcxxCanonical)
{
    std::mt19937_64 rng(3);
    std::vector<std::uint64_t> xs = {0,        1,        (1u << 11) - 1,
                                     1u << 11, kMax - 1024, kMax - 1,
                                     kMax};
    for (int i = 0; i < 100'000; ++i)
        xs.push_back(rng() >> (i % 64));
    const double below_one = std::nextafter(1.0, 0.0);
    for (const std::uint64_t x : xs) {
        const double want = std::min(double(x) * 0x1p-64, below_one);
        ASSERT_EQ(CoinThreshold::canonical(x), want)
            << "this standard library's uniform_real_distribution<double> "
               "does not map engine output "
            << x << " as libstdc++ does; CoinThreshold and the trace "
                    "fingerprints assume that mapping";
    }

    struct Counting
    {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return kMax; }
        result_type operator()() { return ++calls * 0x9e3779b97f4a7c15ULL; }
        std::uint64_t calls = 0;
    } counting;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (int i = 0; i < 1000; ++i)
        coin(counting);
    ASSERT_EQ(counting.calls, 1000u)
        << "the standard coin must use exactly one 64-bit draw";
}

/** Checks the threshold around its boundary and at the extremes. */
void
expectExactAtBoundary(double p)
{
    const CoinThreshold t(p);
    std::vector<std::uint64_t> xs = {0, 1, 2, kMax - 1, kMax};
    // The boundary lies within one rounding step of p * 2^64; doubles
    // near 2^64 are 2^11 apart.
    const double est = std::ldexp(p, 64);
    if (est >= 0.0 && est < 0x1p64) {
        const auto c = std::uint64_t(est);
        for (std::uint64_t d = 0; d <= 4096; ++d) {
            xs.push_back(c - d);
            xs.push_back(c + d);
        }
    }
    for (const std::uint64_t x : xs)
        ASSERT_EQ(t(x), CoinThreshold::canonical(x) < p)
            << "p " << p << " x " << x;
}

TEST(CoinThresholdTest, EdgeProbabilities)
{
    for (const double p :
         {0.0, std::numeric_limits<double>::denorm_min(), 0x1p-64, 0x1p-60,
          0.5, std::nextafter(0.5, 0.0), std::nextafter(1.0, 0.0), 1.0, 2.0,
          -1.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()})
        expectExactAtBoundary(p);

    EXPECT_FALSE(CoinThreshold(0.0)(0));
    EXPECT_TRUE(CoinThreshold(std::numeric_limits<double>::denorm_min())(0));
    EXPECT_FALSE(CoinThreshold(std::numeric_limits<double>::denorm_min())(1));
    EXPECT_TRUE(CoinThreshold(1.0)(kMax));
    EXPECT_TRUE(CoinThreshold(2.0)(kMax));
    EXPECT_FALSE(CoinThreshold(std::nextafter(1.0, 0.0))(kMax));
    EXPECT_FALSE(CoinThreshold()(0));
}

// Exactly representable coin values are the hardest thresholds: the
// boundary falls between two engine outputs that round to neighbours.
TEST(CoinThresholdTest, CoinValuesAsProbabilities)
{
    std::mt19937_64 rng(11);
    for (int i = 0; i < 200; ++i)
        expectExactAtBoundary(CoinThreshold::canonical(rng() >> (i % 64)));
}

// The simulator's use: one draw per flip from the same engine, so
// the two coins see the same outputs and must agree on every one.
TEST(CoinThresholdTest, MatchesStandardCoinOverTenMillionDraws)
{
    const double ps[] = {0.0,   1e-6, 0.003, 0.03, 0.25,
                         0.5,   0.75, 0.9,   0.999, 1.0};
    constexpr int kDrawsPerP = 1'000'000;
    std::mt19937_64 std_rng(2024);
    Mt19937x64 rng(2024);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (const double p : ps) {
        const CoinThreshold t(p);
        std::uint64_t heads = 0;
        for (int i = 0; i < kDrawsPerP; ++i) {
            const bool want = coin(std_rng) < p;
            ASSERT_EQ(t(rng()), want) << "p " << p << " draw " << i;
            heads += want;
        }
        EXPECT_NEAR(double(heads) / kDrawsPerP, p, 0.01) << "p " << p;
    }
}

} // namespace
