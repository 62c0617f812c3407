/**
 * Property tests of the monitor's cached-rank K-S kernel
 * (stats::ksStatisticRanked): from a group's ranks in the reference
 * alone it must return exactly the D of stats::ksStatisticSorted on
 * the same samples — bit for bit, not within a tolerance, because the
 * monitor's verdicts compare D against a critical value. Covers the
 * three regimes ksStatisticSorted picks between (search walk over
 * the reference, search walk over the group, merge walk), tie-heavy
 * and sentinel-padded ranks, single-value samples, and m = 49, where
 * 49 * (1/49) != 1 so the merge walk's literal-1.0 tails differ from
 * the search walks' m * (1/m).
 *
 * Also checks that a steady-state Monitor::step allocates nothing:
 * this file replaces the global operator new with a counting one.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/monitor.h"
#include "core/pipeline.h"
#include "inject/scenarios.h"
#include "stats/ks.h"

// Every replaceable form that can pair with another is replaced, so
// each new meets a matching delete (sanitizers check the pairing).
// None is inlined: GCC would otherwise see malloc() and free() meet
// new and delete and warn about mismatched pairs.
namespace
{
std::atomic<std::size_t> g_allocations{0};

[[gnu::noinline]] void *
countedAlloc(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

[[gnu::noinline]] void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

using eddie::stats::ksStatisticRanked;
using eddie::stats::ksStatisticSorted;
using eddie::stats::RankedValue;

constexpr double kSentinel = 2e7;

enum class Regime
{
    SearchReference, ///< n * 32 < m
    SearchGroup,     ///< m * 32 < n
    Merge,
};

Regime
regimeOf(std::size_t m, std::size_t n)
{
    if (n * 32 < m)
        return Regime::SearchReference;
    if (m * 32 < n)
        return Regime::SearchGroup;
    return Regime::Merge;
}

/** Ranks @p group in the ascending @p ref and sorts it by value. */
std::vector<RankedValue>
rankGroup(const std::vector<double> &ref, std::vector<double> group)
{
    std::sort(group.begin(), group.end());
    std::vector<RankedValue> out;
    for (double x : group) {
        const auto lt = std::lower_bound(ref.begin(), ref.end(), x);
        const auto le = std::upper_bound(lt, ref.end(), x);
        out.push_back({x, std::uint32_t(lt - ref.begin()),
                       std::uint32_t(le - ref.begin())});
    }
    return out;
}

/** Asserts bit-equal D on one pair; returns its regime. */
Regime
expectBitEqual(std::vector<double> ref, std::vector<double> group)
{
    std::sort(ref.begin(), ref.end());
    const auto ranked = rankGroup(ref, group);
    std::sort(group.begin(), group.end());
    const double want = ksStatisticSorted(ref, group);
    const double got = ksStatisticRanked(ranked, ref.size());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "m " << ref.size() << " n " << group.size() << ": got " << got
        << " want " << want;
    return regimeOf(ref.size(), group.size());
}

/** Draws @p k values: continuous, from a few distinct levels (ties),
 *  or a mix with the missing-peak sentinel. */
std::vector<double>
draw(std::mt19937_64 &rng, std::size_t k, int style, double shift)
{
    std::normal_distribution<double> cont(1e6 + shift, 5e4);
    std::uniform_int_distribution<int> level(0, 4);
    std::bernoulli_distribution padded(0.4);
    std::vector<double> v(k);
    for (double &x : v) {
        switch (style) {
          case 0:
            x = cont(rng);
            break;
          case 1:
            x = 1e6 + 1e4 * level(rng) + shift;
            break;
          default:
            x = padded(rng) ? kSentinel : 1e6 + 1e4 * level(rng);
            break;
        }
    }
    return v;
}

TEST(KsRankedTest, RandomPairsMatchSortedKernelInEveryRegime)
{
    std::mt19937_64 rng(20261020);
    std::size_t hits[3] = {0, 0, 0};
    const struct
    {
        std::size_t m_lo, m_hi, n_lo, n_hi;
    } shapes[] = {
        {1, 60, 1, 60},    // mostly merge, some lopsided corners
        {300, 700, 1, 12}, // search over the reference
        {1, 2, 40, 120},   // search over the group
    };
    for (const auto &sh : shapes) {
        std::uniform_int_distribution<std::size_t> md(sh.m_lo, sh.m_hi);
        std::uniform_int_distribution<std::size_t> nd(sh.n_lo, sh.n_hi);
        std::uniform_real_distribution<double> shift(-1e5, 1e5);
        for (int it = 0; it < 1500; ++it) {
            const int style = it % 3;
            const double s = it % 2 ? shift(rng) : 0.0;
            const auto ref = draw(rng, md(rng), style, 0.0);
            const auto group = draw(rng, nd(rng), style, s);
            ++hits[int(expectBitEqual(ref, group))];
            ASSERT_FALSE(::testing::Test::HasFailure());
        }
    }
    EXPECT_GT(hits[int(Regime::SearchReference)], 100u);
    EXPECT_GT(hits[int(Regime::SearchGroup)], 100u);
    EXPECT_GT(hits[int(Regime::Merge)], 100u);
}

TEST(KsRankedTest, SingleValueSamples)
{
    std::mt19937_64 rng(5);
    for (int style = 0; style < 3; ++style) {
        for (std::size_t k : {1u, 2u, 7u, 31u, 32u, 33u, 100u}) {
            expectBitEqual(draw(rng, 1, style, 0.0),
                           draw(rng, k, style, 0.0)); // m = 1
            expectBitEqual(draw(rng, k, style, 0.0),
                           draw(rng, 1, style, 0.0)); // n = 1
        }
        expectBitEqual({1.0}, {1.0});
        expectBitEqual({1.0}, {2.0});
        expectBitEqual({2.0}, {1.0});
    }
}

TEST(KsRankedTest, RoundingOfOneOverMIsReproduced)
{
    // 49 * (1/49) rounds below 1, so the merge walk's tails and the
    // search walks' last plateau read differently; every regime must
    // keep its own.
    ASSERT_NE(49.0 * (1.0 / 49.0), 1.0);
    std::mt19937_64 rng(49);
    for (int style = 0; style < 3; ++style) {
        for (std::size_t n : {1u, 2u, 8u, 49u, 64u}) {
            for (double s : {-2e5, 0.0, 2e5}) {
                expectBitEqual(draw(rng, 49, style, 0.0),
                               draw(rng, n, style, s));
            }
        }
    }
    // Group entirely above, below and equal to the reference.
    std::vector<double> ref(49, 5.0);
    expectBitEqual(ref, {9.0, 9.0});
    expectBitEqual(ref, {1.0});
    expectBitEqual(ref, {5.0, 5.0, 5.0});
    expectBitEqual(ref, std::vector<double>(2000, 7.0)); // m * 32 < n
}

TEST(KsRankedTest, SentinelPaddedRanks)
{
    // Guard ranks: reference almost all sentinel, group partly real.
    std::vector<double> ref(300, kSentinel);
    ref[0] = 1.2e6;
    ref[1] = 1.3e6;
    for (std::size_t real = 0; real <= 8; ++real) {
        std::vector<double> group(8, kSentinel);
        for (std::size_t k = 0; k < real; ++k)
            group[k] = 1e6 + 1e5 * double(k);
        expectBitEqual(ref, group);
        expectBitEqual(std::vector<double>(60, kSentinel), group);
    }
}

TEST(MonitorRankCacheTest, SteadyStateStepDoesNotAllocate)
{
    eddie::core::PipelineConfig cfg;
    cfg.train_runs = 3;
    cfg.threads = 1;
    eddie::core::Pipeline pipe(
        eddie::workloads::makeWorkload("bitcount", 0.3), cfg);
    const auto model = pipe.trainModel();
    // An injected run, so reject, transition and report paths run too.
    const auto stream = pipe.captureRun(
        9100, eddie::inject::canonicalLoopInjection(
                  eddie::inject::defaultTargetLoop(pipe.workload()), 1.0,
                  9100));

    eddie::core::Monitor mon(model, eddie::core::MonitorConfig());
    for (const auto &sts : stream)
        mon.step(sts);
    ASSERT_GT(mon.testCalls(), 0u);
    ASSERT_FALSE(mon.reports().empty());
    // reset() keeps every buffer's capacity, so a second pass over
    // the same stream must not touch the heap at all.
    mon.reset();
    const std::size_t before = g_allocations.load();
    for (const auto &sts : stream)
        mon.step(sts);
    EXPECT_EQ(g_allocations.load() - before, 0u);
}

} // namespace
