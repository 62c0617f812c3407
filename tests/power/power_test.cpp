#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "power/energy_model.h"
#include "power/power_trace.h"

namespace
{

using namespace eddie::power;

TEST(EnergyModelTest, CacheEnergyScalesWithSize)
{
    EnergyParams params;
    EnergyModel small(params, 16 * 1024, 128 * 1024, 8);
    EnergyModel large(params, 64 * 1024, 512 * 1024, 8);
    EXPECT_LT(small.eventEnergy(Event::L1Access),
              large.eventEnergy(Event::L1Access));
    EXPECT_LT(small.eventEnergy(Event::L2Access),
              large.eventEnergy(Event::L2Access));
    // Reference sizes reproduce the reference energies.
    EnergyModel ref(params, 32 * 1024, 256 * 1024, 8);
    EXPECT_NEAR(ref.eventEnergy(Event::L1Access), params.l1_ref, 1e-12);
}

TEST(EnergyModelTest, FlushScalesWithDepth)
{
    EnergyParams params;
    EnergyModel shallow(params, 32 * 1024, 256 * 1024, 4);
    EnergyModel deep(params, 32 * 1024, 256 * 1024, 16);
    EXPECT_NEAR(deep.eventEnergy(Event::PipelineFlush),
                4.0 * shallow.eventEnergy(Event::PipelineFlush), 1e-12);
}

TEST(EnergyModelTest, EventOrdering)
{
    EnergyParams params;
    EnergyModel m(params, 32 * 1024, 256 * 1024, 8);
    EXPECT_LT(m.eventEnergy(Event::AluOp), m.eventEnergy(Event::MulOp));
    EXPECT_LT(m.eventEnergy(Event::MulOp), m.eventEnergy(Event::DivOp));
    EXPECT_LT(m.eventEnergy(Event::L1Access),
              m.eventEnergy(Event::L2Access));
    EXPECT_LT(m.eventEnergy(Event::L2Access),
              m.eventEnergy(Event::DramAccess));
}

TEST(PowerTraceTest, DepositsIntoBuckets)
{
    PowerTrace t(10, 1000.0);
    t.deposit(5, 1.0);
    t.deposit(9, 2.0);
    t.deposit(10, 4.0);
    t.finalize(25, 0.0);
    ASSERT_EQ(t.samples().size(), 3u);
    EXPECT_DOUBLE_EQ(t.samples()[0], 3.0);
    EXPECT_DOUBLE_EQ(t.samples()[1], 4.0);
    EXPECT_DOUBLE_EQ(t.samples()[2], 0.0);
}

TEST(PowerTraceTest, BaselineAddedUniformly)
{
    PowerTrace t(20, 1000.0);
    t.deposit(0, 1.0);
    t.finalize(100, 0.5);
    for (double s : t.samples())
        EXPECT_GE(s, 0.5 * 20.0);
    EXPECT_DOUBLE_EQ(t.samples()[0], 1.0 + 10.0);
}

TEST(PowerTraceTest, SampleRate)
{
    PowerTrace t(20, 200e6);
    EXPECT_DOUBLE_EQ(t.sampleRate(), 10e6);
    EXPECT_EQ(t.sampleOf(19), 0u);
    EXPECT_EQ(t.sampleOf(20), 1u);
}

// sampleOf() divides by a multiply-shift reciprocal where one exists;
// it must agree with plain division for every cycle.
TEST(PowerTraceTest, SampleOfEqualsDivision)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::mt19937_64 rng(99);
    std::vector<std::uint64_t> widths;
    for (std::uint64_t d = 1; d <= 64; ++d)
        widths.push_back(d);
    // Wide buckets, where no 64-bit reciprocal is exact.
    for (std::uint64_t d : {std::uint64_t(1000), std::uint64_t(1) << 40,
                            (std::uint64_t(1) << 63) + 1, kMax - 1, kMax})
        widths.push_back(d);

    for (const std::uint64_t d : widths) {
        const PowerTrace t(d, 1.0);
        std::vector<std::uint64_t> cycles = {
            0, 1, 2, d - 1, d, d + 1, 2 * d - 1, 2 * d,
            (std::uint64_t(1) << 32) - 1, std::uint64_t(1) << 32,
            (std::uint64_t(1) << 63) - 1, std::uint64_t(1) << 63,
            kMax / d * d - 1, kMax / d * d, kMax - 1, kMax};
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t x = rng();
            cycles.push_back(x);                  // full range
            cycles.push_back(x >> (x & 63));      // every magnitude
            cycles.push_back(x / d * d + d - 1);  // last cycle of a bucket
        }
        for (const std::uint64_t c : cycles)
            ASSERT_EQ(t.sampleOf(c), c / d) << "cycle " << c << " width " << d;
    }
}

TEST(PowerTraceTest, BadArgsThrow)
{
    EXPECT_THROW(PowerTrace(0, 100.0), std::invalid_argument);
    EXPECT_THROW(PowerTrace(10, 0.0), std::invalid_argument);
}

} // namespace
