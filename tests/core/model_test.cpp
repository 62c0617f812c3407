#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/errors.h"
#include "core/model.h"

namespace
{

using namespace eddie::core;

TrainedModel
sampleModel()
{
    TrainedModel m;
    m.alpha = 0.01;
    m.sentinel = 2e7;
    m.entry_region = 1;
    m.num_loops = 2;
    RegionModel r0;
    r0.name = "L0";
    r0.trained = true;
    r0.num_peaks = 2;
    r0.group_n = 16;
    r0.ref = {{1.0, 2.0, 3.0}, {4.0, 5.0}};
    r0.succs = {1};
    RegionModel r1;
    r1.name = "L1";
    r1.trained = false;
    m.regions = {r0, r1};
    return m;
}

TEST(ModelTest, SaveLoadRoundTrip)
{
    const auto m = sampleModel();
    const std::string path = testing::TempDir() + "model_test_roundtrip";
    saveModelFile(m, path);
    const auto loaded = loadModelFile(path);
    std::remove(path.c_str());

    EXPECT_DOUBLE_EQ(loaded.alpha, m.alpha);
    EXPECT_DOUBLE_EQ(loaded.sentinel, m.sentinel);
    EXPECT_EQ(loaded.entry_region, m.entry_region);
    EXPECT_EQ(loaded.num_loops, m.num_loops);
    ASSERT_EQ(loaded.regions.size(), 2u);
    EXPECT_EQ(loaded.regions[0].name, "L0");
    EXPECT_TRUE(loaded.regions[0].trained);
    EXPECT_EQ(loaded.regions[0].group_n, 16u);
    EXPECT_EQ(loaded.regions[0].ref, m.regions[0].ref);
    EXPECT_EQ(loaded.regions[0].succs, m.regions[0].succs);
    EXPECT_FALSE(loaded.regions[1].trained);
}

TEST(ModelTest, LoadRejectsGarbage)
{
    const std::string path = testing::TempDir() + "model_test_garbage";
    std::ofstream(path) << "not-a-model 7";
    EXPECT_THROW(loadModelFile(path), FormatError);
    std::remove(path.c_str());
}

TEST(ModelTest, WithGroupSizeOverridesTrainedOnly)
{
    const auto m = sampleModel();
    const auto m2 = withGroupSize(m, 42);
    EXPECT_EQ(m2.regions[0].group_n, 42u);
    EXPECT_EQ(m2.regions[1].group_n, m.regions[1].group_n);
    // Original untouched.
    EXPECT_EQ(m.regions[0].group_n, 16u);
}

TEST(ModelTest, WithAlpha)
{
    const auto m2 = withAlpha(sampleModel(), 0.05);
    EXPECT_DOUBLE_EQ(m2.alpha, 0.05);
}

} // namespace
