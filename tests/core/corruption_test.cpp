/**
 * @file
 * Randomized corruption round-trips over every persistence format:
 * truncate or bit-flip a model archive or payload, capture, STS
 * stream, or cache spill file at random offsets and prove the
 * loaders answer with a typed error (or, for the cache, a counted
 * miss plus recompute) — never a crash, hang, or silently wrong
 * data.
 */

#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "core/capture_cache.h"
#include "core/capture_io.h"
#include "core/errors.h"
#include "core/model.h"

namespace
{

using namespace eddie;
using namespace eddie::core;

TrainedModel
sampleModel()
{
    TrainedModel m;
    m.alpha = 0.01;
    m.sentinel = 2e7;
    m.entry_region = 0;
    m.num_loops = 2;
    RegionModel r0;
    r0.name = "L0";
    r0.trained = true;
    r0.num_peaks = 2;
    r0.group_n = 16;
    r0.ref = {{1e6, 1.1e6, 1.2e6}, {2e6, 2.5e6}, {2e7, 2e7}};
    r0.succs = {1};
    RegionModel r1;
    r1.name = "L1";
    r1.trained = false;
    m.regions = {r0, r1};
    return m;
}

cpu::RunResult
sampleRun(std::mt19937_64 &rng)
{
    cpu::RunResult run;
    run.sample_rate = 2e7;
    std::uniform_real_distribution<double> amp(0.0, 1.0);
    run.power.resize(500);
    run.region.resize(500);
    run.injected.resize(500);
    for (std::size_t i = 0; i < run.power.size(); ++i) {
        run.power[i] = amp(rng);
        run.region[i] = i % 3;
        run.injected[i] = i > 400 ? 1 : 0;
    }
    return run;
}

std::vector<Sts>
sampleStream(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> freq(1e5, 9e6);
    std::vector<Sts> stream(40);
    double t = 0.0;
    for (auto &sts : stream) {
        sts.t_start = t;
        sts.t_end = t + 1e-4;
        t += 5e-5;
        for (int p = 0; p < 6; ++p)
            sts.peak_freqs.push_back(freq(rng));
        sts.true_region = 1;
        sts.window_energy = 3.5;
        sts.peak_energy_frac = 0.4;
        sts.faulted = false;
    }
    return stream;
}

std::string
flipBit(const std::string &bytes, std::mt19937_64 &rng)
{
    std::string out = bytes;
    std::uniform_int_distribution<std::size_t> pos(0, out.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    const std::size_t at = pos(rng);
    out[at] = char(out[at] ^ (1 << bit(rng)));
    return out;
}

std::string
truncate(const std::string &bytes, std::mt19937_64 &rng)
{
    std::uniform_int_distribution<std::size_t> len(0, bytes.size() - 1);
    return bytes.substr(0, len(rng));
}

TEST(CorruptionTest, ModelBitFlipsAreTypedErrors)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "eddie_model_flip")
            .string();
    saveModelFile(sampleModel(), path);
    std::string good;
    {
        std::ifstream is(path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    const std::string want = encodeModelBinary(sampleModel());

    std::mt19937_64 rng(101);
    for (int trial = 0; trial < 200; ++trial) {
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os << flipBit(good, rng);
        }
        try {
            // Sector and header CRCs cover every byte that carries
            // data; a flip in zero padding may load, but only as the
            // very same model.
            const TrainedModel m = loadModelFile(path);
            EXPECT_EQ(encodeModelBinary(m), want)
                << "bit-flipped model loaded as a different model, "
                << "trial " << trial;
        } catch (const Error &) {
            // typed: IoError or FormatError
        }
    }
    std::filesystem::remove(path);
}

TEST(CorruptionTest, ModelTruncationsNeverCrash)
{
    const std::string good = encodeModelBinary(sampleModel());
    ASSERT_NO_THROW((void)decodeModelBinary(good.data(), good.size()));
    // The payload has no optional tail: every proper prefix must be
    // rejected as a format error.
    for (std::size_t len = 0; len < good.size(); ++len)
        EXPECT_THROW((void)decodeModelBinary(good.data(), len),
                     FormatError)
            << "prefix of " << len << " bytes";
}

TEST(CorruptionTest, CaptureCorruptionIsTypedError)
{
    std::mt19937_64 rng(103);
    std::ostringstream os(std::ios::binary);
    saveCapture(sampleRun(rng), os);
    const std::string good = os.str();

    // Sanity: the pristine bytes round-trip.
    {
        std::istringstream is(good, std::ios::binary);
        EXPECT_EQ(loadCapture(is).power.size(), 500u);
    }
    for (int trial = 0; trial < 200; ++trial) {
        // Framing covers every byte: magic, version, length, payload
        // and CRC — a flip anywhere must throw, as must any cut.
        std::istringstream flipped(flipBit(good, rng),
                                   std::ios::binary);
        EXPECT_THROW((void)loadCapture(flipped), Error)
            << "trial " << trial;
        std::istringstream cut(truncate(good, rng), std::ios::binary);
        EXPECT_THROW((void)loadCapture(cut), Error)
            << "trial " << trial;
    }
}

TEST(CorruptionTest, StsStreamCorruptionIsTypedError)
{
    std::mt19937_64 rng(104);
    std::ostringstream os(std::ios::binary);
    saveStsStream(sampleStream(rng), os);
    const std::string good = os.str();

    {
        std::istringstream is(good, std::ios::binary);
        const auto loaded = loadStsStream(is);
        ASSERT_EQ(loaded.size(), 40u);
        EXPECT_EQ(loaded[0].window_energy, 3.5);
        EXPECT_EQ(loaded[0].peak_energy_frac, 0.4);
    }
    for (int trial = 0; trial < 200; ++trial) {
        std::istringstream flipped(flipBit(good, rng),
                                   std::ios::binary);
        EXPECT_THROW((void)loadStsStream(flipped), Error)
            << "trial " << trial;
        std::istringstream cut(truncate(good, rng), std::ios::binary);
        EXPECT_THROW((void)loadStsStream(cut), Error)
            << "trial " << trial;
    }
}

TEST(CorruptionTest, CorruptSpillIsCountedMissNotError)
{
    const auto arc = std::filesystem::path(::testing::TempDir()) /
                     "eddie_corruption_test.arc";
    std::filesystem::remove(arc);

    CaptureCacheConfig cc;
    cc.capacity = 1;
    cc.spill_archive = arc.string();

    std::mt19937_64 rng(105);
    const auto stream_a = sampleStream(rng);
    const auto stream_b = sampleStream(rng);
    {
        CaptureCache cache(cc);
        cache.getOrCompute("key-a", [&] { return stream_a; });
        cache.getOrCompute("key-b", [&] { return stream_b; });
        // key-a evicted and spilled: the archive's only segment.
    }
    std::string good;
    {
        std::ifstream is(arc, std::ios::binary);
        std::ostringstream slurp;
        slurp << is.rdbuf();
        good = slurp.str();
    }
    // Damage goes past the superblock (sector 0, 512 bytes): a bad
    // superblock is an unopenable archive, not a spill miss.
    constexpr std::size_t kSuper = 512;
    ASSERT_GT(good.size(), 2 * kSuper);
    auto write_spill = [&](const std::string &bytes) {
        std::ofstream osf(arc, std::ios::binary | std::ios::trunc);
        osf.write(bytes.data(), std::streamsize(bytes.size()));
    };

    std::mt19937_64 corrupt_rng(106);
    for (int trial = 0; trial < 30; ++trial) {
        const std::string tail = good.substr(kSuper);
        const std::string bad = good.substr(0, kSuper) +
            (trial % 2 == 0 ? flipBit(tail, corrupt_rng)
                            : truncate(tail, corrupt_rng));
        write_spill(bad);

        CaptureCache cache(cc);
        std::size_t computes = 0;
        const auto got = cache.getOrCompute("key-a", [&] {
            ++computes;
            return stream_a;
        });
        const auto stats = cache.stats();
        // Two legitimate outcomes, neither of which is an exception:
        // the damage was caught (a counted corrupt payload, or a
        // dropped segment that reads as a plain miss) and the stream
        // recomputed, or nothing guarded was hit and the stream
        // decoded intact (disk hit).
        if (computes == 1) {
            EXPECT_EQ(stats.misses, 1u);
            EXPECT_LE(stats.spill_corrupt + stats.spill_short_read,
                      1u);
            EXPECT_EQ(stats.disk_hits, 0u);
        } else {
            EXPECT_EQ(computes, 0u);
            EXPECT_EQ(stats.disk_hits, 1u);
        }
        EXPECT_EQ(got.size(), stream_a.size());
        EXPECT_EQ(got.empty() ? 0.0 : got[0].window_energy,
                  stream_a[0].window_energy);
    }

    // Targeted damage with deterministic counters: the last sector
    // starts with payload bytes, so flipping its first byte fails
    // that sector's CRC, a counted corruption; cutting the payload
    // in half drops the torn segment, a plain miss.
    {
        std::string bad = good;
        bad[good.size() - kSuper] =
            char(bad[good.size() - kSuper] ^ 0x40);
        write_spill(bad);
        CaptureCache cache(cc);
        (void)cache.getOrCompute("key-a", [&] { return stream_a; });
        EXPECT_EQ(cache.stats().spill_corrupt, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
    }
    {
        write_spill(good.substr(0, good.size() - kSuper / 2));
        CaptureCache cache(cc);
        (void)cache.getOrCompute("key-a", [&] { return stream_a; });
        EXPECT_EQ(cache.stats().spill_corrupt, 0u);
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().disk_hits, 0u);
    }

    std::filesystem::remove(arc);
}

} // namespace
