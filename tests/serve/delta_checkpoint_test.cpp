/**
 * @file
 * Tests of the v2 group-committed checkpoint pipeline
 * (serve::CheckpointStore over its EDDIEARC container): group-snapshot
 * round-trips, other layout versions rejected as counted cold starts,
 * disk recovery reproducing the live mirror byte-for-byte at every
 * cut of a full-snapshot + delta chain, and the corruption fallbacks —
 * a torn container tail or a bit-flipped segment must recover to the
 * last good prefix of the chain with the fallback counted.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/capture_io.h"
#include "core/errors.h"
#include "serve/checkpoint.h"
#include "serve_test_util.h"
#include "store/archive.h"

namespace
{

using namespace eddie;
using namespace eddie::serve;
using serve_test::eventfulStream;
using serve_test::sharpModel;

std::string
bytes(const CheckpointData &ckpt)
{
    GroupCheckpoint group;
    group.shards.push_back(ckpt);
    std::ostringstream os;
    saveGroupCheckpoint(group, os);
    return os.str();
}

CheckpointData
stateAt(const core::Monitor &m)
{
    CheckpointData ckpt;
    ckpt.monitor = m.exportState();
    ckpt.source_pos = ckpt.monitor.step_index;
    return ckpt;
}

void
removeStoreFiles(const std::string &path)
{
    std::remove((path + ".arc").c_str());
}

store::ArchiveConfig
containerOf(const std::string &path)
{
    store::ArchiveConfig acfg;
    acfg.path = path + ".arc";
    return acfg;
}

/** Flips one bit in the middle of @p key's live value inside the
 *  store's container (the newest copy of its bytes in the file). */
void
flipValueBit(const std::string &path, const std::string &key)
{
    std::optional<std::string> value;
    {
        store::Archive arc(containerOf(path));
        value = arc.getCopy(key);
    }
    ASSERT_TRUE(value.has_value()) << key;
    std::string file;
    {
        std::ifstream is(path + ".arc", std::ios::binary);
        file.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    const std::size_t at = file.rfind(*value);
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t off = at + value->size() / 2;
    std::fstream f(path + ".arc",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(std::streamoff(off));
    f.put(char(file[off] ^ 0x10));
}

TEST(GroupCheckpointTest, RoundTripPreservesEveryShard)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);

    GroupCheckpoint group;
    group.epoch = 5;
    for (std::size_t prefix : {std::size_t(40), std::size_t(90),
                               std::size_t(160)}) {
        core::Monitor m(model, core::MonitorConfig());
        const auto stream = eventfulStream(50 + prefix);
        for (std::size_t i = 0; i < prefix; ++i)
            m.step(stream[i]);
        group.shards.push_back(stateAt(m));
    }

    std::ostringstream os;
    saveGroupCheckpoint(group, os);
    std::istringstream is(os.str());
    const auto loaded = loadGroupCheckpoint(is);
    EXPECT_EQ(loaded.epoch, 5u);
    ASSERT_EQ(loaded.shards.size(), group.shards.size());
    for (std::size_t i = 0; i < group.shards.size(); ++i)
        EXPECT_EQ(bytes(loaded.shards[i]), bytes(group.shards[i]))
            << "shard " << i;
}

/** A snapshot frame of any other layout version (the retired
 *  single-shard version 1 included) is not read: recovery counts it
 *  as a decode failure and starts cold. */
TEST(GroupCheckpointTest, OtherLayoutVersionIsACountedColdStart)
{
    const std::string path = testing::TempDir() + "delta_ckpt_v1";
    removeStoreFiles(path);
    std::ostringstream frame;
    const char magic[8] = {'E', 'D', 'D', 'I', 'E', 'C', 'K', 'P'};
    core::writeFramed(frame, magic, 1, std::string(64, '\0'));
    {
        std::istringstream is(frame.str());
        EXPECT_THROW(loadGroupCheckpoint(is), core::FormatError);
    }
    {
        store::Archive arc(containerOf(path));
        ASSERT_TRUE(arc.put("ckpt/snap", frame.str()));
    }

    CheckpointStoreConfig cfg;
    cfg.path = path;
    cfg.num_shards = 1;
    CheckpointStore store(cfg);
    const auto recovered = store.recover();
    ASSERT_EQ(recovered.size(), 1u);
    EXPECT_FALSE(recovered[0]);
    EXPECT_EQ(store.stats().snapshot_decode_failures, 1u);
    removeStoreFiles(path);
}

/** EDDIEARC is the only layout: a config asking for the retired
 *  snapshot-file + delta-log pair is refused at construction. */
TEST(CheckpointStoreTest, FileLayoutIsRefused)
{
    CheckpointStoreConfig cfg;
    cfg.path = testing::TempDir() + "delta_ckpt_file_layout";
    cfg.use_archive = false;
    EXPECT_THROW(CheckpointStore{cfg}, core::Error);
    EXPECT_FALSE(std::filesystem::exists(cfg.path + ".arc"));
}

TEST(CheckpointStoreTest, RecoverMatchesLiveMirrorAtEveryCut)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(77);

    const std::string path =
        testing::TempDir() + "delta_ckpt_every_cut";
    removeStoreFiles(path);
    CheckpointStoreConfig cfg;
    cfg.path = path;
    cfg.num_shards = 1;
    cfg.full_every = 3; // mix full rewrites and delta appends
    CheckpointStore store(cfg);

    core::Monitor m(model, core::MonitorConfig());
    store.submitFull(0, stateAt(m));
    ASSERT_TRUE(store.flush());

    // Cut every 7 steps: cuts land mid-ring-wrap, inside the anomaly
    // burst (retro-marked records) and inside the dropout outage
    // (cleared history). After every group commit, a cold recovery
    // from disk must reproduce the live mirror byte-for-byte —
    // whether the newest cut sits in the snapshot or at the end of a
    // delta chain.
    for (std::size_t i = 0; i < stream.size(); ++i) {
        m.step(stream[i]);
        if ((i + 1) % 7 != 0)
            continue;
        store.submitDelta(0, m.exportDelta());
        ASSERT_TRUE(store.flush());

        CheckpointStore fresh(cfg);
        const auto recovered = fresh.recover();
        ASSERT_TRUE(recovered[0]) << "cut after step " << i;
        ASSERT_EQ(bytes(fresh.mirror(0)), bytes(store.mirror(0)))
            << "cut after step " << i;
        ASSERT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(m)))
            << "cut after step " << i;
        EXPECT_EQ(fresh.stats().delta_fallbacks, 0u);
    }
    removeStoreFiles(path);
}

TEST(CheckpointStoreTest, CutImmediatelyAfterFullSnapshotRecovers)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(31);

    const std::string path = testing::TempDir() + "delta_ckpt_after_full";
    removeStoreFiles(path);
    CheckpointStoreConfig cfg;
    cfg.path = path;
    cfg.num_shards = 1;
    cfg.full_every = 1u << 20;
    CheckpointStore store(cfg);

    core::Monitor m(model, core::MonitorConfig());
    for (std::size_t i = 0; i < 40; ++i)
        m.step(stream[i]);
    store.submitFull(0, stateAt(m));
    m.resetDeltaBaseline(); // next delta chains off this snapshot
    ASSERT_TRUE(store.flush()); // full snapshot, drops the deltas

    // A one-step delta chained directly onto the fresh snapshot.
    m.step(stream[40]);
    store.submitDelta(0, m.exportDelta());
    ASSERT_TRUE(store.flush());

    CheckpointStore fresh(cfg);
    ASSERT_TRUE(fresh.recover()[0]);
    EXPECT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(m)));
    EXPECT_EQ(fresh.stats().delta_fallbacks, 0u);
    removeStoreFiles(path);
}

/** Builds snapshot-at-40 plus delta commits at 60/80/100 and returns
 *  the expected state bytes at each cut. */
struct ChainFixture
{
    CheckpointStoreConfig cfg;
    std::vector<std::string> cut_bytes; // index 0 = snapshot at 40
};

ChainFixture
buildChain(const std::string &path)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(123);

    removeStoreFiles(path);
    ChainFixture fx;
    fx.cfg.path = path;
    fx.cfg.num_shards = 1;
    fx.cfg.full_every = 1u << 20; // keep all cuts as delta segments
    CheckpointStore store(fx.cfg);

    core::Monitor m(model, core::MonitorConfig());
    std::size_t pos = 0;
    for (; pos < 40; ++pos)
        m.step(stream[pos]);
    store.submitFull(0, stateAt(m));
    m.resetDeltaBaseline(); // deltas below chain off this snapshot
    EXPECT_TRUE(store.flush());
    fx.cut_bytes.push_back(bytes(stateAt(m)));

    for (std::size_t cut : {std::size_t(60), std::size_t(80),
                            std::size_t(100)}) {
        for (; pos < cut; ++pos)
            m.step(stream[pos]);
        store.submitDelta(0, m.exportDelta());
        EXPECT_TRUE(store.flush());
        fx.cut_bytes.push_back(bytes(stateAt(m)));
    }
    return fx;
}

TEST(CheckpointStoreTest, TruncatedDeltaTailFallsBackToLastGoodCut)
{
    const std::string path = testing::TempDir() + "delta_ckpt_trunc";
    const auto fx = buildChain(path);

    // Tear the final commit: drop one byte off the container's tail,
    // as a crash mid-append would. The archive drops the torn batch
    // at open, so its delta key is simply absent.
    const std::string arc_path = path + ".arc";
    const auto size = std::filesystem::file_size(arc_path);
    ASSERT_GT(size, 1u);
    std::filesystem::resize_file(arc_path, size - 1);

    store::Archive arc(containerOf(path));
    EXPECT_EQ(arc.stats().torn_tail_dropped, 1u);
    CheckpointStoreConfig cfg = fx.cfg;
    cfg.shared_archive = &arc;
    CheckpointStore fresh(cfg);
    ASSERT_TRUE(fresh.recover()[0]);
    // Cuts at 40, 60, 80 survive; the torn cut at 100 is dropped.
    EXPECT_EQ(bytes(fresh.mirror(0)), fx.cut_bytes[2]);
    EXPECT_EQ(fresh.stats().delta_fallbacks, 0u);
    removeStoreFiles(path);
}

TEST(CheckpointStoreTest, BitFlippedSegmentFallsBackToSnapshot)
{
    const std::string path = testing::TempDir() + "delta_ckpt_flip";
    const auto fx = buildChain(path);

    // Flip one bit inside the first segment's value; its sector CRC
    // must reject it and recovery must stop the replay at the
    // snapshot rather than trust anything after the damage.
    flipValueBit(path, "ckpt/dlt/00000000");

    CheckpointStore fresh(fx.cfg);
    ASSERT_TRUE(fresh.recover()[0]);
    EXPECT_EQ(bytes(fresh.mirror(0)), fx.cut_bytes[0]);
    EXPECT_EQ(fresh.stats().delta_fallbacks, 1u);
    EXPECT_GE(fresh.stats().delta_segments_dropped, 1u);
    removeStoreFiles(path);
}

} // namespace
