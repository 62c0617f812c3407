/**
 * @file
 * Port-level tests for the three persistence layers kept in the
 * EDDIEARC artifact store: trained models, capture-cache spills, and
 * checkpoint snapshots + delta chains. Models and checkpoints must
 * round-trip bit-identically through the container, every port fails
 * typed (never silently) on a corrupted container, and a model path
 * that holds no archive (missing, empty, garbage, or a text model of
 * earlier builds) is a typed error that leaves the path alone.
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

#include "core/capture_cache.h"
#include "core/capture_io.h"
#include "core/errors.h"
#include "core/model.h"
#include "serve/checkpoint.h"
#include "store/archive.h"
#include "../serve/serve_test_util.h"

namespace
{

using namespace eddie;

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("eddie_port_" + name))
        .string();
}

core::TrainedModel
sampleModel()
{
    core::TrainedModel m;
    m.alpha = 0.01;
    m.sentinel = 2e7;
    m.entry_region = 1;
    m.num_loops = 2;
    core::RegionModel r0;
    r0.name = "L0";
    r0.trained = true;
    r0.num_peaks = 2;
    r0.group_n = 16;
    r0.ref = {{1.0, 2.0, 3.0}, {4.0, 5.0}};
    r0.succs = {1};
    core::RegionModel r1;
    r1.name = "L1";
    r1.trained = false;
    m.regions = {r0, r1};
    return m;
}

bool
sameSts(const std::vector<core::Sts> &a,
        const std::vector<core::Sts> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].t_start != b[i].t_start ||
            a[i].t_end != b[i].t_end ||
            a[i].true_region != b[i].true_region ||
            a[i].injected != b[i].injected ||
            a[i].window_energy != b[i].window_energy ||
            a[i].peak_energy_frac != b[i].peak_energy_frac ||
            a[i].faulted != b[i].faulted ||
            a[i].peak_freqs != b[i].peak_freqs)
            return false;
    }
    return true;
}

std::string
checkpointBytes(const serve::CheckpointData &ckpt)
{
    serve::GroupCheckpoint group;
    group.shards.push_back(ckpt);
    std::ostringstream os(std::ios::binary);
    serve::saveGroupCheckpoint(group, os);
    return os.str();
}

TEST(ModelPort, ArchiveFileDecodesToTheSavedModel)
{
    const auto m = sampleModel();
    const std::string path = tempPath("model.arc");
    core::saveModelFile(m, path);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // Bit-identity through the canonical binary encoding, which is
    // also the stored value itself.
    EXPECT_EQ(core::encodeModelBinary(core::loadModelFile(path)),
              core::encodeModelBinary(m));
    {
        store::ArchiveConfig acfg;
        acfg.path = path;
        store::Archive arc(acfg);
        EXPECT_EQ(arc.getCopy("model"), core::encodeModelBinary(m));
    }
    std::remove(path.c_str());
}

/** Input boundary of loadModelFile: each case must throw its typed
 *  error and leave the path as it found it — absent stays absent
 *  (the archive opener would otherwise create it), and a foreign
 *  file keeps its bytes. */
TEST(ModelPort, NonArchiveInputsAreTypedErrorsAndLeaveThePathAlone)
{
    struct Case
    {
        const char *name;
        std::optional<std::string> bytes; ///< nullopt = no file
        bool io_error;                    ///< IoError, else FormatError
    };
    const Case cases[] = {
        {"missing", std::nullopt, true},
        {"empty", std::string(), false},
        {"garbage", std::string("\x7f\x00not-a-model 7\n\xff", 17),
         false},
        // A text model as earlier builds wrote it ("eddie-model 1").
        {"text", std::string("eddie-model 1\n"
                             "0.01 20000000 1 2 2\n"
                             "L0 1 2 16 1 1\n"
                             "2\n"
                             "3 1 2 3\n"
                             "2 4 5\n"
                             "L1 0 0 8 0\n"
                             "0\n"),
         false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = tempPath(std::string("bad_model_") +
                                          c.name);
        std::remove(path.c_str());
        if (c.bytes)
            std::ofstream(path, std::ios::binary) << *c.bytes;
        if (c.io_error)
            EXPECT_THROW((void)core::loadModelFile(path),
                         core::IoError);
        else
            EXPECT_THROW((void)core::loadModelFile(path),
                         core::FormatError);
        if (!c.bytes) {
            EXPECT_FALSE(std::filesystem::exists(path));
        } else {
            std::ifstream is(path, std::ios::binary);
            const std::string after(
                (std::istreambuf_iterator<char>(is)),
                std::istreambuf_iterator<char>());
            EXPECT_EQ(after, *c.bytes);
        }
        std::remove(path.c_str());
    }
}

TEST(ModelPort, CorruptArchiveModelFailsTyped)
{
    const auto m = sampleModel();
    const std::string path = tempPath("corrupt_model.arc");
    core::saveModelFile(m, path);

    // Flip one byte in the payload region (past superblock + segment
    // header); the sector CRC must turn it into a typed error.
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(bool(f));
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    ASSERT_GT(std::size_t(size), 1034u);
    f.seekp(1030);
    char b = 0;
    f.seekg(1030);
    f.read(&b, 1);
    b = char(b ^ 0x40);
    f.seekp(1030);
    f.write(&b, 1);
    f.close();

    EXPECT_THROW((void)core::loadModelFile(path), core::FormatError);
    std::remove(path.c_str());
}

TEST(StsPayloadPort, EncodeDecodeRoundTripsExactly)
{
    const auto stream = serve_test::eventfulStream(11);
    const std::string payload = core::encodeStsPayload(stream);
    const auto decoded =
        core::decodeStsPayload(payload.data(), payload.size());
    EXPECT_TRUE(sameSts(stream, decoded));
    // Canonical: re-encoding the decode reproduces the bytes.
    EXPECT_EQ(payload, core::encodeStsPayload(decoded));
}

TEST(SpillPort, EvictionRoundTripsThroughTheArchive)
{
    const std::string arc_path = tempPath("spill.arc");
    std::remove(arc_path.c_str());
    const auto stream = serve_test::eventfulStream(12);

    core::CaptureCacheConfig cfg;
    cfg.capacity = 1;
    cfg.spill_archive = arc_path;
    core::CaptureCache cache(cfg);
    (void)cache.getOrComputeShared("k0", [&] { return stream; });
    // Second insert evicts k0 to the archive.
    (void)cache.getOrComputeShared(
        "k1", [&] { return serve_test::eventfulStream(13); });
    EXPECT_EQ(cache.stats().spills, 1u);

    cache.clear();
    const auto hit = cache.getOrComputeShared("k0", [&] {
        ADD_FAILURE() << "archive miss recomputed the stream";
        return stream;
    });
    EXPECT_TRUE(sameSts(stream, *hit));
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    std::remove(arc_path.c_str());
}

/** Drives one monitor over the eventful stream, cutting deltas into
 *  @p store the way the serving runtime does: anchor with a full
 *  state, then chain delta cuts. */
void
driveStore(serve::CheckpointStore &store,
           const core::TrainedModel &model)
{
    core::Monitor monitor(model, core::MonitorConfig());
    serve::CheckpointData anchor;
    anchor.monitor = monitor.exportState();
    anchor.source_pos = anchor.monitor.step_index;
    store.submitFull(0, std::move(anchor));
    ASSERT_TRUE(store.flush());
    const auto stream = serve_test::eventfulStream(16);
    std::size_t step = 0;
    for (const auto &sts : stream) {
        monitor.step(sts);
        if (++step % 20 == 0) {
            store.submitDelta(0, monitor.exportDelta());
            ASSERT_TRUE(store.flush());
        }
    }
}

/** Recovery from the container reproduces, byte for byte, the mirror
 *  of an in-memory store that saw the same cuts; the container's
 *  values are the framed v2 snapshot and delta-segment images. */
TEST(CheckpointPort, ArchiveRecoveryBitIdenticalToLiveMirror)
{
    std::mt19937_64 rng(17);
    const auto model = serve_test::sharpModel(rng);

    serve::CheckpointStoreConfig mem_cfg;
    mem_cfg.num_shards = 1;
    serve::CheckpointStore live(mem_cfg);
    driveStore(live, model);

    const std::string path = tempPath("ckpt_arc");
    std::remove((path + ".arc").c_str());
    serve::CheckpointStoreConfig cfg = mem_cfg;
    cfg.path = path;
    cfg.full_every = 1u << 20; // keep the whole delta chain
    {
        serve::CheckpointStore store(cfg);
        driveStore(store, model);
    }
    serve::CheckpointStore fresh(cfg);
    EXPECT_EQ(fresh.recover(), std::vector<bool>{true});
    EXPECT_EQ(checkpointBytes(fresh.mirror(0)),
              checkpointBytes(live.mirror(0)));
    EXPECT_EQ(fresh.stats().delta_fallbacks, 0u);

    store::ArchiveConfig acfg;
    acfg.path = path + ".arc";
    store::Archive arc(acfg);
    std::size_t segments = 0;
    for (const auto &key : arc.keys()) {
        const auto value = arc.getCopy(key);
        ASSERT_TRUE(value.has_value()) << key;
        std::istringstream is(*value);
        if (key == "ckpt/snap") {
            EXPECT_NO_THROW((void)serve::loadGroupCheckpoint(is));
        } else {
            serve::DeltaSegment seg;
            EXPECT_TRUE(serve::readDeltaSegment(is, seg)) << key;
            ++segments;
        }
    }
    EXPECT_GT(segments, 0u);
    std::remove((path + ".arc").c_str());
}

/** The store reads only its container: a snapshot file and delta log
 *  left at the same path by earlier builds are neither migrated nor
 *  touched, so the run starts cold. */
TEST(CheckpointPort, ArchiveModeStartsColdBesideAFilePair)
{
    std::mt19937_64 rng(18);
    const auto model = serve_test::sharpModel(rng);
    const std::string path = tempPath("ckpt_no_migrate");
    std::remove((path + ".arc").c_str());

    serve::CheckpointStoreConfig mem_cfg;
    mem_cfg.num_shards = 1;
    serve::CheckpointStore live(mem_cfg);
    driveStore(live, model);
    serve::GroupCheckpoint group;
    group.epoch = 1;
    group.shards.push_back(live.mirror(0));
    {
        std::ofstream snap(path, std::ios::binary);
        serve::saveGroupCheckpoint(group, snap);
        std::ofstream log(path + ".dlt", std::ios::binary);
        serve::DeltaSegment seg;
        seg.epoch = 1;
        serve::appendDeltaSegment(log, seg);
    }
    const auto snap_size = std::filesystem::file_size(path);
    const auto log_size = std::filesystem::file_size(path + ".dlt");

    serve::CheckpointStoreConfig cfg = mem_cfg;
    cfg.path = path;
    serve::CheckpointStore store(cfg);
    EXPECT_EQ(store.recover(), std::vector<bool>{false});
    EXPECT_EQ(store.stats().snapshot_decode_failures, 0u);
    EXPECT_EQ(std::filesystem::file_size(path), snap_size);
    EXPECT_EQ(std::filesystem::file_size(path + ".dlt"), log_size);
    std::remove(path.c_str());
    std::remove((path + ".dlt").c_str());
    std::remove((path + ".arc").c_str());
}

} // namespace
