/**
 * @file
 * Checkpoint round-trip and recovery-equivalence tests: randomized
 * MonitorState snapshots must survive serialize→load byte-for-byte,
 * corruption must fail typed, and a monitor resumed from a checkpoint
 * cut anywhere in the stream — including inside a rejection streak or
 * a quarantine outage — must finish with bit-identical verdicts.
 */

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/errors.h"
#include "serve/checkpoint.h"
#include "serve_test_util.h"

namespace
{

using namespace eddie;
using namespace eddie::serve;
using namespace serve_test;

/** Randomized but structurally valid monitor snapshot. */
CheckpointData
randomCheckpoint(std::mt19937_64 &rng)
{
    std::uniform_int_distribution<std::size_t> small(0, 40);
    std::uniform_real_distribution<double> real(-1e6, 1e6);
    CheckpointData ckpt;
    core::MonitorState &m = ckpt.monitor;
    ckpt.source_pos = small(rng);
    m.current = small(rng);
    m.steps_since_change = small(rng);
    m.anomaly_count = small(rng);
    m.step_index = small(rng);
    m.test_calls = small(rng);
    m.outage_len = small(rng);
    m.resync_pending = (rng() & 1) != 0;
    m.degraded.quarantined = small(rng);
    m.degraded.outages = small(rng);
    m.degraded.resyncs = small(rng);
    m.degraded.longest_outage = small(rng);
    for (auto &kind : m.degraded.by_kind)
        kind = small(rng);
    m.gate_energies.resize(small(rng));
    for (double &e : m.gate_energies)
        e = real(rng);
    const std::size_t rows = small(rng);
    const std::size_t width = 1 + small(rng) % 8;
    m.history.assign(rows, std::vector<double>(width));
    for (auto &row : m.history)
        for (double &v : row)
            v = real(rng);
    m.reports.resize(small(rng) % 8);
    for (auto &r : m.reports) {
        r.step = small(rng);
        r.time = real(rng);
        r.region = small(rng);
    }
    m.records.resize(small(rng));
    for (auto &r : m.records) {
        r.region = small(rng);
        r.tested = (rng() & 1) != 0;
        r.rejected = (rng() & 1) != 0;
        r.reported = (rng() & 1) != 0;
        r.transitioned = (rng() & 1) != 0;
        r.degraded = (rng() & 1) != 0;
    }
    return ckpt;
}

/** One checkpoint as a one-shard group snapshot (the layout
 *  eddie_monitor --checkpoint writes). */
GroupCheckpoint
oneShard(const CheckpointData &ckpt)
{
    GroupCheckpoint group;
    group.shards.push_back(ckpt);
    return group;
}

std::string
bytes(const CheckpointData &ckpt)
{
    std::ostringstream os;
    saveGroupCheckpoint(oneShard(ckpt), os);
    return os.str();
}

/** Loads a one-shard group snapshot back into its one checkpoint. */
CheckpointData
loadCheckpoint(std::istream &is)
{
    GroupCheckpoint group = loadGroupCheckpoint(is);
    if (group.shards.size() != 1)
        throw core::FormatError("expected a one-shard group");
    return std::move(group.shards.front());
}

TEST(CheckpointRoundTrip, RandomizedStatesSurviveByteForByte)
{
    std::mt19937_64 rng(7);
    for (int iter = 0; iter < 50; ++iter) {
        const CheckpointData original = randomCheckpoint(rng);
        const std::string serialized = bytes(original);
        std::istringstream is(serialized);
        const CheckpointData loaded = loadCheckpoint(is);

        EXPECT_EQ(loaded.source_pos, original.source_pos);
        EXPECT_EQ(loaded.monitor.current, original.monitor.current);
        EXPECT_EQ(loaded.monitor.step_index,
                  original.monitor.step_index);
        EXPECT_EQ(loaded.monitor.gate_energies,
                  original.monitor.gate_energies);
        EXPECT_EQ(loaded.monitor.history, original.monitor.history);
        EXPECT_TRUE(
            sameReports(loaded.monitor.reports, original.monitor.reports));
        EXPECT_TRUE(
            sameRecords(loaded.monitor.records, original.monitor.records));
        // Strongest form: re-serializing the loaded state reproduces
        // the exact bytes (no field is dropped or renormalized).
        EXPECT_EQ(bytes(loaded), serialized);
    }
}

TEST(CheckpointRoundTrip, CorruptionFailsTyped)
{
    std::mt19937_64 rng(11);
    const std::string good = bytes(randomCheckpoint(rng));

    // A flipped bit anywhere must be detected (magic, version,
    // length, payload, or CRC), never silently restored.
    for (std::size_t pos = 0; pos < good.size();
         pos += 1 + good.size() / 23) {
        std::string bad = good;
        bad[pos] = char(bad[pos] ^ 0x20);
        std::istringstream is(bad);
        EXPECT_THROW(loadCheckpoint(is), core::Error)
            << "flip at byte " << pos << " went undetected";
    }

    // Truncation is an I/O-shaped failure.
    std::istringstream trunc(good.substr(0, good.size() / 2));
    EXPECT_THROW(loadCheckpoint(trunc), core::IoError);

    std::istringstream empty{std::string()};
    EXPECT_THROW(loadCheckpoint(empty), core::IoError);
}

/** A store's only file is its container: a full-snapshot commit
 *  leaves path + ".arc" and nothing beside it (no staging tmp, no
 *  snapshot file, no delta log), and reads back byte for byte. */
TEST(CheckpointRoundTrip, AtomicFileWriteLeavesNoTmpBehind)
{
    std::mt19937_64 rng(13);
    const CheckpointData ckpt = randomCheckpoint(rng);
    const std::string dir = testing::TempDir() + "ckpt_atomic_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    CheckpointStoreConfig cfg;
    cfg.path = dir + "/ck";
    {
        CheckpointStore store(cfg);
        store.submitFull(0, ckpt);
        ASSERT_TRUE(store.flush());
    }
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"ck.arc"});

    CheckpointStore fresh(cfg);
    ASSERT_EQ(fresh.recover(), std::vector<bool>{true});
    EXPECT_EQ(bytes(fresh.mirror(0)), bytes(ckpt));
    std::filesystem::remove_all(dir);
}

/** The tentpole property: resume-from-checkpoint == uninterrupted,
 *  for cuts everywhere including mid-streak and mid-outage. */
TEST(CheckpointRecovery, ResumeIsBitIdenticalAtEveryCutPoint)
{
    std::mt19937_64 rng(17);
    const core::TrainedModel model = sharpModel(rng);
    const auto stream = eventfulStream(99);
    core::MonitorConfig mcfg;

    core::Monitor baseline(model, mcfg);
    for (const auto &sts : stream)
        baseline.step(sts);
    ASSERT_FALSE(baseline.reports().empty());
    ASSERT_GT(baseline.degradedStats().quarantined, 0u);

    // Cuts: warmup, pre-burst, inside the rejection streak, right at
    // a report, inside the dropout outage, and at both edges.
    for (const std::size_t cut :
         {std::size_t(0), std::size_t(1), std::size_t(40),
          std::size_t(92), std::size_t(95), std::size_t(105),
          std::size_t(122), std::size_t(159), stream.size()}) {
        core::Monitor first(model, mcfg);
        for (std::size_t i = 0; i < cut; ++i)
            first.step(stream[i]);

        // Round-trip the snapshot through the serialized form so the
        // test covers the bytes, not just exportState/restoreState.
        CheckpointData ckpt;
        ckpt.monitor = first.exportState();
        ckpt.source_pos = ckpt.monitor.step_index;
        std::istringstream is(bytes(ckpt));
        const CheckpointData loaded = loadCheckpoint(is);
        ASSERT_EQ(loaded.source_pos, cut);

        core::Monitor resumed(model, mcfg);
        resumed.restoreState(loaded.monitor);
        for (std::size_t i = cut; i < stream.size(); ++i)
            resumed.step(stream[i]);

        EXPECT_TRUE(sameRecords(resumed.records(), baseline.records()))
            << "records diverged for cut at " << cut;
        EXPECT_TRUE(sameReports(resumed.reports(), baseline.reports()))
            << "reports diverged for cut at " << cut;
        EXPECT_EQ(resumed.degradedStats().quarantined,
                  baseline.degradedStats().quarantined);
        EXPECT_EQ(resumed.testCalls(), baseline.testCalls());
    }
}

} // namespace
