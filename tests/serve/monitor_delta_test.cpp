/**
 * @file
 * Property tests of the incremental monitor snapshots
 * (core::MonitorStateDelta): a chain of deltas applied onto the state
 * of the previous cut must reproduce exportState() exactly at EVERY
 * cut point — including cuts that land mid-ring-wrap, inside a
 * rejection streak whose report retro-marks records from before the
 * cut, and inside a quarantine outage that clears the history.
 * Also covers the chain-link and structural-corruption rejections
 * applyDelta() promises, and Monitor::reset() equivalence (the
 * property Pipeline::monitorBatch leans on to reuse shard monitors).
 * Every resume is followed by steps to the end of the stream, so
 * state the monitor derives rather than exports (its cached
 * reference ranks) is checked too.
 */

#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/errors.h"
#include "core/monitor.h"
#include "serve_test_util.h"

namespace
{

using namespace eddie;
using namespace eddie::core;
using serve_test::eventfulStream;
using serve_test::sameRecords;
using serve_test::sameReports;
using serve_test::sharpModel;

void
expectStateEqual(const MonitorState &a, const MonitorState &b,
                 const std::string &where)
{
    EXPECT_EQ(a.current, b.current) << where;
    EXPECT_EQ(a.steps_since_change, b.steps_since_change) << where;
    EXPECT_EQ(a.anomaly_count, b.anomaly_count) << where;
    EXPECT_EQ(a.step_index, b.step_index) << where;
    EXPECT_EQ(a.test_calls, b.test_calls) << where;
    EXPECT_EQ(a.outage_len, b.outage_len) << where;
    EXPECT_EQ(a.resync_pending, b.resync_pending) << where;
    EXPECT_EQ(a.history, b.history) << where;
    EXPECT_EQ(a.gate_energies, b.gate_energies) << where;
    EXPECT_EQ(a.degraded.quarantined, b.degraded.quarantined) << where;
    EXPECT_EQ(a.degraded.outages, b.degraded.outages) << where;
    EXPECT_EQ(a.degraded.resyncs, b.degraded.resyncs) << where;
    EXPECT_EQ(a.degraded.longest_outage, b.degraded.longest_outage)
        << where;
    EXPECT_EQ(a.degraded.by_kind, b.degraded.by_kind) << where;
    EXPECT_TRUE(sameRecords(a.records, b.records)) << where;
    EXPECT_TRUE(sameReports(a.reports, b.reports)) << where;
}

/** Cut interval; 1 exercises every possible cut point, the primes
 *  make cuts land mid-ring-wrap and inside the anomaly burst and the
 *  dropout outage of eventfulStream. */
class DeltaChainTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DeltaChainTest, ChainReproducesExportStateAtEveryCut)
{
    const std::size_t interval = GetParam();
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(99);

    Monitor live(model, MonitorConfig());
    MonitorState shadow = live.exportState();
    std::size_t since = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        live.step(stream[i]);
        if (++since < interval)
            continue;
        since = 0;
        applyDelta(shadow, live.exportDelta());
        expectStateEqual(shadow, live.exportState(),
                         "cut after step " + std::to_string(i));
        ASSERT_FALSE(::testing::Test::HasFailure())
            << "first divergence at step " << i;
    }
    // Final, possibly partial, interval.
    applyDelta(shadow, live.exportDelta());
    expectStateEqual(shadow, live.exportState(), "final cut");
}

INSTANTIATE_TEST_SUITE_P(Cuts, DeltaChainTest,
                         ::testing::Values(1, 3, 7, 16, 50, 160));

TEST(MonitorDeltaTest, RestoreFromChainedStateContinuesBitIdentically)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(4242);

    Monitor ref(model, MonitorConfig());
    for (const auto &sts : stream)
        ref.step(sts);

    // Chain deltas every 13 steps up to step 97 (inside the anomaly
    // burst), then resume a fresh monitor from the chained state.
    const std::size_t cut = 97;
    Monitor live(model, MonitorConfig());
    MonitorState shadow = live.exportState();
    for (std::size_t i = 0; i < cut; ++i) {
        live.step(stream[i]);
        if ((i + 1) % 13 == 0)
            applyDelta(shadow, live.exportDelta());
    }
    applyDelta(shadow, live.exportDelta());

    Monitor resumed(model, MonitorConfig());
    resumed.restoreState(shadow);
    for (std::size_t i = cut; i < stream.size(); ++i)
        resumed.step(stream[i]);

    EXPECT_TRUE(sameRecords(resumed.records(), ref.records()));
    EXPECT_TRUE(sameReports(resumed.reports(), ref.reports()));
}

/**
 * Resumes at every cut point and keeps stepping to the end of the
 * stream. A monitor restored from exportState(), one restored from
 * the delta chain, and one that stepped another stream before the
 * restore must all end exactly where an uninterrupted monitor ends.
 * The last one's cached reference ranks belong to rows that are not
 * the restored ones, so a rank cache that restoreState() leaves
 * stale fails here. A monitor that stepped another stream up to the
 * cut and was then reset() must likewise replay the whole stream
 * exactly.
 */
TEST(MonitorDeltaTest, ResumeAtEveryCutThenStepMatchesUninterrupted)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(4242);
    const auto other = eventfulStream(77);
    const MonitorConfig cfg;

    Monitor ref(model, cfg);
    for (const auto &sts : stream)
        ref.step(sts);
    const MonitorState want = ref.exportState();

    Monitor live(model, cfg);
    MonitorState chained = live.exportState();
    Monitor reused(model, cfg);
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        if (cut > 0) {
            live.step(stream[cut - 1]);
            applyDelta(chained, live.exportDelta());
        }
        const MonitorState snap = live.exportState();
        const std::string where = "resumed at step " + std::to_string(cut);

        Monitor fresh(model, cfg);
        fresh.restoreState(snap);
        Monitor from_chain(model, cfg);
        from_chain.restoreState(chained);
        reused.reset();
        for (std::size_t i = 0; i < (cut * 37) % (other.size() - 20) + 20;
             ++i)
            reused.step(other[i]);
        reused.restoreState(snap);
        for (std::size_t i = cut; i < stream.size(); ++i) {
            fresh.step(stream[i]);
            from_chain.step(stream[i]);
            reused.step(stream[i]);
        }
        expectStateEqual(fresh.exportState(), want, where + " (fresh)");
        expectStateEqual(from_chain.exportState(), want,
                         where + " (delta chain)");
        expectStateEqual(reused.exportState(), want,
                         where + " (reused monitor)");

        Monitor recycled(model, cfg);
        for (std::size_t i = 0; i < cut; ++i)
            recycled.step(other[i]);
        recycled.reset();
        for (const auto &sts : stream)
            recycled.step(sts);
        expectStateEqual(recycled.exportState(), want,
                         "reset after step " + std::to_string(cut));
        ASSERT_FALSE(::testing::Test::HasFailure()) << where;
    }
}

TEST(MonitorDeltaTest, ChainGapIsRejectedBeforeMutation)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(11);

    Monitor m(model, MonitorConfig());
    const MonitorState base = m.exportState();
    for (std::size_t i = 0; i < 10; ++i)
        m.step(stream[i]);
    const auto d1 = m.exportDelta();
    for (std::size_t i = 10; i < 20; ++i)
        m.step(stream[i]);
    const auto d2 = m.exportDelta();

    // Skipping d1 must be detected before anything is written, so the
    // same state still accepts the correct chain afterwards.
    MonitorState s = base;
    EXPECT_THROW(applyDelta(s, d2), FormatError);
    applyDelta(s, d1);
    applyDelta(s, d2);
    expectStateEqual(s, m.exportState(), "after full chain");
}

TEST(MonitorDeltaTest, StructurallyCorruptDeltasAreRejected)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(12);

    Monitor m(model, MonitorConfig());
    const MonitorState base = m.exportState();
    for (std::size_t i = 0; i < 10; ++i)
        m.step(stream[i]);
    const auto good = m.exportDelta();

    {
        auto bad = good; // rewrite index beyond the record log
        bad.records_from = 100;
        MonitorState s = base;
        EXPECT_THROW(applyDelta(s, bad), FormatError);
    }
    {
        auto bad = good; // more tail rows than resident rows
        bad.history_tail.insert(bad.history_tail.end(), 3,
                                bad.history_tail.empty()
                                    ? std::vector<double>{0.0}
                                    : bad.history_tail.front());
        MonitorState s = base;
        EXPECT_THROW(applyDelta(s, bad), FormatError);
    }
    {
        auto bad = good; // record log no longer matches step index
        ASSERT_FALSE(bad.records.empty());
        bad.records.pop_back();
        MonitorState s = base;
        EXPECT_THROW(applyDelta(s, bad), FormatError);
    }
}

TEST(MonitorDeltaTest, ResetMatchesFreshlyConstructedMonitor)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto first = eventfulStream(21);
    const auto second = eventfulStream(22);

    Monitor reused(model, MonitorConfig());
    for (const auto &sts : first)
        reused.step(sts);
    reused.reset();

    Monitor fresh(model, MonitorConfig());
    for (const auto &sts : second) {
        reused.step(sts);
        fresh.step(sts);
    }
    EXPECT_TRUE(sameRecords(reused.records(), fresh.records()));
    EXPECT_TRUE(sameReports(reused.reports(), fresh.reports()));
    expectStateEqual(reused.exportState(), fresh.exportState(),
                     "reset vs fresh");
}

} // namespace
