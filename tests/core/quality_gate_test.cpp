/**
 * @file
 * Tests of the signal-quality gate and the monitor's degraded mode:
 * clean signals must pass untouched (gating on == gating off, byte
 * for byte), degraded windows must be quarantined instead of
 * reported, and an outage must end in a resync rather than a wedged
 * monitor.
 */

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/monitor.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "prog/builder.h"
#include "prog/regions.h"

namespace
{

using namespace eddie;
using namespace eddie::core;

constexpr double kSentinel = 2e7;

prog::RegionGraph
twoLoopGraph()
{
    prog::ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 8);
    auto l0 = b.newLabel();
    b.bind(l0);
    b.addi(1, 1, 1);
    b.blt(1, 2, l0);
    b.nop();
    b.li(1, 0);
    auto l1 = b.newLabel();
    b.bind(l1);
    b.addi(1, 1, 1);
    b.blt(1, 2, l1);
    b.halt();
    static prog::Program p = b.take();
    return prog::analyzeProgram(p);
}

/** Sharp two-peak STS with a healthy window energy. */
Sts
sharpSts(std::mt19937_64 &rng, double t, std::size_t region)
{
    std::normal_distribution<double> jitter(0.0, 2000.0);
    Sts sts;
    sts.t_start = t;
    sts.t_end = t + 1e-4;
    sts.peak_freqs = {1e6 + jitter(rng), 2e6 + jitter(rng)};
    while (sts.peak_freqs.size() < 6)
        sts.peak_freqs.push_back(kSentinel);
    sts.true_region = region;
    sts.window_energy = 1.0;
    sts.peak_energy_frac = 0.8;
    return sts;
}

/** A window captured during a dropout: almost no energy, no peaks. */
Sts
dropoutSts(double t)
{
    Sts sts;
    sts.t_start = t;
    sts.t_end = t + 1e-4;
    sts.peak_freqs.assign(6, kSentinel);
    sts.true_region = 0;
    sts.window_energy = 1e-6;
    sts.peak_energy_frac = 0.0;
    sts.faulted = true;
    return sts;
}

TrainedModel
sharpModel(std::mt19937_64 &rng)
{
    std::vector<std::vector<Sts>> runs;
    for (int r = 0; r < 6; ++r) {
        std::vector<Sts> run;
        double t = 0.0;
        for (int i = 0; i < 160; ++i, t += 5e-5)
            run.push_back(sharpSts(rng, t, i < 80 ? 0 : 1));
        runs.push_back(std::move(run));
    }
    // Near-zero alpha pushes the K-S critical value to ~0.96 at the
    // monitor's n=8, which only the d=1.0 of all-sentinel outage
    // windows can cross. Chance rejections of clean jittered windows
    // (a real-but-rare monitor behaviour) would otherwise make these
    // gating assertions flaky.
    return withAlpha(train(runs, twoLoopGraph(), kSentinel), 1e-6);
}

bool
sameRecords(const std::vector<StepRecord> &a,
            const std::vector<StepRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].region != b[i].region || a[i].tested != b[i].tested ||
            a[i].rejected != b[i].rejected ||
            a[i].reported != b[i].reported ||
            a[i].transitioned != b[i].transitioned ||
            a[i].degraded != b[i].degraded)
            return false;
    }
    return true;
}

/** Clean end-to-end runs must be bit-identical with the gate on or
 *  off — the gate may only ever remove *degraded* windows. */
void
expectCleanNoOp(SignalPath path, const char *workload)
{
    PipelineConfig cfg;
    cfg.path = path;
    cfg.train_runs = 6;
    if (path == SignalPath::EmBaseband)
        cfg.channel.snr_db = 15.0;
    Pipeline pipe(workloads::makeWorkload(workload, 0.15), cfg);
    const auto model = pipe.trainModel();

    auto gated_cfg = cfg;
    auto ungated_cfg = cfg;
    ungated_cfg.monitor.quality.enabled = false;
    Pipeline gated(workloads::makeWorkload(workload, 0.15), gated_cfg);
    Pipeline ungated(workloads::makeWorkload(workload, 0.15),
                     ungated_cfg);

    for (std::uint64_t seed : {9000ULL, 9001ULL}) {
        const auto a = gated.monitorRun(model, seed);
        const auto b = ungated.monitorRun(model, seed);
        EXPECT_TRUE(sameRecords(a.records, b.records))
            << workload << " seed " << seed;
        EXPECT_EQ(a.reports.size(), b.reports.size());
        EXPECT_EQ(a.degraded.quarantined, 0u)
            << "gate fired on a clean channel";
    }
}

TEST(QualityGateTest, CleanPowerPathIsNoOp)
{
    expectCleanNoOp(SignalPath::Power, "bitcount");
}

TEST(QualityGateTest, CleanEmPathIsNoOp)
{
    expectCleanNoOp(SignalPath::EmBaseband, "sha");
}

TEST(QualityGateTest, DropoutIsQuarantinedNotReported)
{
    std::mt19937_64 rng(3);
    const auto model = sharpModel(rng);
    Monitor mon(model, MonitorConfig());

    double t = 0.0;
    for (int i = 0; i < 40; ++i, t += 5e-5)
        mon.step(sharpSts(rng, t, 0));
    ASSERT_EQ(mon.currentRegion(), 0u);
    for (int i = 0; i < 12; ++i, t += 5e-5) {
        const auto rec = mon.step(dropoutSts(t));
        EXPECT_TRUE(rec.degraded);
        EXPECT_FALSE(rec.tested);
    }
    for (int i = 0; i < 30; ++i, t += 5e-5)
        mon.step(sharpSts(rng, t, 0));

    EXPECT_TRUE(mon.reports().empty())
        << "outage windows were reported as anomalies";
    EXPECT_EQ(mon.currentRegion(), 0u);
    const auto &st = mon.degradedStats();
    EXPECT_EQ(st.quarantined, 12u);
    EXPECT_EQ(
        st.by_kind[std::size_t(WindowQuality::Dropout)], 12u);
    EXPECT_EQ(st.outages, 1u);
    EXPECT_EQ(st.longest_outage, 12u);
    EXPECT_EQ(st.resyncs, 1u);
}

TEST(QualityGateTest, UngatedMonitorIsDisturbedByDropout)
{
    std::mt19937_64 rng(3);
    const auto model = sharpModel(rng);
    MonitorConfig cfg;
    cfg.quality.enabled = false;
    Monitor mon(model, cfg);

    double t = 0.0;
    for (int i = 0; i < 40; ++i, t += 5e-5)
        mon.step(sharpSts(rng, t, 0));
    for (int i = 0; i < 12; ++i, t += 5e-5)
        mon.step(dropoutSts(t));
    for (int i = 0; i < 30; ++i, t += 5e-5)
        mon.step(sharpSts(rng, t, 0));

    // Without the gate the sentinel-only outage windows either build
    // a false anomaly streak or drag the monitor out of its region.
    bool disturbed = !mon.reports().empty() ||
                     mon.currentRegion() != 0u;
    for (const auto &rec : mon.records())
        disturbed = disturbed || rec.transitioned;
    EXPECT_TRUE(disturbed);
    EXPECT_EQ(mon.degradedStats().quarantined, 0u);
}

TEST(QualityGateTest, MalformedWindowIsQuarantined)
{
    std::mt19937_64 rng(5);
    const auto model = sharpModel(rng);
    Monitor mon(model, MonitorConfig());

    double t = 0.0;
    for (int i = 0; i < 20; ++i, t += 5e-5)
        mon.step(sharpSts(rng, t, 0));

    auto bad = sharpSts(rng, t, 0);
    bad.peak_freqs[1] = std::nan("");
    auto rec = mon.step(bad);
    EXPECT_TRUE(rec.degraded);

    auto out_of_band = sharpSts(rng, t, 0);
    out_of_band.peak_freqs[0] = 3.0 * kSentinel;
    rec = mon.step(out_of_band);
    EXPECT_TRUE(rec.degraded);

    auto truncated = sharpSts(rng, t, 0);
    truncated.peak_freqs.resize(1);
    rec = mon.step(truncated);
    EXPECT_TRUE(rec.degraded);

    EXPECT_EQ(mon.degradedStats().by_kind[std::size_t(
                  WindowQuality::Malformed)],
              3u);
    EXPECT_TRUE(mon.reports().empty());
}

TEST(QualityGateTest, LegacyStreamsSkipEnergyGates)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    Monitor mon(model, MonitorConfig());

    // window_energy == 0 marks streams from pre-quality captures;
    // the gate must not treat them as dropouts.
    double t = 0.0;
    for (int i = 0; i < 40; ++i, t += 5e-5) {
        auto sts = sharpSts(rng, t, 0);
        sts.window_energy = 0.0;
        const auto rec = mon.step(sts);
        EXPECT_FALSE(rec.degraded);
    }
    EXPECT_EQ(mon.degradedStats().quarantined, 0u);
}

TEST(QualityGateTest, BaselineIsMedianOfTheEnergyWindow)
{
    // The gate reads its median from a sorted copy it updates one
    // value at a time; it must equal a fresh selection over the
    // window after every window, ties and restores included.
    std::mt19937_64 rng(11);
    const auto model = sharpModel(rng);
    QualityConfig cfg;
    QualityGate gate(model, cfg);
    std::uniform_int_distribution<int> level(1, 5);
    std::uniform_real_distribution<double> cont(1.0, 4.0);
    for (int i = 0; i < 500; ++i) {
        auto sts = sharpSts(rng, 0.0, 0);
        sts.window_energy = i % 3 == 0 ? cont(rng) : double(level(rng));
        ASSERT_EQ(gate.assess(sts, 0), WindowQuality::Good);
        std::vector<double> window = gate.exportEnergies();
        ASSERT_EQ(window.size(),
                  std::min<std::size_t>(i + 1, cfg.energy_window));
        std::nth_element(window.begin(),
                         window.begin() + std::ptrdiff_t(window.size() / 2),
                         window.end());
        const double want = window.size() < cfg.energy_warmup
                                ? 0.0
                                : window[window.size() / 2];
        ASSERT_EQ(gate.baseline(), want) << "after window " << i;
        if (i == 250) {
            // Restoring more values than the window keeps the newest.
            std::vector<double> longer(cfg.energy_window + 7);
            for (double &e : longer)
                e = double(level(rng));
            gate.restoreEnergies(longer);
            EXPECT_EQ(gate.exportEnergies(),
                      std::vector<double>(longer.begin() + 7,
                                          longer.end()));
        }
    }
}

TEST(QualityGateTest, ScoreRunCountsDegradedGroupsSeparately)
{
    std::mt19937_64 rng(9);
    const auto model = sharpModel(rng);
    Monitor mon(model, MonitorConfig());

    std::vector<Sts> stream;
    double t = 0.0;
    for (int i = 0; i < 40; ++i, t += 5e-5)
        stream.push_back(sharpSts(rng, t, 0));
    for (int i = 0; i < 6; ++i, t += 5e-5)
        stream.push_back(dropoutSts(t));
    for (int i = 0; i < 20; ++i, t += 5e-5)
        stream.push_back(sharpSts(rng, t, 0));
    for (const auto &sts : stream)
        mon.step(sts);

    const auto m =
        scoreRun(stream, mon.records(), mon.reports(), model);
    EXPECT_EQ(m.degraded_groups, 6u);
    EXPECT_EQ(m.false_positives, 0u);

    const auto agg = aggregate({m});
    EXPECT_GT(agg.degraded_pct, 0.0);

    // The human-readable summaries include the new counters.
    const auto desc = describe(mon.degradedStats());
    EXPECT_NE(desc.find("quarantined"), std::string::npos);
}

} // namespace
