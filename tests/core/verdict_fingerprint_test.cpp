/**
 * Bit-identity gate for the monitor's verdicts.
 *
 * For every workload, trains a small model and monitors a clean run,
 * a loop-injected run (half contamination) and a burst-injected run
 * at fixed seeds. Pins a CRC-32 of the per-step records and of the
 * anomaly reports, plus the number of tested and rejected steps. The
 * counts make a drift readable at a glance; the CRCs catch a drift
 * that keeps the counts.
 *
 * An optimisation of the monitor, the trainer or the capture path
 * must pass this unchanged. When a change is meant to alter the
 * verdicts, the failure message prints the new table rows; paste
 * them in and say why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/pipeline.h"
#include "inject/scenarios.h"
#include "workloads/workload.h"

namespace
{

using namespace eddie;

enum class Plan
{
    Clean,
    Loop,
    Burst,
};

struct Fingerprint
{
    const char *workload;
    Plan plan;
    std::uint32_t records;
    std::uint32_t reports;
    std::size_t tested;
    std::size_t rejected;
};

constexpr double kScale = 0.4;

core::PipelineConfig
corpusConfig()
{
    core::PipelineConfig cfg;
    cfg.train_runs = 5;
    cfg.threads = 1;
    return cfg;
}

cpu::InjectionPlan
planFor(const workloads::Workload &w, Plan p, std::uint64_t seed)
{
    const std::size_t target = inject::defaultTargetLoop(w);
    switch (p) {
      case Plan::Clean:
        return {};
      case Plan::Loop:
        return inject::canonicalLoopInjection(target, 0.5, seed);
      case Plan::Burst:
        return inject::shellBurst(w, target, 1, seed);
    }
    return {};
}

/** Appends the bytes of @p v to @p out. */
template <typename T>
void
put(std::string &out, T v)
{
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out.append(buf, sizeof(T));
}

Fingerprint
fingerprint(const char *name, Plan plan, const core::Pipeline &pipe,
            const core::TrainedModel &model)
{
    const std::uint64_t seed = 9000 + std::uint64_t(plan);
    const auto ev =
        pipe.monitorRun(model, seed, planFor(pipe.workload(), plan, seed));

    std::string rec_bytes;
    std::size_t tested = 0, rejected = 0;
    for (const auto &r : ev.records) {
        put<std::uint64_t>(rec_bytes, r.region);
        const std::uint8_t flags = std::uint8_t(
            (r.tested ? 1 : 0) | (r.rejected ? 2 : 0) |
            (r.reported ? 4 : 0) | (r.transitioned ? 8 : 0) |
            (r.degraded ? 16 : 0));
        put(rec_bytes, flags);
        tested += r.tested ? 1 : 0;
        rejected += r.rejected ? 1 : 0;
    }
    std::string rep_bytes;
    for (const auto &r : ev.reports) {
        put<std::uint64_t>(rep_bytes, r.step);
        put(rep_bytes, r.time);
        put<std::uint64_t>(rep_bytes, r.region);
    }
    return {name, plan, common::crc32(rec_bytes), common::crc32(rep_bytes),
            tested, rejected};
}

std::string
row(const Fingerprint &f)
{
    static const char *plans[] = {"Clean", "Loop", "Burst"};
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"%s\", Plan::%s, 0x%08xu, 0x%08xu, %zu, %zu},",
                  f.workload, plans[int(f.plan)], f.records, f.reports,
                  f.tested, f.rejected);
    return buf;
}

// Recorded from the monitor before its K-S window kept cached
// reference ranks.
const Fingerprint kExpected[] = {
    {"bitcount", Plan::Clean, 0xabe14b39u, 0x00000000u, 205, 3},
    {"bitcount", Plan::Loop, 0x64b12d22u, 0x1ca9a113u, 288, 185},
    {"bitcount", Plan::Burst, 0x62e3e45du, 0x20c9548cu, 696, 626},
    {"basicmath", Plan::Clean, 0x6d60d3e6u, 0x00000000u, 128, 2},
    {"basicmath", Plan::Loop, 0x57024709u, 0x1aeddd02u, 178, 23},
    {"basicmath", Plan::Burst, 0xbb22b9f7u, 0xb8c4c9c4u, 617, 500},
    {"susan", Plan::Clean, 0x0b730e9fu, 0x00000000u, 61, 1},
    {"susan", Plan::Loop, 0x44655cc2u, 0xc0c7e9a7u, 111, 30},
    {"susan", Plan::Burst, 0xcc3dda3fu, 0xb308f2e9u, 544, 479},
    {"dijkstra", Plan::Clean, 0xaf413b5cu, 0x00000000u, 123, 4},
    {"dijkstra", Plan::Loop, 0xc6a8925au, 0x00000000u, 127, 6},
    {"dijkstra", Plan::Burst, 0x2f62c46cu, 0x4e8933e5u, 606, 485},
    {"patricia", Plan::Clean, 0xcdb6379fu, 0x00000000u, 340, 0},
    {"patricia", Plan::Loop, 0xdd1dd7ceu, 0x00000000u, 395, 0},
    {"patricia", Plan::Burst, 0x0c37d76du, 0x6778f6dcu, 827, 482},
    {"gsm", Plan::Clean, 0xa8c998f4u, 0x00000000u, 105, 3},
    {"gsm", Plan::Loop, 0xa8f1140eu, 0xd80b9b03u, 183, 83},
    {"gsm", Plan::Burst, 0x16951cd0u, 0x5f4a7dc3u, 592, 481},
    {"fft", Plan::Clean, 0x101da54cu, 0x00000000u, 55, 3},
    {"fft", Plan::Loop, 0x22121407u, 0x60f5567eu, 226, 155},
    {"fft", Plan::Burst, 0x3abe359au, 0x4aa6b2c3u, 539, 488},
    {"sha", Plan::Clean, 0x40b56da9u, 0x00000000u, 61, 8},
    {"sha", Plan::Loop, 0xf9e7894fu, 0xfb333b75u, 216, 210},
    {"sha", Plan::Burst, 0x393ae491u, 0xe6f0ee3fu, 547, 490},
    {"rijndael", Plan::Clean, 0xa478cdaeu, 0x00000000u, 20, 2},
    {"rijndael", Plan::Loop, 0x09d18dd6u, 0x378ac0b0u, 79, 76},
    {"rijndael", Plan::Burst, 0x3a09f777u, 0xf0b0b08du, 506, 478},
    {"stringsearch", Plan::Clean, 0x6e976788u, 0x00000000u, 47, 13},
    {"stringsearch", Plan::Loop, 0xa73d2a23u, 0x56235845u, 276, 262},
    {"stringsearch", Plan::Burst, 0xc66b87fau, 0xb14377c9u, 529, 488},
};

TEST(VerdictFingerprintTest, MatchesRecordedCrcs)
{
    std::string fresh;
    bool all_match = true;
    for (const std::string &name : workloads::workloadNames()) {
        core::Pipeline pipe(workloads::makeWorkload(name, kScale),
                            corpusConfig());
        const auto model = pipe.trainModel();
        for (Plan plan : {Plan::Clean, Plan::Loop, Plan::Burst}) {
            const Fingerprint got =
                fingerprint(name.c_str(), plan, pipe, model);
            fresh += row(got) + "\n";
            const Fingerprint *want = nullptr;
            for (const Fingerprint &f : kExpected)
                if (f.workload == name && f.plan == plan)
                    want = &f;
            if (want == nullptr) {
                ADD_FAILURE() << "no fingerprint for " << row(got);
                all_match = false;
                continue;
            }
            const bool match = got.records == want->records &&
                               got.reports == want->reports &&
                               got.tested == want->tested &&
                               got.rejected == want->rejected;
            EXPECT_TRUE(match) << "verdict fingerprint differs:\n"
                               << "  want " << row(*want) << "\n"
                               << "  got  " << row(got);
            all_match = all_match && match;
        }
    }
    if (!all_match)
        std::printf("current table:\n%s", fresh.c_str());
}

} // namespace
