/**
 * Bit-identity gate for the cycle simulator.
 *
 * Pins CRC-32s of everything a run hands downstream: the power
 * trace bytes, the per-sample region and injection annotations, and
 * the CoreStats counters. The cases cover every workload, clean,
 * loop-injected (half contamination, so the contamination coin
 * decides) and burst-injected, on the in-order and the out-of-order
 * core, with OS interrupts and schedule jitter on. Two extra
 * geometries use bucket widths other than the default, so the
 * sample-index arithmetic is checked at more than one divisor.
 *
 * An optimisation of the simulator must pass this unchanged. When a
 * change is meant to alter the traces, the failure message prints
 * the new table rows; paste them in and say why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "cpu/core.h"
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

/** Core geometries under test. */
enum class Geometry
{
    InOrder,      ///< defaults
    OutOfOrder,   ///< defaults, out-of-order
    InOrderW4S7,  ///< width 4, 7-cycle buckets, deeper pipe
    OutOfOrderS20 ///< ROB 32, 20-cycle buckets, more jitter
};

struct Fingerprint
{
    const char *workload;
    Plan plan;
    Geometry geometry;
    std::uint32_t power;
    std::uint32_t region;
    std::uint32_t injected;
    std::uint32_t stats;
};

constexpr double kScale = 0.1;

cpu::CoreConfig
configFor(Geometry g)
{
    cpu::CoreConfig cfg;
    cfg.os_irq_rate_hz = 1000.0;
    switch (g) {
      case Geometry::InOrder:
        break;
      case Geometry::OutOfOrder:
        cfg.out_of_order = true;
        break;
      case Geometry::InOrderW4S7:
        cfg.issue_width = 4;
        cfg.pipeline_depth = 12;
        cfg.cycles_per_sample = 7;
        break;
      case Geometry::OutOfOrderS20:
        cfg.out_of_order = true;
        cfg.rob_size = 32;
        cfg.cycles_per_sample = 20;
        cfg.schedule_jitter = 0.05;
        break;
    }
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

template <typename T>
std::uint32_t
crcOf(const std::vector<T> &v)
{
    return common::crc32(v.data(), v.size() * sizeof(T));
}

Fingerprint
fingerprint(const char *name, Plan plan, Geometry geometry)
{
    const auto w = workloads::makeWorkload(name, kScale);
    const std::uint64_t seed = 7 + std::uint64_t(plan) * 3 +
                               std::uint64_t(geometry) * 11;
    cpu::Core core(configFor(geometry));
    const auto rr = core.run(w.program, w.regions, w.make_input(seed),
                             planFor(w, plan, seed), seed);

    std::vector<std::uint64_t> region(rr.region.begin(), rr.region.end());
    const cpu::CoreStats &s = rr.stats;
    // An injected case whose plan never fires would pin nothing.
    EXPECT_EQ(plan == Plan::Clean, s.injected_ops == 0) << name;
    const std::vector<std::uint64_t> stats = {
        s.instructions, s.injected_ops, s.cycles,
        s.l1_hits,      s.l1_misses,    s.l2_hits,
        s.l2_misses,    s.branches,     s.mispredicts,
    };
    return {name,         plan,           geometry,
            crcOf(rr.power), crcOf(region), crcOf(rr.injected),
            crcOf(stats)};
}

std::string
row(const Fingerprint &f)
{
    static const char *plans[] = {"Clean", "Loop", "Burst"};
    static const char *geos[] = {"InOrder", "OutOfOrder", "InOrderW4S7",
                                 "OutOfOrderS20"};
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"%s\", Plan::%s, Geometry::%s, 0x%08xu, "
                  "0x%08xu, 0x%08xu, 0x%08xu},",
                  f.workload, plans[int(f.plan)], geos[int(f.geometry)],
                  f.power, f.region, f.injected, f.stats);
    return buf;
}

// Recorded from the simulator before its hot loop was predecoded.
const Fingerprint kExpected[] = {
    {"bitcount", Plan::Clean, Geometry::InOrder, 0x96a56620u, 0x0467259fu, 0xc52def8du, 0x0ddff2e9u},
    {"bitcount", Plan::Loop, Geometry::InOrder, 0xeb680b83u, 0x4340c4e7u, 0xcf7524f0u, 0x63abf357u},
    {"bitcount", Plan::Burst, Geometry::InOrder, 0x878d3d09u, 0x81cab10bu, 0xabcb903fu, 0xbcf0a4eau},
    {"bitcount", Plan::Clean, Geometry::OutOfOrder, 0x4eb9d31bu, 0x0fe91c27u, 0xdb351f69u, 0xe3c1d548u},
    {"bitcount", Plan::Loop, Geometry::OutOfOrder, 0x56aa593bu, 0xf4e05e31u, 0x89387bbdu, 0xe18cfb6cu},
    {"bitcount", Plan::Burst, Geometry::OutOfOrder, 0x8df3f23du, 0x220d2e42u, 0x3d7db35eu, 0x124b42e7u},
    {"basicmath", Plan::Clean, Geometry::InOrder, 0x7a1ffc56u, 0x8a71243du, 0xd3d75be3u, 0x41bef47eu},
    {"basicmath", Plan::Loop, Geometry::InOrder, 0x49c4d75au, 0x3bfb6556u, 0xdd5ba89cu, 0x4b89ae61u},
    {"basicmath", Plan::Burst, Geometry::InOrder, 0x11626a5du, 0xcb640826u, 0x1236fd0bu, 0x3e09fe16u},
    {"basicmath", Plan::Clean, Geometry::OutOfOrder, 0x84b64b43u, 0x804ae57au, 0xa99c0e47u, 0x0f9e6a27u},
    {"basicmath", Plan::Loop, Geometry::OutOfOrder, 0xf340eeaeu, 0x3343ae4fu, 0x5cda2353u, 0x6520a4dcu},
    {"basicmath", Plan::Burst, Geometry::OutOfOrder, 0x0800ad28u, 0x5096e4ceu, 0x5c40a653u, 0xc8b050beu},
    {"susan", Plan::Clean, Geometry::InOrder, 0x3b98b3eau, 0x42983ce4u, 0x82ac2b3bu, 0x11ae8764u},
    {"susan", Plan::Loop, Geometry::InOrder, 0xc1e6245au, 0x732464f4u, 0x3f16fc1du, 0xf4a15973u},
    {"susan", Plan::Burst, Geometry::InOrder, 0x85e64732u, 0xb083153au, 0x0999a783u, 0x5c27c4e6u},
    {"susan", Plan::Clean, Geometry::OutOfOrder, 0x1708d323u, 0xe4c66cb2u, 0x48240311u, 0x024a68c9u},
    {"susan", Plan::Loop, Geometry::OutOfOrder, 0xf3f25f73u, 0xe2bbc150u, 0x66e57f7cu, 0xb0cb9111u},
    {"susan", Plan::Burst, Geometry::OutOfOrder, 0x1d5a9209u, 0x0a713314u, 0xa065f0ebu, 0xa4b574d4u},
    {"dijkstra", Plan::Clean, Geometry::InOrder, 0x6136890au, 0xb2fdf85eu, 0xf3f60d0fu, 0xa62b9a2eu},
    {"dijkstra", Plan::Loop, Geometry::InOrder, 0xf7c9af54u, 0xcf16495du, 0xbede85b0u, 0xdb9d41ebu},
    {"dijkstra", Plan::Burst, Geometry::InOrder, 0x6a6cc6b3u, 0xfb5b7f99u, 0xe906dc2fu, 0xedd01a5eu},
    {"dijkstra", Plan::Clean, Geometry::OutOfOrder, 0xa7ec8fa1u, 0xe84c0d4eu, 0xa3bdd778u, 0x6d6ae263u},
    {"dijkstra", Plan::Loop, Geometry::OutOfOrder, 0xe6a4bbc4u, 0x3c83e888u, 0xb8f64c9au, 0x81312885u},
    {"dijkstra", Plan::Burst, Geometry::OutOfOrder, 0x77e22a7eu, 0xbf1b0835u, 0x058d715bu, 0x64e30864u},
    {"patricia", Plan::Clean, Geometry::InOrder, 0x7251ef54u, 0x54e8e106u, 0xc0898c8bu, 0x198e5a58u},
    {"patricia", Plan::Loop, Geometry::InOrder, 0xcbe36da4u, 0xae1792e8u, 0x382ca4fdu, 0x44bddbccu},
    {"patricia", Plan::Burst, Geometry::InOrder, 0x300ce826u, 0xf4cb857eu, 0xb8ea2e11u, 0x78e97246u},
    {"patricia", Plan::Clean, Geometry::OutOfOrder, 0xf91d2462u, 0x92e00e74u, 0xa878a6b0u, 0xd0a5d6e3u},
    {"patricia", Plan::Loop, Geometry::OutOfOrder, 0x8d91183du, 0xf729e7efu, 0x11a4c038u, 0xcd3e08f2u},
    {"patricia", Plan::Burst, Geometry::OutOfOrder, 0xc958bbf4u, 0x32fe22beu, 0x208e92a9u, 0x068fe546u},
    {"gsm", Plan::Clean, Geometry::InOrder, 0x9cb4d808u, 0x1f675553u, 0x75ecafecu, 0x9e8097f6u},
    {"gsm", Plan::Loop, Geometry::InOrder, 0x39692b97u, 0x0e4c691du, 0x89629737u, 0x8724db3du},
    {"gsm", Plan::Burst, Geometry::InOrder, 0x01732694u, 0xf3e5b232u, 0x1b23a32au, 0x31817184u},
    {"gsm", Plan::Clean, Geometry::OutOfOrder, 0xf1cea3c7u, 0x01279208u, 0xf29b7ebau, 0x060983cbu},
    {"gsm", Plan::Loop, Geometry::OutOfOrder, 0xc345ed06u, 0xacdd4cd0u, 0x1a56a66eu, 0xa2eddf5cu},
    {"gsm", Plan::Burst, Geometry::OutOfOrder, 0x2f8e87e3u, 0x747216a7u, 0x76706e73u, 0x38cf10a6u},
    {"fft", Plan::Clean, Geometry::InOrder, 0xa2e5ff7eu, 0x26d41c67u, 0xf56aebcbu, 0x18ab40e4u},
    {"fft", Plan::Loop, Geometry::InOrder, 0x21469487u, 0xe07e9a40u, 0x8a9965a0u, 0xe4777ca2u},
    {"fft", Plan::Burst, Geometry::InOrder, 0xc30727b7u, 0x567f9c33u, 0xaac808fbu, 0x5109a267u},
    {"fft", Plan::Clean, Geometry::OutOfOrder, 0x392529edu, 0xd93d1805u, 0x030120ebu, 0x919fccafu},
    {"fft", Plan::Loop, Geometry::OutOfOrder, 0xe26ca6c3u, 0x13071dc2u, 0x9115c00bu, 0xd1087331u},
    {"fft", Plan::Burst, Geometry::OutOfOrder, 0x4c6bd697u, 0x489e8a20u, 0x50e94a64u, 0x421a8d4fu},
    {"sha", Plan::Clean, Geometry::InOrder, 0xeeaf5015u, 0xf980585eu, 0xc2403f8bu, 0x994a7380u},
    {"sha", Plan::Loop, Geometry::InOrder, 0xd59b8fd1u, 0xe4b6b4c7u, 0x0f5feb95u, 0x5cf39f6fu},
    {"sha", Plan::Burst, Geometry::InOrder, 0x4d671460u, 0xa33e81e6u, 0x925c90a2u, 0xcf252c83u},
    {"sha", Plan::Clean, Geometry::OutOfOrder, 0x264e96f3u, 0x258afeb4u, 0x0e99d988u, 0x63cac232u},
    {"sha", Plan::Loop, Geometry::OutOfOrder, 0x3e165a90u, 0xe383eb1bu, 0x4e4e5bebu, 0x0b5fc3a9u},
    {"sha", Plan::Burst, Geometry::OutOfOrder, 0x1463400au, 0x36911420u, 0xcdfa945fu, 0x09275d7eu},
    {"rijndael", Plan::Clean, Geometry::InOrder, 0x023a99d4u, 0x2d42248fu, 0x377aa224u, 0x3c086d87u},
    {"rijndael", Plan::Loop, Geometry::InOrder, 0xf639ea07u, 0x0854611bu, 0x96c1bf96u, 0x4b0eb0ceu},
    {"rijndael", Plan::Burst, Geometry::InOrder, 0x36e0082cu, 0xeba5b880u, 0xbcd635ecu, 0x3f2ab443u},
    {"rijndael", Plan::Clean, Geometry::OutOfOrder, 0xb1ff287eu, 0x55e540d3u, 0xd57a41d4u, 0x84412d9au},
    {"rijndael", Plan::Loop, Geometry::OutOfOrder, 0x049e6fe2u, 0xcbc26554u, 0x0ca0c66bu, 0x01cb497bu},
    {"rijndael", Plan::Burst, Geometry::OutOfOrder, 0xb116c905u, 0x64829265u, 0x70286bd2u, 0x1f0afaf9u},
    {"stringsearch", Plan::Clean, Geometry::InOrder, 0x1f36d597u, 0xc1af4a86u, 0xa601a859u, 0x21534c22u},
    {"stringsearch", Plan::Loop, Geometry::InOrder, 0x2fcdd6c7u, 0xf793ccdeu, 0x5425a1cfu, 0x8db43555u},
    {"stringsearch", Plan::Burst, Geometry::InOrder, 0x130f46ecu, 0xd3776d3fu, 0x8ef91477u, 0x0a50fa18u},
    {"stringsearch", Plan::Clean, Geometry::OutOfOrder, 0xc7845d02u, 0x9e0846b9u, 0x3823baeau, 0x232b9a3du},
    {"stringsearch", Plan::Loop, Geometry::OutOfOrder, 0x817d0ac7u, 0xf808f4cau, 0xf9dbee4au, 0xa5870987u},
    {"stringsearch", Plan::Burst, Geometry::OutOfOrder, 0x4fb82df2u, 0x548e1120u, 0x62837919u, 0x1bdee118u},
    {"sha", Plan::Clean, Geometry::InOrderW4S7, 0xa0a046a8u, 0x2da203e3u, 0x65faad1fu, 0xc25658abu},
    {"sha", Plan::Loop, Geometry::InOrderW4S7, 0xad2a2031u, 0xc3d1b993u, 0x1f98b003u, 0xdc4081c8u},
    {"sha", Plan::Burst, Geometry::InOrderW4S7, 0xb33625acu, 0xb14e957fu, 0x23ddc114u, 0xf732b34bu},
    {"sha", Plan::Clean, Geometry::OutOfOrderS20, 0xb305f743u, 0xcda61e21u, 0x4b43dce9u, 0xea696943u},
    {"sha", Plan::Loop, Geometry::OutOfOrderS20, 0xf6a3029bu, 0xe9375559u, 0x34e02fceu, 0x71392f13u},
    {"sha", Plan::Burst, Geometry::OutOfOrderS20, 0xd90829d0u, 0x8a7272b6u, 0xfd078309u, 0x27f9b958u},
    {"dijkstra", Plan::Clean, Geometry::InOrderW4S7, 0x7f1fc6bdu, 0x9e532615u, 0xf2449248u, 0x1ce630c7u},
    {"dijkstra", Plan::Loop, Geometry::InOrderW4S7, 0x5a89f035u, 0x095d2e94u, 0x4eab3fe0u, 0x2c0b412fu},
    {"dijkstra", Plan::Burst, Geometry::InOrderW4S7, 0xff2cf8c0u, 0xa30c5abau, 0xb943154fu, 0x3b900e63u},
    {"dijkstra", Plan::Clean, Geometry::OutOfOrderS20, 0xb080beddu, 0xda4e071eu, 0x6829b850u, 0x564630c3u},
    {"dijkstra", Plan::Loop, Geometry::OutOfOrderS20, 0x2692fb8cu, 0x7d86fde7u, 0x4f91056cu, 0xd674046cu},
    {"dijkstra", Plan::Burst, Geometry::OutOfOrderS20, 0x556dba38u, 0x343f34ebu, 0x28a661b9u, 0x2ceda3d8u},
};

TEST(TraceFingerprintTest, MatchesRecordedCrcs)
{
    std::string fresh;
    bool all_match = true;
    for (const Fingerprint &want : kExpected) {
        const Fingerprint got =
            fingerprint(want.workload, want.plan, want.geometry);
        const bool match = got.power == want.power &&
                           got.region == want.region &&
                           got.injected == want.injected &&
                           got.stats == want.stats;
        EXPECT_TRUE(match) << "trace fingerprint differs:\n"
                           << "  want " << row(want) << "\n"
                           << "  got  " << row(got);
        all_match = all_match && match;
        fresh += row(got) + "\n";
    }
    if (!all_match)
        std::printf("current table:\n%s", fresh.c_str());
}

TEST(TraceFingerprintTest, CoversEveryWorkloadPlanAndCore)
{
    for (const std::string &name : workloads::workloadNames())
        for (Plan p : {Plan::Clean, Plan::Loop, Plan::Burst})
            for (Geometry g : {Geometry::InOrder, Geometry::OutOfOrder}) {
                bool found = false;
                for (const Fingerprint &f : kExpected)
                    found = found || (f.workload == name && f.plan == p &&
                                      f.geometry == g);
                EXPECT_TRUE(found) << "no fingerprint for " << name
                                   << " plan " << int(p) << " geometry "
                                   << int(g);
            }
}

} // namespace
