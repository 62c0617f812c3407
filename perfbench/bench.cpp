#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/crc32.h"
#include "common/thread_pool.h"
#include "em/emanation.h"
#include "sig/stft.h"

#ifndef EDDIE_BENCH_BUILD_TYPE
#define EDDIE_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

using namespace eddie;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

namespace
{

double
cpuSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out.push_back(c);
    }
    return out;
}

} // namespace

double
processCpuSeconds()
{
    return cpuSeconds(RUSAGE_SELF);
}

double
threadCpuSeconds()
{
    return cpuSeconds(RUSAGE_THREAD);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string
readLoadavg()
{
    std::ifstream in("/proc/loadavg");
    std::string line;
    std::getline(in, line);
    return line;
}

double
readStealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    // cpu user nice system idle iowait irq softirq steal
    std::uint64_t field[8] = {};
    in >> cpu;
    for (auto &f : field)
        in >> f;
    const long ticks = sysconf(_SC_CLK_TCK);
    return in && ticks > 0 ? double(field[7]) / double(ticks) : 0.0;
}

std::string
hostJson(std::size_t threads_used, const std::string &loadavg_start,
         const std::string &loadavg_end, double steal_s)
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": \"" << jsonEscape(EDDIE_BENCH_BUILD_TYPE)
       << "\", \"compiler\": \"" << jsonEscape(__VERSION__)
       << "\", \"threads\": " << threads_used
       << ", \"loadavg_start\": \"" << jsonEscape(loadavg_start)
       << "\", \"loadavg_end\": \"" << jsonEscape(loadavg_end)
       << "\", \"steal_s\": " << steal_s << "}";
    return os.str();
}

std::uint32_t
verdictCrc(const std::vector<core::StepRecord> &records,
           const std::vector<core::AnomalyReport> &reports)
{
    // Field by field, so struct padding never reaches the checksum.
    std::string bytes;
    bytes.reserve(records.size() * 9 + reports.size() * 24);
    const auto u64 = [&](std::uint64_t v) {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    };
    for (const auto &r : records) {
        u64(r.region);
        bytes.push_back(char((r.tested ? 1 : 0) | (r.rejected ? 2 : 0) |
                             (r.reported ? 4 : 0) |
                             (r.transitioned ? 8 : 0) |
                             (r.degraded ? 16 : 0)));
    }
    for (const auto &r : reports) {
        u64(r.step);
        std::uint64_t t = 0;
        static_assert(sizeof t == sizeof r.time);
        std::memcpy(&t, &r.time, sizeof t);
        u64(t);
        u64(r.region);
    }
    return common::crc32(bytes);
}

Tracer::Scope::Scope(Tracer *tracer, std::string name, int parent)
    : tracer_(tracer)
{
    if (tracer_ != nullptr)
        id_ = tracer_->begin(std::move(name), parent);
}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->end(id_);
}

namespace
{
/** Open scopes of this thread, innermost last. */
thread_local std::vector<int> t_open;
} // namespace

int
Tracer::begin(std::string name, int parent)
{
    Span s;
    s.name = std::move(name);
    s.parent = parent == Scope::kInnermost
                   ? (t_open.empty() ? -1 : t_open.back())
                   : parent;
    const std::uint64_t key =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = tids_.emplace(key, int(tids_.size()) + 1).first;
        s.tid = it->second;
        s.pass = pass_;
        s.id = int(spans_.size());
        s.start_ns = nowNs();
        spans_.push_back(s);
    }
    t_open.push_back(s.id);
    return s.id;
}

void
Tracer::end(int id)
{
    const std::int64_t t = nowNs();
    if (!t_open.empty() && t_open.back() == id)
        t_open.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[std::size_t(id)].end_ns = t;
}

std::vector<Span>
Tracer::spansOf(int pass) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto &s : spans_)
        if (s.pass == pass)
            out.push_back(s);
    return out;
}

void
Tracer::writeChrome(const std::string &path,
                    const std::string &host_json) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace " + path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"host\": "
       << host_json << "},\n\"traceEvents\": [\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                      "\"ts\": %.3f, \"dur\": %.3f, ",
                      s.tid, double(s.start_ns - t0) / 1e3,
                      double(s.end_ns - s.start_ns) / 1e3);
        os << "{\"name\": \"" << jsonEscape(s.name) << "\", " << buf
           << "\"args\": {\"id\": " << s.id << ", \"parent\": "
           << s.parent << ", \"pass\": " << s.pass << "}}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
}

std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::map<int, std::int64_t> child_ns;
    for (const auto &s : spans)
        if (s.parent >= 0)
            child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (const auto &s : spans) {
        const auto it = child_ns.find(s.id);
        const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
        out[s.name] += double(s.end_ns - s.start_ns - covered) / 1e9;
    }
    return out;
}

void
PassResult::checkLedger(double coverage_pct, const char *whole)
{
    values["bench.ledger_coverage_pct"] = coverage_pct;
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "ledger coverage %.1f%% < 90%% (%.1f%% of the %s "
                  "uncovered)",
                  coverage_pct, 100.0 - coverage_pct, whole);
    check(coverage_pct >= 90.0, msg);
}

void
PassResult::merge(const PassResult &other)
{
    attempted += other.attempted;
    failed += other.failed;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

void
PassResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        errors.push_back(what);
    }
}

core::PipelineConfig
emConfig(std::size_t train_runs, std::uint64_t train_seed_base)
{
    core::PipelineConfig cfg;
    cfg.path = core::SignalPath::EmBaseband;
    cfg.channel.snr_db = 30.0;
    cfg.channel.interferers.push_back({3.7e6, 0.05});
    cfg.channel.interferers.push_back({-6.2e6, 0.03});
    cfg.core.os_irq_rate_hz = 1000.0;
    cfg.train_runs = train_runs;
    cfg.train_seed_base = train_seed_base;
    // Single-threaded by design: on a shared host, multi-threaded
    // wall times do not repeat from run to run.
    cfg.threads = 1;
    return cfg;
}

std::vector<core::Sts>
tracedCapture(const core::Pipeline &pipe, std::uint64_t seed,
              const cpu::InjectionPlan &plan, Tracer *tracer,
              ChainStats &stats)
{
    const auto &cfg = pipe.config();
    const auto &wl = pipe.workload();
    if (cfg.path != core::SignalPath::EmBaseband ||
        cfg.channel.faults.enabled)
        throw std::logic_error("tracedCapture: EM path without faults "
                               "only");
    cpu::RunResult rr;
    {
        Tracer::Scope span(tracer, "cpu.simulate");
        cpu::Core core(cfg.core, cfg.energy);
        rr = core.run(wl.program, wl.regions, wl.make_input(seed), plan,
                      seed);
    }
    stats.instructions += rr.stats.instructions;
    stats.cycles += rr.stats.cycles;
    stats.l1_hits += rr.stats.l1_hits;
    stats.l1_misses += rr.stats.l1_misses;
    stats.power_samples += rr.power.size();

    // Same channel seed as Pipeline::toSts.
    const std::uint64_t chan_seed =
        0x9e3779b97f4a7c15ULL ^ rr.stats.cycles;
    std::vector<sig::Complex> iq;
    {
        Tracer::Scope span(tracer, "em.emanate");
        std::vector<faults::FaultEpisode> episodes;
        iq = em::emanateBaseband(rr.power, rr.sample_rate, cfg.channel,
                                 chan_seed, nullptr, &episodes);
    }
    sig::Spectrogram sg;
    {
        Tracer::Scope span(tracer, "sig.stft");
        sig::StftConfig sc;
        sc.window_size = cfg.stft_window;
        sc.hop = cfg.stft_hop;
        sc.window = cfg.stft_window_fn;
        sc.sample_rate = rr.sample_rate;
        const sig::Stft stft(sc);
        sg = stft.analyze(iq);
    }
    stats.frames += sg.numFrames();
    std::vector<core::Sts> stream;
    {
        Tracer::Scope span(tracer, "core.sts_extract");
        stream = core::extractStsStream(sg, &rr, wl.regions.regions.size(),
                                        cfg.features);
    }
    const double sentinel = core::missingPeakSentinel(sg.sample_rate);
    stats.windows += stream.size();
    for (const auto &sts : stream)
        for (double f : sts.peak_freqs)
            stats.peaks += f != sentinel ? 1 : 0;
    return stream;
}

core::TrainedModel
tracedTrain(const core::Pipeline &pipe, Tracer *tracer, ChainStats &stats)
{
    const auto &cfg = pipe.config();
    std::vector<std::vector<core::Sts>> runs;
    runs.reserve(cfg.train_runs);
    for (std::size_t i = 0; i < cfg.train_runs; ++i)
        runs.push_back(tracedCapture(pipe, cfg.train_seed_base + i,
                                     cpu::InjectionPlan(), tracer, stats));
    Tracer::Scope span(tracer, "core.train");
    common::ThreadPool pool(
        common::ThreadPool::resolveThreads(cfg.threads));
    const double sentinel = core::missingPeakSentinel(
        cfg.core.clock_hz / double(cfg.core.cycles_per_sample));
    return core::train(runs, pipe.workload().regions, sentinel,
                       cfg.trainer, nullptr, &pool);
}

void
chainLayerValues(const ChainStats &stats,
                 const std::map<std::string, double> &self,
                 std::map<std::string, double> &values)
{
    const auto get = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const double sim = get("cpu.simulate");
    const double ema = get("em.emanate");
    values["cpu.simulate_s"] = sim;
    values["cpu.minstr_per_s"] =
        sim > 0.0 ? double(stats.instructions) / sim / 1e6 : 0.0;
    values["cpu.instructions"] = double(stats.instructions);
    values["cpu.cycles"] = double(stats.cycles);
    const std::uint64_t l1 = stats.l1_hits + stats.l1_misses;
    values["cpu.l1_miss_pct"] =
        l1 > 0 ? 100.0 * double(stats.l1_misses) / double(l1) : 0.0;
    values["em.emanate_s"] = ema;
    values["em.msamples_per_s"] =
        ema > 0.0 ? double(stats.power_samples) / ema / 1e6 : 0.0;
    values["sig.stft_s"] = get("sig.stft");
    values["sig.frames"] = double(stats.frames);
    values["core.sts_extract_s"] = get("core.sts_extract");
    values["core.peaks_per_window"] =
        stats.windows > 0 ? double(stats.peaks) / double(stats.windows)
                          : 0.0;
    values["core.train_s"] = get("core.train");
}

} // namespace perfbench
