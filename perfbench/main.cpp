/**
 * @file
 * eddie_perfbench — the EDDIE benchmark, one process per run.
 *
 *   eddie_perfbench --workload offline-em|serve-wire|serve-paced
 *                   --seed N --seconds S --trace 0|1
 *                   [--out-dir DIR] [--smoke]
 *
 * Sets the workload up several times (set-up time is the median),
 * then runs fixed-work passes until S seconds have passed. With
 * --trace 0 it reports the end-to-end metrics, medians over untraced
 * passes. With --trace 1 it alternates untraced and traced passes,
 * reports the per-layer metrics of the traced ones, and writes their
 * spans to DIR/trace-<workload>-seed<N>.json.
 *
 * The last line of standard output is the result:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * The line before it is the full report: host record, every metric
 * with unit, direction and quartiles over passes, and any errors.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace
{

using namespace perfbench;

constexpr double kWarmupSeconds = 3.0;

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
};

/** Reported by every workload with --trace 0. Never 0. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"train_s", "s", "lower"},
    {"detect_runs_per_s", "1/s", "higher"},
    {"serve_sts_per_s", "1/s", "higher"},
    {"lag_p50_ms", "ms", "lower"},
};

/** Reported by every workload with --trace 1, from the traced passes
 *  where they measure it; 0 where the workload does not exercise the
 *  layer. */
const MetricDef kPerLayer[] = {
    {"cpu.simulate_s", "s", "lower"},
    {"cpu.minstr_per_s", "Minstr/s", "higher"},
    {"cpu.instructions", "count", "lower"},
    {"cpu.cycles", "count", "lower"},
    {"cpu.l1_miss_pct", "%", "lower"},
    {"em.emanate_s", "s", "lower"},
    {"em.msamples_per_s", "MS/s", "higher"},
    {"sig.stft_s", "s", "lower"},
    {"sig.frames", "count", "lower"},
    {"core.sts_extract_s", "s", "lower"},
    {"core.peaks_per_window", "count", "higher"},
    {"core.train_s", "s", "lower"},
    {"core.regions_trained", "count", "higher"},
    {"core.score_s", "s", "lower"},
    {"core.monitor_us_per_sts", "us", "lower"},
    {"core.tested_pct", "%", "higher"},
    {"core.tpr_pct", "%", "higher"},
    {"core.fp_pct", "%", "lower"},
    {"core.coverage_pct", "%", "higher"},
    {"core.sim_latency_ms", "ms", "lower"},
    {"wire.encode_us_per_batch", "us", "lower"},
    {"wire.decode_us_per_batch", "us", "lower"},
    {"wire.bytes_per_sts", "B", "lower"},
    {"wire.batches", "count", "lower"},
    {"wire.acks", "count", "lower"},
    {"wire.errors", "count", "lower"},
    {"wire.vs_inproc", "x", "higher"},
    {"serve.queue_wait_ms", "ms", "lower"},
    {"serve.step_ms", "ms", "lower"},
    {"serve.checkpoint_ms", "ms", "lower"},
    {"serve.blocked_pushes", "count", "lower"},
    {"serve.spurious_wakeups", "count", "lower"},
    {"serve.checkpoints_written", "count", "lower"},
    {"serve.group_commits", "count", "lower"},
    {"serve.delta_bytes_per_cut", "B", "lower"},
    // End-to-end numbers whose run-to-run spread on a shared host
    // exceeds any regression bound: reported, not gated.
    {"lag_p99_ms", "ms", "lower"},
    {"cpu_us_per_sts", "us", "lower"},
    {"lag.batch_wait_ms", "ms", "lower"},
    {"lag.transit_queue_ms", "ms", "lower"},
    {"store.delta_commit_us", "us", "lower"},
    {"bench.late_p99_ms", "ms", "lower"},
    {"bench.trace_overhead_pct", "%", "lower"},
    {"bench.ledger_coverage_pct", "%", "higher"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "eddie_perfbench: %s\nusage: eddie_perfbench --workload "
                 "offline-em|serve-wire|serve-paced --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--smoke]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage(flag + ": not a non-negative integer: " + text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned(flag, value);
            have[1] = true;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUnsigned(flag, value);
            if (s < 1 || s > 600)
                usage("--seconds must be 1..600");
            opt.seconds = double(s);
            have[2] = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            opt.trace = value == "1";
            have[3] = true;
        } else if (flag == "--out-dir") {
            opt.out_dir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds and --trace are required");
    return opt;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::vector<double>
valuesOf(const std::vector<PassResult> &runs, const std::string &name)
{
    std::vector<double> out;
    for (const auto &r : runs) {
        const auto it = r.values.find(name);
        if (it != r.values.end())
            out.push_back(it->second);
    }
    return out;
}

std::vector<double>
wallsOf(const std::vector<PassResult> &runs)
{
    std::vector<double> out;
    for (const auto &r : runs)
        out.push_back(r.wall_s);
    return out;
}

int
run(const Options &opt)
{
    const std::string load_start = readLoadavg();
    const double steal_start = readStealSeconds();
    std::unique_ptr<Workload> wl;
    if (opt.workload == "offline-em")
        wl = makeOfflineEm(opt);
    else if (opt.workload == "serve-wire")
        wl = makeServe(opt, false);
    else if (opt.workload == "serve-paced")
        wl = makeServe(opt, true);
    else
        usage("unknown workload " + opt.workload);

    Tracer tracer;
    Tracer *traced = opt.trace ? &tracer : nullptr;
    PassResult checks;

    // Set-up, several times: the median is the set-up time, and the
    // last set-up's state is what the passes use. With tracing, the
    // last set-up is the traced one.
    const int setup_reps = opt.smoke ? 1 : wl->setupReps();
    std::vector<double> setup_s;
    std::vector<PassResult> setups;
    for (int rep = 0; rep < setup_reps; ++rep) {
        const bool trace_this = traced != nullptr && rep + 1 == setup_reps;
        tracer.setPass(0);
        const auto t0 = Clock::now();
        setups.push_back(wl->setup(trace_this ? traced : nullptr));
        setup_s.push_back(secondsSince(t0));
        checks.merge(setups.back());
    }
    // Warm-up passes, checked but not reported: the first few serving
    // sessions of a process run slower than the rest.
    const auto warm = Clock::now();
    do
        checks.merge(wl->pass(nullptr));
    while (!opt.smoke && secondsSince(warm) < kWarmupSeconds);

    std::vector<PassResult> plain, spans;
    const auto start = Clock::now();
    for (int pass = 1;; ++pass) {
        plain.push_back(wl->pass(nullptr));
        checks.merge(plain.back());
        if (traced != nullptr) {
            tracer.setPass(pass);
            spans.push_back(wl->pass(traced));
            checks.merge(spans.back());
        }
        if (opt.smoke || secondsSince(start) >= opt.seconds)
            break;
    }
    checks.merge(wl->finish());

    std::ostringstream metrics, report;
    bool first = true;
    const auto emit = [&](const MetricDef &def,
                          const std::vector<double> &samples) {
        double value = samples.empty() ? 0.0 : median(samples);
        if (!std::isfinite(value)) {
            checks.check(false, std::string(def.name) + " is not finite");
            value = 0.0;
        }
        const char *sep = first ? "" : ", ";
        first = false;
        metrics << sep << "\"" << def.name << "\": {\"value\": "
                << number(value) << ", \"unit\": \"" << def.unit << "\"}";
        report << sep << "\"" << def.name << "\": {\"value\": "
               << number(value) << ", \"unit\": \"" << def.unit
               << "\", \"better\": \"" << def.better
               << "\", \"n\": " << samples.size() << ", \"p25\": "
               << number(quantile(samples, 0.25)) << ", \"p75\": "
               << number(quantile(samples, 0.75)) << ", \"samples\": [";
        for (std::size_t i = 0; i < samples.size(); ++i)
            report << (i ? ", " : "") << number(samples[i]);
        report << "]}";
    };
    if (traced == nullptr) {
        for (const auto &def : kEndToEnd) {
            std::vector<double> samples;
            if (std::strcmp(def.name, "setup_s") == 0)
                samples = setup_s;
            else if (std::strcmp(def.name, "peak_rss_mb") == 0)
                samples = {peakRssMb()};
            else
                samples = valuesOf(plain, def.name);
            if (samples.empty()) // measured during set-up only
                samples = valuesOf(setups, def.name);
            // A pass whose checks failed may stop before measuring.
            if (samples.empty() && checks.failed == 0)
                throw std::logic_error(std::string("no value for ") +
                                       def.name);
            emit(def, samples);
        }
    } else {
        const double plain_wall = median(wallsOf(plain));
        for (const auto &def : kPerLayer) {
            std::vector<double> samples;
            if (std::strcmp(def.name, "bench.trace_overhead_pct") == 0) {
                for (double w : wallsOf(spans))
                    samples.push_back(100.0 * (w - plain_wall) / plain_wall);
            } else {
                samples = valuesOf(spans, def.name);
                if (samples.empty()) // measured by untraced passes only
                    samples = valuesOf(plain, def.name);
                if (samples.empty()) // measured during set-up only
                    samples = valuesOf({setups.back()}, def.name);
            }
            emit(def, samples);
        }
    }

    const std::string host =
        hostJson(wl->threads(), load_start, readLoadavg(),
                 readStealSeconds() - steal_start);
    if (traced != nullptr) {
        const std::string path = opt.out_dir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".json";
        tracer.writeChrome(path, host);
        std::fprintf(stderr, "eddie_perfbench: trace written to %s\n",
                     path.c_str());
    }
    for (const auto &e : checks.errors)
        std::fprintf(stderr, "eddie_perfbench: check failed: %s\n",
                     e.c_str());

    std::ostringstream errors;
    for (std::size_t i = 0; i < checks.errors.size(); ++i) {
        errors << (i ? ", " : "") << "\"";
        for (char c : checks.errors[i])
            if (c != '"' && c != '\\')
                errors << c;
        errors << "\"";
    }
    const bool correct = checks.failed == 0;
    std::printf("{\"report\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"smoke\": %s, \"setup_reps\": %d, "
                "\"passes\": %zu, \"host\": %s, \"metrics\": {%s}, "
                "\"errors\": [%s]}}\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.trace ? 1 : 0, opt.smoke ? "true" : "false", setup_reps,
                plain.size(), host.c_str(), report.str().c_str(),
                errors.str().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                (unsigned long long)checks.attempted,
                (unsigned long long)checks.failed, metrics.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Options opt = parseArgs(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "eddie_perfbench: error: %s\n", e.what());
        return 2;
    }
}
