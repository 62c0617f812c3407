/**
 * @file
 * offline-em: the paper's Table 1 experiment as a closed-loop batch.
 * Each pass trains an EM-path model for two programs of different
 * character (sha: regular ALU rounds; dijkstra: memory scans with
 * data-dependent branches) and monitors a fixed set of runs against
 * each model: half clean, a quarter loop-injected, a quarter
 * burst-injected. Every capture is cold (no capture cache), so the
 * cycle simulator dominates; no wire or serving code runs.
 */


#include "bench.h"
#include "core/metrics.h"
#include "inject/scenarios.h"

namespace perfbench
{

using namespace eddie;

namespace
{

struct Sizes
{
    double scale;
    std::size_t train_runs;
    std::size_t clean_runs;
    std::size_t loop_runs;
    std::size_t burst_runs;
};

constexpr Sizes kFull{0.5, 8, 4, 2, 2};
constexpr Sizes kSmoke{0.2, 3, 2, 1, 1};

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

struct Program
{
    std::unique_ptr<core::Pipeline> pipe;
    std::vector<std::uint64_t> seeds;
    std::vector<cpu::InjectionPlan> plans;
    /** Outputs of the first untraced pass; every later pass, traced
     *  or not, must reproduce them bit for bit. */
    core::TrainedModel model;
    std::string model_bytes;
    std::vector<std::uint32_t> crcs;
};

class OfflineEm : public Workload
{
  public:
    explicit OfflineEm(const Options &opt)
        : opt_(opt), sizes_(opt.smoke ? kSmoke : kFull)
    {
    }

    std::size_t threads() const override { return 1; }
    // A set-up takes about 0.1 s, so its time is mostly noise unless
    // it is repeated.
    int setupReps() const override { return 9; }

    PassResult setup(Tracer *) override
    {
        programs_.clear();
        const std::uint64_t mix = splitmix(opt_.seed);
        const char *names[] = {"sha", "dijkstra"};
        for (std::size_t k = 0; k < 2; ++k) {
            const std::uint64_t base =
                1000 + (mix % 1000000) * 1000 + k * 500;
            auto wl = workloads::makeWorkload(names[k], sizes_.scale);
            const std::size_t target = inject::defaultTargetLoop(wl);
            Program p;
            p.pipe = std::make_unique<core::Pipeline>(
                std::move(wl), emConfig(sizes_.train_runs, base));
            const std::size_t runs = sizes_.clean_runs +
                                     sizes_.loop_runs + sizes_.burst_runs;
            for (std::size_t i = 0; i < runs; ++i) {
                const std::uint64_t seed = base + 100 + i;
                p.seeds.push_back(seed);
                if (i < sizes_.clean_runs)
                    p.plans.emplace_back();
                else if (i < sizes_.clean_runs + sizes_.loop_runs)
                    p.plans.push_back(
                        inject::canonicalLoopInjection(target, 1.0, seed));
                else
                    p.plans.push_back(inject::shellBurst(
                        p.pipe->workload(), target, 1, seed));
            }
            programs_.push_back(std::move(p));
        }
        // Warm-up capture: FFT plan tables and allocator arenas.
        programs_[0].pipe->captureRun(programs_[0].seeds[0] + 50);
        return {};
    }

    PassResult pass(Tracer *tracer) override
    {
        return tracer == nullptr ? plainPass() : tracedPass(*tracer);
    }

    PassResult finish() override
    {
        // The single-run path the passes time (eddie_monitor's) must
        // agree with the batch engine, which reuses one Monitor across
        // runs.
        PassResult r;
        for (auto &p : programs_) {
            const auto evs = p.pipe->monitorBatch(p.model, p.seeds, p.plans);
            for (std::size_t i = 0; i < p.seeds.size(); ++i)
                r.check(i < evs.size() &&
                            verdictCrc(evs[i].records, evs[i].reports) ==
                                p.crcs[i],
                        p.pipe->workload().name + " run " +
                            std::to_string(i) +
                            ": monitorRun verdict differs from "
                            "monitorBatch");
        }
        return r;
    }

  private:
    /** Compares a pass's outputs with the first pass's (or records
     *  them, on the first pass). */
    void checkOutputs(PassResult &r, std::size_t k,
                      const core::TrainedModel &model,
                      const std::vector<std::uint32_t> &crcs,
                      const char *path)
    {
        Program &p = programs_[k];
        const std::string &name = p.pipe->workload().name;
        std::string bytes = core::encodeModelBinary(model);
        if (p.model_bytes.empty()) {
            p.model = model;
            p.model_bytes = std::move(bytes);
            p.crcs = crcs;
            return;
        }
        r.check(bytes == p.model_bytes,
                name + ": " + path + " model bytes differ");
        for (std::size_t i = 0; i < crcs.size(); ++i)
            r.check(crcs[i] == p.crcs[i],
                    name + " run " + std::to_string(i) + ": " + path +
                        " verdict CRC differs");
    }

    PassResult plainPass()
    {
        PassResult r;
        std::vector<core::TrainedModel> models;
        const auto t0 = Clock::now();
        for (auto &p : programs_)
            models.push_back(p.pipe->trainModel());
        const double train_s = secondsSince(t0);

        const double cpu0 = processCpuSeconds();
        const auto tm = Clock::now();
        std::vector<double> run_ms;
        std::vector<std::vector<std::uint32_t>> crcs(programs_.size());
        std::size_t windows = 0;
        for (std::size_t k = 0; k < programs_.size(); ++k) {
            const Program &p = programs_[k];
            for (std::size_t i = 0; i < p.seeds.size(); ++i) {
                const auto tr = Clock::now();
                const auto ev =
                    p.pipe->monitorRun(models[k], p.seeds[i], p.plans[i]);
                run_ms.push_back(1e3 * secondsSince(tr));
                windows += ev.records.size();
                crcs[k].push_back(verdictCrc(ev.records, ev.reports));
            }
        }
        const double monitor_s = secondsSince(tm);
        const double cpu_s = processCpuSeconds() - cpu0;
        r.wall_s = secondsSince(t0);

        r.values["train_s"] = train_s;
        r.values["detect_runs_per_s"] = double(run_ms.size()) / monitor_s;
        r.values["serve_sts_per_s"] = double(windows) / monitor_s;
        r.values["lag_p50_ms"] = quantile(run_ms, 0.50);
        r.values["lag_p99_ms"] = quantile(run_ms, 0.99);
        r.values["cpu_us_per_sts"] = 1e6 * cpu_s / double(windows);
        for (std::size_t k = 0; k < programs_.size(); ++k)
            checkOutputs(r, k, models[k], crcs[k], "untraced pass");
        return r;
    }

    PassResult tracedPass(Tracer &tracer)
    {
        PassResult r;
        ChainStats chain;
        std::vector<core::TrainedModel> models;
        std::vector<std::vector<std::uint32_t>> crcs(programs_.size());
        std::vector<core::RunMetrics> quality;
        std::size_t windows = 0, tested = 0, trained = 0;
        const auto t0 = Clock::now();
        {
            Tracer::Scope pass_span(&tracer, "offline.pass");
            for (std::size_t k = 0; k < programs_.size(); ++k) {
                const Program &p = programs_[k];
                const auto &cfg = p.pipe->config();
                {
                    Tracer::Scope span(&tracer, "offline.train." +
                                                    p.pipe->workload().name);
                    models.push_back(tracedTrain(*p.pipe, &tracer, chain));
                }
                const core::TrainedModel &model = models.back();
                for (std::size_t i = 0; i < p.seeds.size(); ++i) {
                    Tracer::Scope run_span(&tracer, "offline.run");
                    const auto stream = tracedCapture(
                        *p.pipe, p.seeds[i], p.plans[i], &tracer, chain);
                    std::vector<core::StepRecord> records;
                    std::vector<core::AnomalyReport> reports;
                    {
                        Tracer::Scope span(&tracer, "core.monitor");
                        core::Monitor monitor(model, cfg.monitor);
                        for (const auto &sts : stream)
                            monitor.step(sts);
                        records = monitor.records();
                        reports = monitor.reports();
                    }
                    {
                        Tracer::Scope span(&tracer, "core.score");
                        quality.push_back(
                            core::scoreRun(stream, records, reports, model));
                    }
                    crcs[k].push_back(verdictCrc(records, reports));
                    windows += records.size();
                    for (const auto &rec : records)
                        tested += rec.tested ? 1 : 0;
                }
            }
        }
        r.wall_s = secondsSince(t0);

        for (std::size_t k = 0; k < programs_.size(); ++k) {
            checkOutputs(r, k, models[k], crcs[k],
                         "traced chain (vs Pipeline)");
            for (const auto &region : models[k].regions)
                trained += region.trained ? 1 : 0;
        }

        const auto self = selfSeconds(tracer.spansOf(tracer.pass()));
        chainLayerValues(chain, self, r.values);
        const auto get = [&](const char *name) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0 : it->second;
        };
        r.values["core.regions_trained"] = double(trained);
        r.values["core.score_s"] = get("core.score");
        r.values["core.monitor_us_per_sts"] =
            1e6 * get("core.monitor") / double(windows);
        r.values["core.tested_pct"] =
            100.0 * double(tested) / double(windows);
        const auto agg = core::aggregate(quality);
        r.values["core.tpr_pct"] = agg.true_positive_pct;
        r.values["core.fp_pct"] = agg.false_positive_pct;
        r.values["core.coverage_pct"] = agg.coverage_pct;
        r.values["core.sim_latency_ms"] =
            agg.detection_latency_ms < 0.0 ? 0.0 : agg.detection_latency_ms;

        double layers = 0.0;
        for (const char *name :
             {"cpu.simulate", "em.emanate", "sig.stft", "core.sts_extract",
              "core.train", "core.monitor", "core.score"})
            layers += get(name);
        r.checkLedger(100.0 * layers / r.wall_s, "traced pass");
        return r;
    }

    Options opt_;
    Sizes sizes_;
    std::vector<Program> programs_;
};

} // namespace

std::unique_ptr<Workload>
makeOfflineEm(const Options &opt)
{
    return std::make_unique<OfflineEm>(opt);
}

} // namespace perfbench
