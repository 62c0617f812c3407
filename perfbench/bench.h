/**
 * @file
 * Shared pieces of the EDDIE benchmark: the clock, the span tracer
 * that times calls into each layer from the benchmark's own code, the
 * per-pass result every workload returns, and small statistics and
 * host helpers.
 */

#ifndef EDDIE_PERFBENCH_BENCH_H
#define EDDIE_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/monitor.h"
#include "core/pipeline.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
/** Monotonic nanoseconds (steady_clock epoch). */
std::int64_t nowNs();

double median(std::vector<double> v);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/** User + system CPU seconds of the whole process / the calling
 *  thread. */
double processCpuSeconds();
double threadCpuSeconds();
/** Peak resident set size of the process, MiB. */
double peakRssMb();

/** nproc, build type, compiler, /proc/loadavg and the CPU time the
 *  hypervisor stole during the run, as a JSON object. */
std::string hostJson(std::size_t threads_used,
                     const std::string &loadavg_start,
                     const std::string &loadavg_end, double steal_s);
std::string readLoadavg();
/** Steal time of all CPUs since boot, seconds (/proc/stat). */
double readStealSeconds();

/** CRC32 of a run's verdict: every step record and anomaly report. */
std::uint32_t verdictCrc(const std::vector<eddie::core::StepRecord> &records,
                         const std::vector<eddie::core::AnomalyReport>
                             &reports);

/** One span of the trace: the Chrome trace-event fields we emit. */
struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;
    int tid = 0;
    /** Pass the span belongs to; spans of one pass share it. */
    int pass = 0;
};

/**
 * Records spans in memory and writes them out at the end as Chrome
 * trace-event JSON (open in Perfetto or chrome://tracing). A Scope
 * opened with no explicit parent nests under the innermost open
 * scope of its thread.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        /** Parent argument meaning "the innermost open scope of this
         *  thread". */
        static constexpr int kInnermost = -2;

        /** A null tracer makes the scope a no-op. */
        Scope(Tracer *tracer, std::string name, int parent = kInnermost);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        int id() const { return id_; }

      private:
        Tracer *tracer_;
        int id_ = -1;
    };

    void setPass(int pass) { pass_ = pass; }
    int pass() const { return pass_; }

    /** Spans of @p pass (copy, safe while other threads record). */
    std::vector<Span> spansOf(int pass) const;

    void writeChrome(const std::string &path,
                     const std::string &host_json) const;

  private:
    int begin(std::string name, int parent);
    void end(int id);

    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::uint64_t, int> tids_;
    int pass_ = 0;
};

/**
 * Self time per span name over @p spans: a span's duration minus the
 * part its direct children cover. Children of one span must not
 * overlap, which holds for spans recorded on one thread.
 */
std::map<std::string, double> selfSeconds(const std::vector<Span> &spans);

/** What one fixed-work pass measured and checked. */
struct PassResult
{
    /** Wall time of the pass's timed span. */
    double wall_s = 0.0;
    /** Metric values measured in this pass, by metric name. */
    std::map<std::string, double> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void check(bool ok, const std::string &what);
    /** Records bench.ledger_coverage_pct: the share of @p whole's
     *  wall time the layer ledger explains. Fails below 90%. */
    void checkLedger(double coverage_pct, const char *whole);
    /** Adds @p other's checks to this result's. */
    void merge(const PassResult &other);
};

/** Options every workload sees. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny fixed work for the schema test: one pass, small inputs. */
    bool smoke = false;
    /** Directory for the trace file and scratch state (inside the
     *  checkout). */
    std::string out_dir = ".";
};

/**
 * A workload: set-up (repeated; the last set-up's state is used),
 * then fixed-work passes. pass(nullptr) is an untraced end-to-end
 * pass; pass(&tracer) is a traced pass that also reports per-layer
 * metrics.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** One full set-up. Values it measures (for example train_s on a
     *  serving workload) and checks go into the result; its wall
     *  time is timed by the caller. */
    virtual PassResult setup(Tracer *tracer) = 0;
    virtual PassResult pass(Tracer *tracer) = 0;
    /** Checks made once after the timed passes. */
    virtual PassResult finish() { return {}; }
    /** Worker threads the workload's timed code uses. */
    virtual std::size_t threads() const = 0;
    /** Set-ups per run; setup_s is their median. */
    virtual int setupReps() const = 0;
};

std::unique_ptr<Workload> makeOfflineEm(const Options &opt);
std::unique_ptr<Workload> makeServe(const Options &opt, bool paced);

/** The EM-path pipeline configuration both kinds of workload use:
 *  Table 1's IoT channel (30 dB SNR, two interferers, OS interrupts),
 *  single-threaded, capture cache off. */
eddie::core::PipelineConfig emConfig(std::size_t train_runs,
                                     std::uint64_t train_seed_base);

/** Counters a traced capture chain accumulates. */
struct ChainStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t power_samples = 0;
    std::uint64_t frames = 0;
    std::uint64_t windows = 0;
    std::uint64_t peaks = 0;
};

/**
 * Pipeline::captureRun by hand, one layer call per span:
 * simulate -> emanateBaseband -> Stft::analyze -> extractStsStream.
 * Must stay bit-identical to the pipeline (checked by the caller).
 */
std::vector<eddie::core::Sts>
tracedCapture(const eddie::core::Pipeline &pipe, std::uint64_t seed,
              const eddie::cpu::InjectionPlan &plan, Tracer *tracer,
              ChainStats &stats);

/** Pipeline::trainModel by hand: traced captures, then train(). */
eddie::core::TrainedModel tracedTrain(const eddie::core::Pipeline &pipe,
                                      Tracer *tracer, ChainStats &stats);

/** Adds the cpu/em/sig/core-capture layer values of a traced chain
 *  (self times from @p self) to @p values. */
void chainLayerValues(const ChainStats &stats,
                      const std::map<std::string, double> &self,
                      std::map<std::string, double> &values);

} // namespace perfbench

#endif // EDDIE_PERFBENCH_BENCH_H
