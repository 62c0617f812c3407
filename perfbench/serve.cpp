/**
 * @file
 * The two serving workloads, both over loopback TCP into
 * WireListener -> WireSource -> Supervisor::runFleet with the runtime
 * config of `eddie_serve --listen --ckpt-arc` (checkpoint cut every 64
 * steps into an EDDIEARC archive, thread-pair runtime):
 *
 *  - serve-wire (closed loop): one eddie_replay-style WireClient
 *    session streams a fixed number of windows as fast as the server
 *    steps them, with at most 2048 sent but not yet stepped. Monitor
 *    kernel, wire, serve and store do all the work; the simulator
 *    does none.
 *  - serve-paced (open loop): two sessions each send windows on the
 *    schedule of a live probe (20 MS/s / hop 1024 = 19,531 STS/s),
 *    far below capacity. Queues are mostly empty, so wake-up, poll and
 *    batching costs show in the lag, which is timed from each
 *    window's due time to the start of its monitor step.
 *
 * Inputs come from a cycling source over one base capture, never from
 * a materialised tile, so peak memory is the server's.
 */

#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/capture_io.h"
#include "serve/checkpoint.h"
#include "serve/supervisor.h"
#include "serve/wire_client.h"
#include "serve/wire_listener.h"
#include "wire/decoder.h"
#include "wire/frame.h"

namespace perfbench
{

using namespace eddie;

namespace
{

struct Sizes
{
    double scale;
    std::size_t train_runs;
    std::size_t sessions;
    std::size_t windows; ///< per session and pass
    double rate_hz;      ///< per session; 0 = closed loop
    /** Closed loop: windows sent but not yet stepped, at most. */
    std::size_t in_flight;
    std::size_t client_batch;
};

/**
 * Training seeds of the served model. They are fixed, so every --seed
 * serves the same model: a model trained from other captures keeps
 * other reference peaks, and the monitor's cost per window moves with
 * them by up to a third. --seed picks the captured run that is
 * streamed instead.
 */
constexpr std::uint64_t kTrainSeedBase = 1000;
constexpr std::uint64_t kCaptureSeedBase = 1000000;

/** train_s on a serving workload is the median of trainings between
 *  timed passes, one this often, so that its samples span the run.
 *  (A smoke run, which has none, reports the set-up's training.) */
constexpr double kRetrainSeconds = 1.0;

/** A live probe's window rate: 20 MS/s over a 1024-sample hop. */
constexpr double kProbeRate = 20e6 / 1024.0;

Sizes
sizesFor(bool paced, bool smoke)
{
    // eddie_replay's default batch (32) for the closed loop; the paced
    // probe flushes every 16 windows (0.8 ms at the probe rate). The
    // closed loop's in-flight bound keeps the loopback socket buffers
    // (megabytes when left to autotuning) from setting its lag.
    if (paced)
        return {0.5, 8, 2, smoke ? 2048u : 32768u, kProbeRate, 0, 16};
    return {0.5, 8, 1, smoke ? 32768u : 262144u, 0.0, 2048, 32};
}

/**
 * Window j of a session is base[(offset + j) % base.size()], for j <
 * count. Paced, window j is released at start + (j + phase) / rate.
 * Closed loop, it is released once the server has started stepping
 * window j - in_flight. Records when each window was due and when it
 * was handed to the client.
 */
class CyclingSource : public serve::SampleSource
{
  public:
    CyclingSource(std::shared_ptr<const std::vector<core::Sts>> base,
                  std::size_t count, std::size_t offset, double rate_hz,
                  double phase, std::size_t in_flight)
        : base_(std::move(base)), count_(count), offset_(offset),
          period_ns_(rate_hz > 0.0 ? 1e9 / rate_hz : 0.0), phase_(phase),
          in_flight_(in_flight), due_(count), ready_(count)
    {
    }

    /** Called from the server's step hook before window @p step. */
    void noteStepped(std::size_t step)
    {
        stepped_.store(step + 1, std::memory_order_release);
    }

    /** Paced sources wait in next() until armed with the schedule's
     *  origin. */
    void arm(std::int64_t start_ns) { start_ns_.store(start_ns); }

    /** Error path: next() stops waiting and reports end of stream. */
    void abort() { aborted_.store(true); }

    serve::Pull next() override
    {
        serve::Pull p;
        p.status = serve::PullStatus::EndOfStream;
        if (pos_ >= count_)
            return p;
        std::int64_t due = 0;
        if (period_ns_ > 0.0) {
            std::int64_t start = 0;
            while ((start = start_ns_.load()) == 0 && !aborted_.load())
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            due = start + std::int64_t(std::llround(
                              (double(pos_) + phase_) * period_ns_));
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(due)));
        } else if (in_flight_ > 0) {
            while (pos_ >= stepped_.load(std::memory_order_acquire) +
                               in_flight_ &&
                   !aborted_.load())
                std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        if (aborted_.load())
            return p;
        const std::int64_t ready = nowNs();
        due_[pos_] = period_ns_ > 0.0 ? due : ready;
        ready_[pos_] = ready;
        p.status = serve::PullStatus::Ready;
        p.sts = (*base_)[(offset_ + pos_) % base_->size()];
        ++pos_;
        return p;
    }

    bool seek(std::uint64_t pos) override
    {
        if (pos > count_)
            return false;
        pos_ = pos;
        return true;
    }

    std::uint64_t position() const override { return pos_; }

    const core::Sts &at(std::size_t j) const
    {
        return (*base_)[(offset_ + j) % base_->size()];
    }
    std::int64_t due(std::size_t j) const { return due_[j]; }
    std::int64_t ready(std::size_t j) const { return ready_[j]; }

  private:
    std::shared_ptr<const std::vector<core::Sts>> base_;
    std::size_t count_;
    std::size_t offset_;
    double period_ns_;
    double phase_;
    std::size_t in_flight_;
    std::atomic<std::int64_t> start_ns_{0};
    std::atomic<std::uint64_t> stepped_{0};
    std::atomic<bool> aborted_{false};
    std::uint64_t pos_ = 0;
    std::vector<std::int64_t> due_;
    std::vector<std::int64_t> ready_;
};

/** Bare-Monitor verdict of one session's windows. */
struct Reference
{
    std::uint32_t crc = 0;
    std::size_t steps = 0;
    std::size_t tested = 0;
    double seconds = 0.0;
};

void
removeCheckpoint(const std::string &path)
{
    for (const char *suffix : {"", ".arc", ".dlt"})
        std::remove((path + suffix).c_str());
}

class Serve : public Workload
{
  public:
    Serve(const Options &opt, bool paced)
        : opt_(opt), paced_(paced), sizes_(sizesFor(paced, opt.smoke)),
          ckpt_path_(opt.out_dir + "/ckpt-" + opt.workload)
    {
    }

    std::size_t threads() const override
    {
        // Per session: a client, a listener reader, a feeder and a
        // monitor worker; plus the watchdog.
        return 4 * sizes_.sessions + 1;
    }

    int setupReps() const override { return 5; }

    PassResult setup(Tracer *tracer) override
    {
        PassResult r;
        pipe_ = std::make_unique<core::Pipeline>(
            workloads::makeWorkload("sha", sizes_.scale),
            emConfig(sizes_.train_runs, kTrainSeedBase));
        const auto t0 = Clock::now();
        core::TrainedModel model;
        ChainStats chain;
        if (tracer != nullptr) {
            Tracer::Scope span(tracer, "serve.setup.train");
            model = tracedTrain(*pipe_, tracer, chain);
        } else {
            model = pipe_->trainModel();
        }
        r.values["train_s"] = secondsSince(t0);
        double trained = 0.0;
        for (const auto &region : model.regions)
            trained += region.trained ? 1.0 : 0.0;
        r.values["core.regions_trained"] = trained;
        std::string bytes = core::encodeModelBinary(model);
        if (!model_bytes_.empty())
            r.check(bytes == model_bytes_,
                    tracer != nullptr
                        ? "traced chain model differs from trainModel"
                        : "model bytes differ between set-ups");
        model_bytes_ = std::move(bytes);
        model_ = std::make_shared<const core::TrainedModel>(std::move(model));
        base_ = std::make_shared<const std::vector<core::Sts>>(
            pipe_->captureRun(kCaptureSeedBase + opt_.seed % 1000000000));
        if (tracer != nullptr)
            chainLayerValues(chain,
                             selfSeconds(tracer->spansOf(tracer->pass())),
                             r.values);
        // Listener start, connect and handshake, and one base run's
        // worth of windows end to end.
        r.merge(runSessions(base_->size(), nullptr, nullptr));
        refs_.clear();
        last_train_ = Clock::now();
        return r;
    }

    PassResult pass(Tracer *tracer) override
    {
        if (refs_.empty())
            refs_ = references(sizes_.windows, nullptr);
        PassResult r = runSessions(sizes_.windows, tracer, &refs_);
        if (tracer != nullptr)
            probes(*tracer, r);
        else if (!opt_.trace && secondsSince(last_train_) >= kRetrainSeconds)
            retrain(r);
        return r;
    }

  private:
    /** Trains the served model again, untraced, between passes, and
     *  checks it is byte-identical to the set-up's. */
    void retrain(PassResult &r)
    {
        const auto t0 = Clock::now();
        const core::TrainedModel model = pipe_->trainModel();
        r.values["train_s"] = secondsSince(t0);
        last_train_ = Clock::now();
        r.check(core::encodeModelBinary(model) == model_bytes_,
                "retrained model bytes differ from the set-up's");
    }

    std::unique_ptr<CyclingSource> makeSource(std::size_t s,
                                              std::size_t count) const
    {
        return std::make_unique<CyclingSource>(
            base_, count, s * base_->size() / 2, sizes_.rate_hz,
            double(s) / double(sizes_.sessions), sizes_.in_flight);
    }

    std::vector<Reference> references(std::size_t count,
                                      Tracer *tracer) const
    {
        std::vector<Reference> refs;
        for (std::size_t s = 0; s < sizes_.sessions; ++s) {
            const auto src = makeSource(s, count);
            Reference ref;
            const auto t0 = Clock::now();
            core::Monitor monitor(*model_, core::MonitorConfig{});
            {
                Tracer::Scope span(tracer, "core.monitor");
                for (std::size_t j = 0; j < count; ++j)
                    monitor.step(src->at(j));
            }
            ref.seconds = secondsSince(t0);
            ref.crc = verdictCrc(monitor.records(), monitor.reports());
            ref.steps = monitor.records().size();
            for (const auto &rec : monitor.records())
                ref.tested += rec.tested ? 1 : 0;
            refs.push_back(ref);
        }
        return refs;
    }

    serve::ServeConfig serveConfig(const std::string &ckpt) const
    {
        // eddie_serve --listen --ckpt-arc defaults.
        serve::ServeConfig cfg;
        cfg.checkpoint_interval = 64;
        cfg.checkpoint_path = ckpt;
        cfg.full_snapshot_every = 16;
        cfg.checkpoint_archive = true;
        cfg.queue_batch = 16;
        cfg.scheduler.workers = 0;
        return cfg;
    }

    /**
     * One fixed-work pass: start a listener, connect every session's
     * client (in order, so session i is client i), then time
     * runFleet until every session has delivered @p count windows.
     * With @p refs, checks each session's verdicts against them.
     */
    PassResult runSessions(std::size_t count, Tracer *tracer,
                           const std::vector<Reference> *refs)
    {
        PassResult r;
        const std::size_t n = sizes_.sessions;
        Tracer::Scope pass_span(tracer, "serve.pass");
        serve::TenantRegistry reg;
        serve::TenantSpec spec;
        spec.id = "bench";
        spec.model = model_;
        reg.addTenant(spec);

        std::vector<std::unique_ptr<CyclingSource>> sources;
        for (std::size_t s = 0; s < n; ++s)
            sources.push_back(makeSource(s, count));
        std::vector<serve::WireClientReport> reports(n);
        std::vector<double> client_cpu(n, 0.0);
        std::vector<std::vector<std::int64_t>> step_ns(
            n, std::vector<std::int64_t>(count, 0));

        removeCheckpoint(ckpt_path_);
        const double cpu0 = processCpuSeconds();
        serve::WireListenerConfig lcfg;
        lcfg.tcp = "127.0.0.1:0";
        serve::WireListener listener(reg, lcfg);
        std::vector<std::thread> clients;
        const auto abandon = [&] {
            for (auto &src : sources)
                src->abort();
            listener.drainAndClose();
            for (auto &t : clients)
                t.join();
        };
        {
            Tracer::Scope span(tracer, "wire.listen_handshake");
            listener.start();
            for (std::size_t s = 0; s < n; ++s) {
                clients.emplace_back([&, s, parent = pass_span.id()] {
                    Tracer::Scope client_span(tracer, "wire.client", parent);
                    // A paced generator holds its schedule to the
                    // microsecond, not to the default 50 us timer slack.
                    if (sizes_.rate_hz > 0.0)
                        prctl(PR_SET_TIMERSLACK, 1UL);
                    const double c0 = threadCpuSeconds();
                    serve::WireClientConfig ccfg;
                    ccfg.tcp = listener.tcpAddress();
                    ccfg.tenant = "bench";
                    ccfg.session = s + 1;
                    ccfg.batch_windows = sizes_.client_batch;
                    reports[s] = serve::WireClient(ccfg).stream(*sources[s]);
                    client_cpu[s] = threadCpuSeconds() - c0;
                });
                if (listener.awaitSessions(s + 1, 30000.0) != s + 1) {
                    abandon();
                    throw std::runtime_error("serve: session not admitted");
                }
            }
            listener.freezeAdmission();
        }
        const auto wire_sources = listener.sources();
        for (std::size_t s = 0; s < n; ++s)
            r.check(s < wire_sources.size() &&
                        wire_sources[s]->sessionKey() == s + 1,
                    "session order differs from connect order");

        serve::Supervisor sup(serveConfig(ckpt_path_));
        sup.setFleetStepHook([&](std::size_t session, const std::string &,
                                 std::size_t step,
                                 const std::atomic<bool> &) {
            if (session < n && step < count) {
                step_ns[session][step] = nowNs();
                sources[session]->noteStepped(step);
            }
        });
        // Paced schedules start just after runFleet has its threads up.
        const std::int64_t start = nowNs() + 5'000'000;
        for (auto &src : sources)
            src->arm(start);
        const auto t0 = Clock::now();
        serve::FleetResult fr;
        try {
            Tracer::Scope span(tracer, "serve.run_fleet");
            fr = sup.runFleet(reg);
        } catch (...) {
            abandon();
            throw;
        }
        r.wall_s = secondsSince(t0);
        for (auto &t : clients)
            t.join();
        listener.drainAndClose();
        double server_cpu = processCpuSeconds() - cpu0;
        for (double c : client_cpu)
            server_cpu -= c;
        removeCheckpoint(ckpt_path_);

        const core::ServeStats st = sup.stats();
        const serve::WireListenerStats ls = listener.stats();
        const std::uint64_t wire_errors =
            ls.wire.totalErrors() + ls.conn_errors + ls.nacks_sent +
            ls.handshake_failures + ls.sequence_gaps;
        r.check(wire_errors == 0, "wire errors: " +
                                      std::to_string(wire_errors));
        for (std::size_t s = 0; s < n; ++s) {
            const std::string who = "session " + std::to_string(s);
            r.check(reports[s].delivered_all,
                    who + ": not delivered (" + reports[s].error + ")");
            const bool have = s < fr.sessions.size();
            r.check(have && fr.sessions[s].steps == count,
                    who + ": wrong step count");
            if (refs != nullptr && have)
                r.check(verdictCrc(fr.sessions[s].records,
                                   fr.sessions[s].reports) ==
                                (*refs)[s].crc,
                        who + ": verdicts differ from a bare Monitor");
        }
        if (r.failed != 0)
            return r;

        // Lag: due time -> monitor step start. A window leaves with
        // its client batch once the batch's last window is handed
        // over (batches are aligned to position 0: no resume).
        const std::size_t batch = sizes_.client_batch;
        std::vector<double> lag_ms, late_ms;
        lag_ms.reserve(n * count);
        late_ms.reserve(n * count);
        double batch_wait = 0.0, transit = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
            const CyclingSource &src = *sources[s];
            for (std::size_t j = 0; j < count; ++j) {
                const std::size_t last =
                    std::min((j / batch + 1) * batch, count) - 1;
                const double due = double(src.due(j));
                const double departs = double(src.ready(last));
                lag_ms.push_back((double(step_ns[s][j]) - due) / 1e6);
                late_ms.push_back((double(src.ready(j)) - due) / 1e6);
                batch_wait += (departs - due) / 1e6;
                transit += (double(step_ns[s][j]) - departs) / 1e6;
            }
        }
        const double windows = double(n * count);
        const double sts_per_s = windows / r.wall_s;
        r.values["serve_sts_per_s"] = sts_per_s;
        r.values["detect_runs_per_s"] = sts_per_s / double(base_->size());
        r.values["lag_p50_ms"] = quantile(lag_ms, 0.50);
        r.values["lag_p99_ms"] = quantile(lag_ms, 0.99);
        r.values["cpu_us_per_sts"] = 1e6 * server_cpu / windows;
        if (tracer == nullptr)
            return r;

        r.values["lag.batch_wait_ms"] = batch_wait / windows;
        r.values["lag.transit_queue_ms"] = transit / windows;
        r.values["bench.late_p99_ms"] = quantile(late_ms, 0.99);
        r.values["wire.bytes_per_sts"] = double(ls.bytes_received) / windows;
        r.values["wire.batches"] = double(ls.batches);
        r.values["wire.acks"] = double(ls.acks_sent);
        r.values["wire.errors"] = double(wire_errors);
        r.values["serve.queue_wait_ms"] = st.queue_wait_ms;
        r.values["serve.step_ms"] = st.step_ms;
        r.values["serve.checkpoint_ms"] = st.checkpoint_ms;
        r.values["serve.blocked_pushes"] = double(st.blocked_pushes);
        r.values["serve.spurious_wakeups"] =
            double(st.queue_spurious_wakeups);
        r.values["serve.checkpoints_written"] =
            double(st.checkpoints_written);
        r.values["serve.group_commits"] = double(st.group_commits);
        r.values["serve.delta_bytes_per_cut"] =
            st.checkpoints_written == 0
                ? 0.0
                : double(st.delta_bytes) / double(st.checkpoints_written);
        // Every session's worker is either waiting on its queue,
        // stepping, or cutting a checkpoint for the whole fleet run.
        const double worker_ms =
            st.queue_wait_ms + st.step_ms + st.checkpoint_ms;
        r.checkLedger(100.0 * worker_ms / (1e3 * r.wall_s * double(n)),
                      "fleet run");
        return r;
    }

    /** Traced-pass probes that time single layers from outside. */
    void probes(Tracer &tracer, PassResult &r)
    {
        Tracer::Scope span(&tracer, "serve.probes");
        const std::size_t count = sizes_.windows;

        // core: a bare Monitor::step loop over session 0's windows.
        const auto refs = references(count, &tracer);
        double steps = 0.0, tested = 0.0, seconds = 0.0;
        for (std::size_t s = 0; s < refs.size(); ++s) {
            r.check(refs[s].crc == refs_[s].crc,
                    "bare Monitor verdict does not repeat");
            steps += double(refs[s].steps);
            tested += double(refs[s].tested);
            seconds += refs[s].seconds;
        }
        r.values["core.monitor_us_per_sts"] = 1e6 * seconds / steps;
        r.values["core.tested_pct"] = 100.0 * tested / steps;

        wireProbe(tracer, r);
        storeProbe(tracer, r);
        if (!paced_) {
            // The same windows through runFleet in process.
            Tracer::Scope inproc_span(&tracer, "serve.run_fleet_inproc");
            serve::TenantRegistry reg;
            serve::TenantSpec spec;
            spec.id = "bench";
            spec.model = model_;
            reg.addTenant(spec);
            const auto src = makeSource(0, count);
            reg.openSession("bench", src.get());
            const std::string ckpt = ckpt_path_ + "-inproc";
            removeCheckpoint(ckpt);
            serve::Supervisor sup(serveConfig(ckpt));
            sup.setFleetStepHook([&](std::size_t, const std::string &,
                                     std::size_t step,
                                     const std::atomic<bool> &) {
                src->noteStepped(step);
            });
            const auto t0 = Clock::now();
            const serve::FleetResult fr = sup.runFleet(reg);
            const double wall = secondsSince(t0);
            removeCheckpoint(ckpt);
            r.check(fr.sessions.size() == 1 &&
                        verdictCrc(fr.sessions[0].records,
                                   fr.sessions[0].reports) == refs_[0].crc,
                    "in-process fleet verdicts differ from a bare Monitor");
            r.values["wire.vs_inproc"] = wall / r.wall_s;
        }
    }

    /** wire: encodeStsPayload + encodeFrame, then FrameDecoder +
     *  decodeStsPayload, per client batch. */
    void wireProbe(Tracer &tracer, PassResult &r)
    {
        const std::size_t batch = sizes_.client_batch;
        const std::size_t batches = opt_.smoke ? 64 : 1024;
        const auto src = makeSource(0, batch * batches);
        std::string bytes;
        double encode_s = 0.0;
        {
            Tracer::Scope span(&tracer, "wire.encode");
            std::vector<core::Sts> windows(batch);
            for (std::size_t b = 0; b < batches; ++b) {
                for (std::size_t j = 0; j < batch; ++j)
                    windows[j] = src->at(b * batch + j);
                const auto t0 = Clock::now();
                wire::FrameHeader h;
                h.type = wire::FrameType::StsBatch;
                h.tenant = wire::tenantHash("bench");
                h.session = 1;
                h.sequence = b * batch;
                bytes += wire::encodeFrame(h, core::encodeStsPayload(windows));
                encode_s += secondsSince(t0);
            }
        }
        std::size_t decoded = 0;
        const auto t0 = Clock::now();
        {
            Tracer::Scope span(&tracer, "wire.decode");
            wire::FrameDecoder dec;
            constexpr std::size_t kChunk = 64 * 1024; // listener read
            for (std::size_t at = 0; at < bytes.size(); at += kChunk) {
                dec.feed(bytes.data() + at,
                         std::min(kChunk, bytes.size() - at));
                for (wire::Decoded d = dec.next();
                     d.status == wire::DecodeStatus::Frame; d = dec.next())
                    decoded += core::decodeStsPayload(d.payload,
                                                      d.header.payload_len)
                                   .size();
            }
        }
        const double decode_s = secondsSince(t0);
        r.check(decoded == batch * batches, "wire probe lost windows");
        r.values["wire.encode_us_per_batch"] = 1e6 * encode_s / double(batches);
        r.values["wire.decode_us_per_batch"] = 1e6 * decode_s / double(batches);
    }

    /** store: a bare CheckpointStore::submitDelta + flush loop on an
     *  archive, one delta per checkpoint interval of steps. */
    void storeProbe(Tracer &tracer, PassResult &r)
    {
        constexpr std::size_t kInterval = 64;
        const std::size_t commits = opt_.smoke ? 16 : 512;
        const std::string path = ckpt_path_ + "-store";
        removeCheckpoint(path);
        double commit_s = 0.0;
        bool ok = true;
        {
            Tracer::Scope span(&tracer, "store.delta_commit");
            serve::CheckpointStoreConfig cfg;
            cfg.path = path;
            cfg.num_shards = 1;
            cfg.full_every = std::size_t(1) << 20; // deltas only
            cfg.use_archive = true;
            serve::CheckpointStore store(cfg);
            core::Monitor monitor(*model_, core::MonitorConfig{});
            serve::CheckpointData snap;
            snap.monitor = monitor.exportState();
            store.submitFull(0, snap);
            monitor.resetDeltaBaseline();
            ok = store.flush();
            const auto src = makeSource(0, commits * kInterval);
            for (std::size_t c = 0; c < commits; ++c) {
                for (std::size_t j = 0; j < kInterval; ++j)
                    monitor.step(src->at(c * kInterval + j));
                const auto t0 = Clock::now();
                store.submitDelta(0, monitor.exportDelta());
                ok = store.flush() && ok;
                commit_s += secondsSince(t0);
            }
        }
        removeCheckpoint(path);
        r.check(ok, "store probe: flush failed");
        r.values["store.delta_commit_us"] = 1e6 * commit_s / double(commits);
    }

    Options opt_;
    bool paced_;
    Sizes sizes_;
    std::string ckpt_path_;
    std::unique_ptr<core::Pipeline> pipe_;
    Clock::time_point last_train_;
    std::string model_bytes_;
    std::shared_ptr<const core::TrainedModel> model_;
    std::shared_ptr<const std::vector<core::Sts>> base_;
    std::vector<Reference> refs_;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const Options &opt, bool paced)
{
    return std::make_unique<Serve>(opt, paced);
}

} // namespace perfbench
