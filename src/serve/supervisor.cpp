#include "supervisor.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "common/crc32.h"
#include "core/errors.h"

namespace eddie::serve
{

namespace
{

/** Steady-clock milliseconds (monotonic; only differences matter). */
double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

void
sleepMs(double ms)
{
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(std::max(ms, 0.0)));
}

/** Worker poll timeout; short enough that heartbeats stay far fresher
 *  than any sane watchdog deadline while the queue is empty. */
constexpr double kPopTimeoutMs = 2.0;

/** Shard lifecycle states (stored in an atomic<int>). */
enum ShardStatus : int
{
    kRunning = 0,
    kEof,       ///< source exhausted, queue drained, final checkpoint
    kStopped,   ///< graceful stop before EOF
    kCrashed,   ///< worker caught an exception from the step
    kEscalated, ///< restart budget exhausted; degraded mode
};

enum class FailureKind
{
    Crash,
    Hang,
    SourceDead,
};

} // namespace

/** One source + queue + monitor worker under supervision. Threads
 *  capture a reference; shards live behind unique_ptr so the address
 *  is stable for the whole run. */
struct Supervisor::Shard
{
    std::size_t index = 0;
    SampleSource *source = nullptr;

    Tenant *tenant = nullptr;
    /** The tenant's checkpoint store and this shard's id within it. */
    CheckpointStore *store = nullptr;
    std::size_t store_shard = 0;
    /** Per-shard queue bound, from the tenant quota. */
    StsQueueConfig queue_cfg;
    /** Live longest-quarantine-run, published by the worker after
     *  each step so the watchdog can spot a quarantine storm without
     *  touching the Monitor across threads. */
    std::atomic<std::uint64_t> longest_outage{0};

    /** Keeps the model the monitor references alive across hot
     *  reloads (Monitor holds a reference, not ownership). */
    std::shared_ptr<const core::TrainedModel> model;
    std::unique_ptr<core::Monitor> monitor;
    std::unique_ptr<StsQueue> queue;
    /** Queue counters accumulated across restarts (a restart swaps in
     *  a fresh queue). Guarded by Supervisor::mu_. */
    QueueStats queue_acc;
    /** Source counters snapshotted while the feeder is quiescent.
     *  Guarded by Supervisor::mu_. */
    SourceStats source_snap;

    std::thread feeder;
    std::thread worker;
    /** Teardown flag; honored by both loops and by step hooks. */
    std::atomic<bool> cancel{false};
    /** Completed steps across restarts: stats().processed, and the
     *  watchdog's progress signal (a hang is in_step held with this
     *  frozen past the deadline). */
    std::atomic<std::uint64_t> processed{0};
    std::atomic<bool> in_step{false};
    // Watchdog-only hang tracking (single-threaded access).
    std::uint64_t wd_seen_seq = 0;
    double wd_seen_ms = 0.0;
    /** Feeder saw the delivery path give up past its retry budget. */
    std::atomic<bool> source_dead{false};
    std::atomic<int> status{kRunning};
};

Supervisor::Supervisor(std::shared_ptr<const core::TrainedModel> model,
                       ServeConfig cfg)
    : Supervisor(std::move(cfg))
{
    model_ = std::move(model);
    if (!model_)
        throw core::Error("supervisor: null model");
}

Supervisor::Supervisor(ServeConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.checkpoint_archive)
        throw core::Error("supervisor: checkpoint_archive = false is "
                          "not supported; EDDIEARC is the only "
                          "checkpoint layout");
}

Supervisor::~Supervisor() = default;

std::shared_ptr<const core::TrainedModel>
Supervisor::model() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return model_;
}

void
Supervisor::feederLoop(Shard &shard)
{
    while (!shard.cancel.load() && !stop_.load()) {
        // Per-tenant STS/s quota, enforced *before* the pull so
        // Throttle delays delivery without reordering or losing
        // windows (verdicts stay bit-identical); Shed consumes the
        // pull and drops it, counted.
        double wait_ms = 0.0;
        const RateDecision d = shard.tenant->admitWindow(nowMs(), wait_ms);
        if (d == RateDecision::Throttle) {
            // Bounded naps so cancel/stop stay responsive.
            sleepMs(std::min(wait_ms, 1.0));
            continue;
        }
        if (d == RateDecision::Shed) {
            Pull shed = shard.source->next();
            if (shed.status == PullStatus::EndOfStream) {
                shard.queue->close();
                return;
            }
            if (shed.status == PullStatus::Stalled ||
                shed.status == PullStatus::TransientError) {
                shard.source_dead.store(true);
                return;
            }
            continue;
        }
        Pull pull = shard.source->next();
        switch (pull.status) {
        case PullStatus::Ready:
            if (!shard.queue->push(std::move(pull.sts)))
                return; // queue closed under us: teardown or stop
            continue;
        case PullStatus::EndOfStream:
            shard.queue->close();
            return;
        case PullStatus::Stalled:
        case PullStatus::TransientError:
            // Surfaced past the retry layer: the delivery path is out
            // of budget. Flag it for the watchdog (restart/escalate)
            // rather than spinning against a dead source.
            shard.source_dead.store(true);
            return;
        }
    }
    if (stop_.load())
        shard.queue->close();
}

void
Supervisor::cutDelta(Shard &shard)
{
    shard.store->submitDelta(shard.store_shard,
                             shard.monitor->exportDelta());
    checkpoints_written_.fetch_add(1);
}

void
Supervisor::workerLoop(Shard &shard)
{
    std::size_t since_ckpt = 0;
    std::vector<core::Sts> batch;
    batch.reserve(std::max<std::size_t>(cfg_.queue_batch, 1));
    // Stage timings, accumulated locally and published once per
    // batch: three atomic adds per batch instead of per window. The
    // step stage is timed per batch too, as the batch's wall time
    // less its checkpoint cuts, so the per-window bookkeeping around
    // step() counts as stepping, and the clock (a read costs tens of
    // nanoseconds, as much as that bookkeeping) is read twice per
    // batch rather than twice per window.
    double wait_ms = 0.0, work_ms = 0.0, cut_ms = 0.0;
    double batch_t0 = 0.0, batch_cut_ms = 0.0;
    const auto publish = [&] {
        queue_wait_ms_.fetch_add(wait_ms);
        step_ms_.fetch_add(work_ms);
        checkpoint_ms_.fetch_add(cut_ms);
        wait_ms = work_ms = cut_ms = 0.0;
    };
    const auto endBatch = [&] {
        work_ms += nowMs() - batch_t0 - batch_cut_ms;
        publish();
    };
    while (true) {
        if (shard.cancel.load()) {
            publish();
            return; // watchdog teardown; it sets the next status
        }
        if (stop_.load()) {
            // The final cut rides the supervisor's closing flush —
            // one group commit for all shards instead of a disk
            // round-trip per worker exit.
            cutDelta(shard);
            publish();
            shard.status.store(kStopped);
            shard.queue->close(); // unblocks a feeder stuck pushing
            return;
        }
        const double t_wait = nowMs();
        const std::size_t n = shard.queue->popBatch(
            batch, std::max<std::size_t>(cfg_.queue_batch, 1),
            kPopTimeoutMs);
        wait_ms += nowMs() - t_wait;
        if (n == 0) {
            if (shard.queue->drained()) {
                cutDelta(shard); // lands in the supervisor's flush
                publish();
                shard.status.store(kEof);
                return;
            }
            continue; // idle poll; heartbeat stays fresh
        }
        batch_t0 = nowMs();
        batch_cut_ms = 0.0;
        for (core::Sts &sts : batch) {
            if (shard.cancel.load()) {
                endBatch();
                return;
            }
            if (stop_.load()) {
                endBatch();
                cutDelta(shard); // lands in the supervisor's flush
                shard.status.store(kStopped);
                shard.queue->close();
                return;
            }
            shard.in_step.store(true);
            try {
                if (hook_)
                    hook_(shard.monitor->records().size(),
                          shard.cancel);
                if (fleet_hook_)
                    fleet_hook_(shard.index, shard.tenant->id(),
                                shard.monitor->records().size(),
                                shard.cancel);
                shard.monitor->step(sts);
            } catch (...) {
                shard.in_step.store(false);
                endBatch();
                shard.status.store(kCrashed);
                return;
            }
            shard.in_step.store(false);
            shard.processed.fetch_add(1);
            // Only this worker writes it, and it changes on few
            // windows: skip the store (a barrier) when unchanged.
            const std::uint64_t outage =
                shard.monitor->degradedStats().longest_outage;
            if (outage !=
                shard.longest_outage.load(std::memory_order_relaxed))
                shard.longest_outage.store(outage);
            if (cfg_.checkpoint_interval != 0 &&
                ++since_ckpt >= cfg_.checkpoint_interval) {
                since_ckpt = 0;
                const double t_cut = nowMs();
                cutDelta(shard);
                const double cut = nowMs() - t_cut;
                cut_ms += cut;
                batch_cut_ms += cut;
            }
        }
        endBatch();
    }
}

void
Supervisor::startShard(Shard &shard, bool restoring)
{
    {
        // stats() dereferences shard.queue under mu_, so the swap to
        // a fresh queue must be guarded too.
        std::lock_guard<std::mutex> lock(mu_);
        shard.queue = std::make_unique<StsQueue>(shard.queue_cfg);
    }
    shard.cancel.store(false);
    shard.in_step.store(false);
    shard.source_dead.store(false);
    shard.wd_seen_seq = shard.processed.load();
    shard.wd_seen_ms = nowMs();
    shard.status.store(kRunning);
    if (restoring)
        checkpoint_restores_.fetch_add(1);
    shard.feeder = std::thread([this, &shard] { feederLoop(shard); });
    shard.worker = std::thread([this, &shard] { workerLoop(shard); });
}

void
Supervisor::stopShardThreads(Shard &shard)
{
    shard.cancel.store(true);
    if (shard.queue)
        shard.queue->close();
    if (shard.feeder.joinable())
        shard.feeder.join();
    if (shard.worker.joinable())
        shard.worker.join();
    std::lock_guard<std::mutex> lock(mu_);
    if (shard.queue) {
        shard.queue_acc += shard.queue->stats();
        shard.queue.reset();
    }
    shard.source_snap = shard.source->stats();
}

void
Supervisor::handleFailure(Shard &shard, double now_ms)
{
    const int status = shard.status.load();
    FailureKind kind = FailureKind::Hang;
    if (status == kCrashed)
        kind = FailureKind::Crash;
    else if (shard.source_dead.load())
        kind = FailureKind::SourceDead;
    switch (kind) {
    case FailureKind::Crash:
        worker_crashes_.fetch_add(1);
        break;
    case FailureKind::Hang:
        worker_hangs_.fetch_add(1);
        break;
    case FailureKind::SourceDead:
        break; // already counted in the source's give_ups
    }

    stopShardThreads(shard);

    // Every restart-worthy fault also feeds the tenant's circuit
    // breaker; a trip isolates the WHOLE tenant (neighbors untouched)
    // instead of burning budget on a rotten tenant.
    if (shard.tenant->breaker().record(FaultClass::WorkerFault, now_ms)) {
        escalateTenant(*shard.tenant);
        return;
    }

    // The store mirror is the shard's newest cut (deltas are applied
    // to it synchronously on submit, before any disk latency).
    const CheckpointData ckpt = shard.store->mirror(shard.store_shard);
    bool restartable = shard.tenant->budget().allow(now_ms);
    if (restartable)
        restartable = shard.source->seek(ckpt.source_pos);
    if (!restartable) {
        escalations_.fetch_add(1);
        shard.status.store(kEscalated);
        return;
    }

    // A shard that was down during a hot reload missed its swap.
    if (reloaded_)
        shard.model = reloaded_;
    shard.monitor =
        std::make_unique<core::Monitor>(*shard.model, cfg_.monitor);
    shard.monitor->restoreState(ckpt.monitor);
    startShard(shard, true);
    worker_restarts_.fetch_add(1);
    restart_latency_ms_.fetch_add(nowMs() - now_ms);
}

void
Supervisor::escalateTenant(Tenant &tenant)
{
    breaker_trips_.fetch_add(1);
    for (auto &sp : shards_) {
        Shard &shard = *sp;
        if (shard.tenant != &tenant)
            continue;
        const int status = shard.status.load();
        if (status == kEof || status == kStopped ||
            status == kEscalated)
            continue;
        stopShardThreads(shard);
        escalations_.fetch_add(1);
        shard.status.store(kEscalated);
    }
}

void
Supervisor::maybeReloadModel(double now_ms)
{
    if (cfg_.model_path.empty())
        return;
    if (now_ms - last_model_poll_ms_ < cfg_.model_poll_ms)
        return;
    last_model_poll_ms_ = now_ms;
    const auto crc = common::crc32File(cfg_.model_path);
    if (!crc || *crc == model_crc_)
        return;
    std::shared_ptr<const core::TrainedModel> fresh;
    try {
        // mmap + sector CRC check + binary decode (the reload path
        // benched in perf_pipeline's artifact_store section).
        fresh = std::make_shared<const core::TrainedModel>(
            core::loadModelFile(cfg_.model_path));
    } catch (const std::exception &) {
        // Half-written or corrupt artifact: keep serving the current
        // model; the next poll re-checks the CRC.
        return;
    }
    // Require the bytes to be stable across the load: if the CRC
    // moved, a write is in flight — skip, and the next poll sees the
    // finished file.
    const auto crc_after = common::crc32File(cfg_.model_path);
    if (!crc_after || *crc_after != *crc)
        return;
    model_crc_ = *crc;
    {
        std::lock_guard<std::mutex> lock(mu_);
        model_ = fresh;
    }
    reloaded_ = fresh;
    model_reloads_.fetch_add(1);

    // Live-restart every active shard on the new model from its
    // *current* state (not the last checkpoint): no verdicts are lost
    // and the restart budget is not charged — a reload is an
    // operator action, not a failure.
    for (auto &sp : shards_) {
        Shard &shard = *sp;
        if (shard.status.load() != kRunning)
            continue;
        stopShardThreads(shard);
        CheckpointData ckpt;
        ckpt.monitor = shard.monitor->exportState();
        ckpt.source_pos = ckpt.monitor.step_index;
        if (!shard.source->seek(ckpt.source_pos)) {
            escalations_.fetch_add(1);
            shard.status.store(kEscalated);
            continue;
        }
        shard.model = fresh;
        shard.monitor = std::make_unique<core::Monitor>(
            *shard.model, cfg_.monitor);
        shard.monitor->restoreState(ckpt.monitor);
        // A full-state submit re-anchors the shard's delta chain;
        // the watchdog's next group commit makes it durable.
        shard.store->submitFull(shard.store_shard, ckpt);
        checkpoints_written_.fetch_add(1);
        startShard(shard, false);
    }
}

std::vector<ShardResult>
Supervisor::run(const std::vector<SampleSource *> &sources)
{
    if (!model_)
        throw core::Error(
            "supervisor: run() on a fleet-mode supervisor");
    // One tenant with one session per source. Its breaker classes are
    // off, so a fault only draws on the restart budget all sessions
    // share; the queue bound and budget come from the ServeConfig.
    TenantSpec spec;
    spec.id = "default";
    spec.model = model_;
    spec.quota.queue_capacity = cfg_.queue.capacity;
    spec.quota.queue_max_bytes = cfg_.queue.max_bytes;
    spec.quota.restart_budget = cfg_.watchdog.restart_budget;
    spec.quota.restart_window_ms = cfg_.watchdog.restart_window_ms;
    spec.breaker.fault_threshold = 0;
    spec.breaker.storm_outage_windows = 0;
    spec.breaker.decode_failure_threshold = 0;
    auto registry = std::make_unique<TenantRegistry>();
    registry->addTenant(std::move(spec));
    for (SampleSource *source : sources)
        registry->openSession("default", source);
    {
        // stats() reads the registry of the last run; keep it alive.
        std::lock_guard<std::mutex> lock(mu_);
        registry_ = nullptr;
        run_registry_ = std::move(registry);
    }
    return runFleet(*run_registry_, false).sessions;
}

FleetResult
Supervisor::runFleet(TenantRegistry &registry)
{
    return runFleet(registry, true);
}

FleetResult
Supervisor::runFleet(TenantRegistry &registry, bool tenant_keys)
{
    if (!cfg_.model_path.empty() && cfg_.scheduler.workers > 0)
        throw core::Error("supervisor: model_path hot reload needs the "
                          "thread-pair runtime (scheduler.workers == 0)");
    // A reload moves every session to the one model file, which
    // would overwrite each tenant's own model in a shared fleet.
    if (!cfg_.model_path.empty() && registry.tenants().size() > 1)
        throw core::Error("supervisor: model_path hot reload serves "
                          "one tenant, not a fleet of several");
    stop_.store(false);
    const auto &sessions = registry.sessions();
    const auto &tenants = registry.tenants();
    const double t0 = nowMs();

    // One checkpoint store per tenant — THE per-tenant fault domain.
    // Every store keys into the one container under "tenant/<id>/"
    // (run(): no prefix); only the watchdog thread flushes, so the
    // shared stage/commit batches never interleave.
    tenant_stores_.clear();
    ckpt_archive_.reset();
    if (!cfg_.checkpoint_path.empty()) {
        store::ArchiveConfig arc;
        arc.path = cfg_.checkpoint_path + ".arc";
        ckpt_archive_ = std::make_unique<store::Archive>(arc);
    }
    std::vector<std::size_t> tenant_sessions(tenants.size(), 0);
    for (const auto &session : sessions)
        ++tenant_sessions[session.tenant->index()];
    for (Tenant *tenant : tenants) {
        CheckpointStoreConfig sc;
        sc.num_shards =
            std::max<std::size_t>(tenant_sessions[tenant->index()], 1);
        sc.full_every = cfg_.full_snapshot_every;
        sc.shared_archive = ckpt_archive_.get();
        if (tenant_keys)
            sc.key_prefix = "tenant/" + tenant->id() + "/";
        tenant_stores_.push_back(
            std::make_unique<CheckpointStore>(sc));
    }

    // Per-tenant recovery. A snapshot that exists but fails to decode
    // is checkpoint rot: it feeds the tenant's breaker (default
    // threshold 1 → the tenant is isolated before it serves a single
    // window off a corrupt base), while its neighbors resume cleanly.
    std::vector<bool> recovered;
    std::vector<std::size_t> recovered_base(tenants.size(), 0);
    {
        std::size_t base = 0;
        for (Tenant *tenant : tenants) {
            recovered_base[tenant->index()] = base;
            auto &store = tenant_stores_[tenant->index()];
            std::vector<bool> rec(
                std::max<std::size_t>(
                    tenant_sessions[tenant->index()], 1),
                false);
            if (cfg_.resume) {
                rec = store->recover();
                const auto cs = store->stats();
                const bool was_tripped = tenant->breaker().tripped();
                for (std::uint64_t i = 0;
                     i < cs.snapshot_decode_failures; ++i)
                    if (tenant->breaker().record(
                            FaultClass::CheckpointDecode, t0))
                        break;
                if (!was_tripped && tenant->breaker().tripped())
                    breaker_trips_.fetch_add(1);
            }
            recovered.insert(recovered.end(), rec.begin(), rec.end());
            base += rec.size();
        }
    }

    // Event-driven fair-share runtime: multiplex every admitted
    // session over cfg_.scheduler.workers threads (DESIGN.md §10).
    // Store/recovery/breaker setup above is shared; only the
    // execution engine differs, and verdicts are bit-identical.
    if (cfg_.scheduler.workers > 0) {
        std::vector<SchedulerSessionSpec> specs;
        specs.reserve(sessions.size());
        for (const TenantSession &session : sessions) {
            SchedulerSessionSpec spec;
            spec.tenant = session.tenant;
            spec.source = session.source;
            spec.store =
                tenant_stores_[session.tenant->index()].get();
            spec.store_shard = session.ordinal;
            spec.queue = cfg_.queue;
            const TenantQuota &quota = session.tenant->spec().quota;
            spec.queue.capacity =
                std::max<std::size_t>(quota.queue_capacity, 1);
            spec.queue.max_bytes = quota.queue_max_bytes;
            spec.born_escalated = session.tenant->breaker().tripped();
            const std::size_t rec_index =
                recovered_base[session.tenant->index()] +
                session.ordinal;
            spec.recovered =
                rec_index < recovered.size() && recovered[rec_index];
            specs.push_back(std::move(spec));
        }
        SchedulerRunConfig rc;
        rc.monitor = cfg_.monitor;
        rc.sched = cfg_.scheduler;
        rc.heartbeat_deadline_ms =
            cfg_.watchdog.heartbeat_deadline_ms;
        rc.poll_interval_ms = cfg_.watchdog.poll_interval_ms;
        rc.checkpoint_interval = cfg_.checkpoint_interval;
        auto sched = std::make_unique<FleetScheduler>(
            std::move(rc), std::move(specs), tenants, stop_);
        sched->setStopCheck(stop_check_);
        sched->setFleetStepHook(
            [this](std::size_t session, const std::string &tenant,
                   std::size_t step,
                   const std::atomic<bool> &cancel) {
                if (hook_)
                    hook_(step, cancel);
                if (fleet_hook_)
                    fleet_hook_(session, tenant, step, cancel);
            });
        {
            std::lock_guard<std::mutex> lock(mu_);
            registry_ = &registry;
            shards_.clear();
            fleet_sched_ = std::move(sched);
        }
        std::vector<SessionOutcome> outs = fleet_sched_->run();
        FleetResult fleet;
        fleet.sessions.resize(outs.size());
        for (std::size_t i = 0; i < outs.size(); ++i) {
            ShardResult &out = fleet.sessions[i];
            out.records = std::move(outs[i].records);
            out.reports = std::move(outs[i].reports);
            out.degraded = outs[i].degraded;
            out.steps = outs[i].steps;
            out.escalated = outs[i].escalated;
            out.stopped = outs[i].stopped;
        }
        assembleTenantResults(registry, fleet, nowMs());
        return fleet;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        registry_ = &registry;
        shards_.clear();
        fleet_sched_.reset();
        for (std::size_t i = 0; i < sessions.size(); ++i) {
            const TenantSession &session = sessions[i];
            auto shard = std::make_unique<Shard>();
            shard->index = i;
            shard->source = session.source;
            shard->tenant = session.tenant;
            shard->store =
                tenant_stores_[session.tenant->index()].get();
            shard->store_shard = session.ordinal;
            shard->queue_cfg = cfg_.queue;
            const TenantQuota &quota = session.tenant->spec().quota;
            shard->queue_cfg.capacity =
                std::max<std::size_t>(quota.queue_capacity, 1);
            shard->queue_cfg.max_bytes = quota.queue_max_bytes;
            shards_.push_back(std::move(shard));
        }
    }

    for (auto &sp : shards_) {
        Shard &shard = *sp;
        if (shard.tenant->breaker().tripped()) {
            // Tripped before start (checkpoint rot): the session is
            // born escalated; its result is whatever its last good
            // cut recovered to (a cold mirror when nothing did).
            escalations_.fetch_add(1);
            shard.status.store(kEscalated);
            continue;
        }
        shard.model = shard.tenant->spec().model;
        shard.monitor = std::make_unique<core::Monitor>(
            *shard.model, cfg_.monitor);
        bool restoring = false;
        const std::size_t rec_index =
            recovered_base[shard.tenant->index()] + shard.store_shard;
        if (rec_index < recovered.size() && recovered[rec_index]) {
            const CheckpointData ckpt =
                shard.store->mirror(shard.store_shard);
            if (shard.source->seek(ckpt.source_pos)) {
                shard.monitor->restoreState(ckpt.monitor);
                restoring = true;
            }
        }
        CheckpointData seed;
        seed.monitor = shard.monitor->exportState();
        seed.source_pos = seed.monitor.step_index;
        shard.store->submitFull(shard.store_shard, std::move(seed));
        startShard(shard, restoring);
    }

    reloaded_.reset();
    if (!cfg_.model_path.empty())
        model_crc_ = common::crc32File(cfg_.model_path).value_or(0);
    last_model_poll_ms_ = nowMs();
    while (true) {
        sleepMs(cfg_.watchdog.poll_interval_ms);
        const double now = nowMs();
        if (stop_check_ && stop_check_())
            stop_.store(true);
        if (!stop_.load())
            maybeReloadModel(now);
        bool all_done = true;
        for (auto &sp : shards_) {
            Shard &shard = *sp;
            const int status = shard.status.load();
            if (status == kEof || status == kStopped ||
                status == kEscalated)
                continue;
            all_done = false;
            // Quarantine storm: the stream itself is rotten past the
            // tenant's threshold — restarting cannot help, so the
            // breaker (not the budget) handles it.
            const std::size_t storm =
                shard.tenant->spec().breaker.storm_outage_windows;
            if (storm != 0 && !shard.tenant->breaker().tripped() &&
                shard.longest_outage.load() >= storm) {
                shard.tenant->breaker().record(
                    FaultClass::QuarantineStorm, now);
                escalateTenant(*shard.tenant);
                continue;
            }
            // Progress-sequence liveness: refresh while the shard
            // advances or rests between steps; hung = in_step held
            // with a frozen sequence past the deadline.
            const std::uint64_t seq = shard.processed.load();
            bool hung = false;
            if (seq != shard.wd_seen_seq || !shard.in_step.load()) {
                shard.wd_seen_seq = seq;
                shard.wd_seen_ms = now;
            } else {
                hung = now - shard.wd_seen_ms >
                       cfg_.watchdog.heartbeat_deadline_ms;
            }
            if (status == kCrashed || shard.source_dead.load() || hung)
                handleFailure(shard, now);
        }
        // One group commit per tenant per poll; the watchdog is the
        // only flusher, so stage/commit batches on the shared archive
        // never interleave across tenants.
        for (auto &store : tenant_stores_)
            store->flush();
        if (all_done)
            break;
    }
    for (auto &store : tenant_stores_)
        store->flush();

    FleetResult fleet;
    fleet.sessions.resize(shards_.size());
    for (auto &sp : shards_) {
        Shard &shard = *sp;
        if (shard.feeder.joinable())
            shard.feeder.join();
        if (shard.worker.joinable())
            shard.worker.join();
        {
            std::lock_guard<std::mutex> lock(mu_);
            shard.source_snap = shard.source->stats();
        }
        ShardResult &out = fleet.sessions[shard.index];
        const int status = shard.status.load();
        if (status == kEscalated) {
            const CheckpointData ckpt =
                shard.store->mirror(shard.store_shard);
            out.records = ckpt.monitor.records;
            out.reports = ckpt.monitor.reports;
            out.degraded = ckpt.monitor.degraded;
            out.escalated = true;
        } else {
            out.records = shard.monitor->records();
            out.reports = shard.monitor->reports();
            out.degraded = shard.monitor->degradedStats();
            out.stopped = status == kStopped;
        }
        out.steps = out.records.size();
    }

    assembleTenantResults(registry, fleet, nowMs());
    return fleet;
}

void
Supervisor::assembleTenantResults(TenantRegistry &registry,
                                  FleetResult &fleet, double now_ms)
{
    for (Tenant *tenant : registry.tenants()) {
        TenantResult tr;
        tr.id = tenant->id();
        const CircuitBreaker &breaker = tenant->breaker();
        tr.breaker_tripped = breaker.tripped();
        tr.breaker_cause = breaker.cause();
        tr.worker_faults = breaker.count(FaultClass::WorkerFault);
        tr.quarantine_storms =
            breaker.count(FaultClass::QuarantineStorm);
        tr.checkpoint_decode_failures =
            breaker.count(FaultClass::CheckpointDecode);
        tr.restarts_used = tenant->budget().used(now_ms);
        tr.budget_escalated = tenant->budget().escalated();
        tr.windows_shed = tenant->windowsShed();
        tr.windows_throttled = tenant->windowsThrottled();
        registry.noteRateCounters(tr.windows_shed,
                                  tr.windows_throttled);
        fleet.tenants.push_back(std::move(tr));
    }
    fleet.admission = registry.admissionStats();
}

core::ServeStats
Supervisor::stats() const
{
    core::ServeStats st;
    st.worker_crashes = worker_crashes_.load();
    st.worker_hangs = worker_hangs_.load();
    st.worker_restarts = worker_restarts_.load();
    st.escalations = escalations_.load();
    st.checkpoints_written = checkpoints_written_.load();
    st.checkpoint_restores = checkpoint_restores_.load();
    st.model_reloads = model_reloads_.load();
    st.restart_latency_ms = restart_latency_ms_.load();
    st.queue_wait_ms = queue_wait_ms_.load();
    st.step_ms = step_ms_.load();
    st.checkpoint_ms = checkpoint_ms_.load();
    for (const auto &store : tenant_stores_) {
        const CheckpointStoreStats cs = store->stats();
        st.group_commits += cs.group_commits;
        st.full_snapshots += cs.full_snapshots;
        st.delta_bytes += cs.delta_bytes;
        st.delta_fallbacks += cs.delta_fallbacks;
        st.delta_segments_dropped += cs.delta_segments_dropped;
        st.snapshot_decode_failures += cs.snapshot_decode_failures;
    }
    st.breaker_trips = breaker_trips_.load();
    std::lock_guard<std::mutex> lock(mu_);
    if (registry_ != nullptr) {
        st.tenants = registry_->tenants().size();
        st.sessions = registry_->sessions().size();
        const AdmissionStats adm = registry_->admissionStats();
        st.sessions_rejected = adm.rejected_fleet_limit +
            adm.rejected_tenant_limit + adm.rejected_unknown_tenant +
            adm.rejected_breaker_open;
        for (const Tenant *tenant : registry_->tenants()) {
            st.windows_shed += tenant->windowsShed();
            st.windows_throttled += tenant->windowsThrottled();
        }
    }
    for (const auto &sp : shards_) {
        const Shard &shard = *sp;
        QueueStats q = shard.queue_acc;
        if (shard.queue)
            q += shard.queue->stats();
        st.delivered += q.pushed;
        st.dropped_oldest += q.dropped_oldest;
        st.blocked_pushes += q.blocked_pushes;
        st.queue_spurious_wakeups += q.spurious_wakeups;
        st.processed += shard.processed.load();
        st.source_stalls += shard.source_snap.stalls;
        st.source_errors += shard.source_snap.errors;
        st.source_retries += shard.source_snap.retries;
        st.source_give_ups += shard.source_snap.give_ups;
    }
    if (fleet_sched_) {
        // Scheduler-path runs count in the scheduler's own atomics;
        // the supervisor's are untouched, so adding is not double
        // counting.
        const core::ServeStats fs = fleet_sched_->serveStats();
        st.worker_crashes += fs.worker_crashes;
        st.worker_hangs += fs.worker_hangs;
        st.worker_restarts += fs.worker_restarts;
        st.escalations += fs.escalations;
        st.checkpoints_written += fs.checkpoints_written;
        st.checkpoint_restores += fs.checkpoint_restores;
        st.breaker_trips += fs.breaker_trips;
        st.restart_latency_ms += fs.restart_latency_ms;
        st.queue_wait_ms += fs.queue_wait_ms;
        st.step_ms += fs.step_ms;
        st.checkpoint_ms += fs.checkpoint_ms;
        st.delivered += fs.delivered;
        st.processed += fs.processed;
        st.dropped_oldest += fs.dropped_oldest;
        st.blocked_pushes += fs.blocked_pushes;
        st.queue_spurious_wakeups += fs.queue_spurious_wakeups;
        st.source_stalls += fs.source_stalls;
        st.source_errors += fs.source_errors;
        st.source_retries += fs.source_retries;
        st.source_give_ups += fs.source_give_ups;
    }
    return st;
}

} // namespace eddie::serve
