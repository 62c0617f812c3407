#include "scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

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

/** Session lifecycle states (stored in an atomic<int>). */
enum SessionState : int
{
    kIdle = 0,  ///< queue empty; feeders will re-enqueue on push
    kReady,     ///< in its tenant's fifo, waiting for a worker
    kRunning,   ///< a worker is executing a batch
    kFailed,    ///< relinquished after crash/hang/dead source
    kEof,       ///< source exhausted, queue drained, final cut taken
    kStopped,   ///< graceful stop before EOF
    kEscalated, ///< tenant breaker / budget isolation
};

bool
isTerminal(int st)
{
    return st == kEof || st == kStopped || st == kEscalated;
}

} // namespace

/** One multiplexed session. No thread of its own: feeders visit it by
 *  partition, workers by run-queue pick, the watchdog by scan. */
struct FleetScheduler::Session
{
    std::size_t index = 0;
    SchedulerSessionSpec spec;

    std::shared_ptr<const core::TrainedModel> model;
    std::unique_ptr<core::Monitor> monitor;
    std::unique_ptr<StsQueue> queue;
    /** Queue counters accumulated across restarts (a restart swaps in
     *  a fresh queue). Guarded by FleetScheduler::mu_. */
    QueueStats queue_acc;
    SourceStats source_snap;

    /**
     * Serializes the feed side (pending, source position, queue
     * identity) between the owning feeder and watchdog restarts.
     * Lock order: feed_mu -> mu_ -> queue's internal lock; the
     * watchdog never takes feed_mu while holding mu_.
     */
    std::mutex feed_mu;
    /** Pulled-but-not-yet-admitted holdover (feed side). With the
     *  non-blocking pushBatch this is what keeps one tenant's full
     *  queue from parking the whole ingestion partition. */
    std::vector<core::Sts> pending;
    bool feed_eof = false; ///< guarded by feed_mu

    std::atomic<int> state{kIdle};
    /** Teardown/hang-break flag, honored by step hooks. */
    std::atomic<bool> cancel{false};
    std::atomic<bool> in_step{false};
    std::atomic<bool> crashed{false};
    std::atomic<bool> source_dead{false};
    /** Completed steps across restarts: serveStats().processed, and
     *  the watchdog's progress signal. A session is hung only when
     *  in_step holds with this frozen past the deadline; merely
     *  waiting for worker time never advances in_step, so
     *  multiplexing delay cannot look like a hang. */
    std::atomic<std::uint64_t> processed{0};
    /** Live longest-quarantine-run for the storm check. */
    std::atomic<std::uint64_t> longest_outage{0};

    // Watchdog-only hang-tracking state.
    std::uint64_t wd_seen_seq = 0;
    double wd_seen_ms = 0.0;
    bool hang_signaled = false;

    /** Steps since the last delta cut. Touched only by the worker
     *  currently running the session (Running excludes all others)
     *  or by the watchdog while the session is Failed. */
    std::size_t since_ckpt = 0;
};

/** Level-1 run-queue entry: one tenant's runnable sessions plus its
 *  DRR account. Guarded by mu_. */
struct FleetScheduler::TenantLane
{
    Tenant *tenant = nullptr;
    std::deque<Session *> fifo;
    /** Steps this tenant may still spend before the ring rotates past
     *  it. Replenished by quantum when its turn comes up with a
     *  depleted account; charged with the steps a dispatch actually
     *  executed. Never drops below -batch_steps (the debt bound: a
     *  dispatch starts with deficit > 0 — or >= 0 right after an
     *  empty-fifo reset — and charges at most one batch). */
    double deficit = 0.0;
    double quantum = 1.0;
    bool in_ring = false;
    bool escalated = false;
};

FleetScheduler::FleetScheduler(SchedulerRunConfig cfg,
                               std::vector<SchedulerSessionSpec> specs,
                               std::vector<Tenant *> tenants,
                               std::atomic<bool> &stop)
    : cfg_(std::move(cfg)), tenants_(std::move(tenants)), stop_(stop)
{
    if (cfg_.sched.workers == 0)
        throw core::Error("scheduler: zero workers");
    // DRR weight = the tenant's STS/s quota; unlimited tenants (0)
    // weigh in at the largest configured quota so a quota is never a
    // way to out-schedule an uncapped neighbor. All-unlimited fleets
    // degenerate to equal quanta.
    double max_rate = 0.0;
    for (const Tenant *t : tenants_)
        max_rate = std::max(max_rate, t->spec().quota.sts_per_s);
    if (max_rate <= 0.0)
        max_rate = 1.0;
    lanes_.resize(tenants_.size());
    for (Tenant *t : tenants_) {
        TenantLane &lane = lanes_[t->index()];
        lane.tenant = t;
        const double rate = t->spec().quota.sts_per_s;
        const double w = rate > 0.0 ? rate : max_rate;
        lane.quantum = std::max(
            1.0, cfg_.sched.quantum_steps * w / max_rate);
    }
    sessions_.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto s = std::make_unique<Session>();
        s->index = i;
        s->spec = std::move(specs[i]);
        sessions_.push_back(std::move(s));
    }
}

FleetScheduler::~FleetScheduler()
{
    // run() joins everything; a scheduler destroyed without run()
    // has no threads.
    {
        std::lock_guard<std::mutex> lock(mu_);
        done_.store(true);
    }
    work_cv_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    for (std::thread &t : feeders_)
        if (t.joinable())
            t.join();
}

void
FleetScheduler::enqueueLocked(Session &s)
{
    TenantLane &lane = lanes_[s.spec.tenant->index()];
    if (lane.escalated)
        return;
    s.state.store(kReady);
    lane.fifo.push_back(&s);
    if (!lane.in_ring) {
        lane.in_ring = true;
        ring_.push_back(s.spec.tenant->index());
    }
    work_cv_.notify_one();
}

FleetScheduler::Session *
FleetScheduler::pickLocked()
{
    // Deficit round robin. Bounded: every full ring rotation adds
    // quantum (>= 1 step) to each visited lane, and deficits start
    // above -batch_steps, so a positive account surfaces within
    // O(batch_steps) rotations.
    while (!ring_.empty()) {
        const std::size_t li = ring_.front();
        TenantLane &lane = lanes_[li];
        if (lane.fifo.empty()) {
            // Nothing runnable: leave the ring and forfeit surplus —
            // credit does not accrue while idle.
            lane.in_ring = false;
            lane.deficit = std::min(lane.deficit, 0.0);
            ring_.pop_front();
            continue;
        }
        if (lane.deficit <= 0.0) {
            lane.deficit += lane.quantum;
            ring_.pop_front();
            ring_.push_back(li);
            continue;
        }
        Session *s = lane.fifo.front();
        lane.fifo.pop_front();
        // Reserve the whole batch up front; dispatch refunds the
        // unexecuted remainder. Charging after the fact instead
        // would let several workers pick the same barely-positive
        // lane concurrently and overdraw it to -workers x batch —
        // reservation is what makes the -batch_steps debt bound hold
        // under concurrency, not just in the single-worker schedule.
        lane.deficit -=
            double(std::max<std::size_t>(cfg_.sched.batch_steps, 1));
        min_deficit_ = std::min(min_deficit_, lane.deficit);
        return s;
    }
    return nullptr;
}

bool
FleetScheduler::allTerminalLocked() const
{
    for (const auto &sp : sessions_)
        if (!isTerminal(sp->state.load()))
            return false;
    return true;
}

void
FleetScheduler::cutDelta(Session &s)
{
    s.spec.store->submitDelta(s.spec.store_shard,
                              s.monitor->exportDelta());
    checkpoints_written_.fetch_add(1);
}

void
FleetScheduler::finishSession(Session &s, int terminal_state)
{
    s.state.store(terminal_state);
    if (s.queue)
        s.queue->close();
}

void
FleetScheduler::escalateTenantLocked(Tenant &tenant)
{
    TenantLane &lane = lanes_[tenant.index()];
    if (lane.escalated)
        return;
    lane.escalated = true;
    breaker_trips_.fetch_add(1);
    lane.fifo.clear();
    for (auto &sp : sessions_) {
        Session &s = *sp;
        if (s.spec.tenant != &tenant || isTerminal(s.state.load()))
            continue;
        if (s.state.load() == kRunning) {
            // The worker converts to Escalated at relinquish (it sees
            // lane.escalated under mu_); cancel breaks a stuck hook.
            s.cancel.store(true);
            continue;
        }
        escalations_.fetch_add(1);
        finishSession(s, kEscalated);
    }
}

void
FleetScheduler::handleFailure(Session &s, double now_ms)
{
    // Classification mirrors the thread-pair path: a caught step
    // exception is a crash, a watchdog-broken stuck step a hang, a
    // delivery path past its retry budget neither (the source's
    // give_ups already count it).
    if (s.crashed.load())
        worker_crashes_.fetch_add(1);
    else if (!s.source_dead.load())
        worker_hangs_.fetch_add(1);

    Tenant &tenant = *s.spec.tenant;
    if (tenant.breaker().record(FaultClass::WorkerFault, now_ms)) {
        std::lock_guard<std::mutex> lock(mu_);
        escalateTenantLocked(tenant);
        return;
    }

    // The store mirror is the session's newest cut (deltas apply to
    // it synchronously on submit, before any disk latency).
    const CheckpointData ckpt =
        s.spec.store->mirror(s.spec.store_shard);
    bool restartable = tenant.budget().allow(now_ms);

    // feed_mu freezes the owning feeder while the source is re-seeked
    // and the holdover + queue are discarded (their windows replay
    // from the re-seeked source, exactly as the thread-pair restart
    // discards the queue).
    std::lock_guard<std::mutex> feed(s.feed_mu);
    if (restartable)
        restartable = s.spec.source->seek(ckpt.source_pos);
    if (!restartable) {
        escalations_.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu_);
        finishSession(s, kEscalated);
        return;
    }
    s.pending.clear();
    s.feed_eof = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (s.queue)
            s.queue_acc += s.queue->stats();
        s.queue = std::make_unique<StsQueue>(s.spec.queue);
        s.cancel.store(false);
        s.crashed.store(false);
        s.source_dead.store(false);
        s.in_step.store(false);
        s.hang_signaled = false;
        s.wd_seen_seq = s.processed.load();
        s.wd_seen_ms = nowMs();
        s.since_ckpt = 0;
        s.monitor = std::make_unique<core::Monitor>(*s.model,
                                                    cfg_.monitor);
        s.monitor->restoreState(ckpt.monitor);
        // Back to Idle: the feeder refills the fresh queue and
        // re-enqueues on the first push.
        s.state.store(kIdle);
    }
    checkpoint_restores_.fetch_add(1);
    worker_restarts_.fetch_add(1);
    restart_latency_ms_.fetch_add(nowMs() - now_ms);
}

bool
FleetScheduler::feedSession(Session &s, std::vector<core::Sts> &scratch)
{
    (void)scratch;
    if (s.feed_eof && s.pending.empty())
        return false;
    if (s.source_dead.load())
        return false;
    bool progress = false;
    if (!s.pending.empty() &&
        s.queue->pushBatch(s.pending, /*may_block=*/false) > 0)
        progress = true;
    if (s.pending.empty() && !s.feed_eof) {
        Tenant &tenant = *s.spec.tenant;
        std::size_t want = std::min(cfg_.sched.feed_chunk,
                                    s.queue->headroom());
        // Zero headroom on an open queue is where the thread-pair
        // feeder would have parked in push(): count it as the
        // non-blocking equivalent so Block backpressure stays
        // observable on this path.
        if (want == 0 && !s.queue->closed())
            feed_defers_.fetch_add(1);
        while (want > 0) {
            // Rate quota before the pull, exactly like the
            // thread-pair feeder: Throttle delays delivery without
            // reordering or losing windows (verdicts stay
            // bit-identical); Shed consumes the pull and drops it,
            // counted by the tenant.
            double wait_ms = 0.0;
            const RateDecision d =
                tenant.admitWindow(nowMs(), wait_ms);
            if (d == RateDecision::Throttle) {
                // Skip to the next session instead of napping: the
                // feeder is shared, one throttled tenant must not
                // stall its partition.
                throttle_skips_.fetch_add(1);
                break;
            }
            Pull pull = s.spec.source->next();
            if (pull.status == PullStatus::EndOfStream) {
                s.feed_eof = true;
                progress = true;
                break;
            }
            if (pull.status == PullStatus::Stalled ||
                pull.status == PullStatus::TransientError) {
                // Past the retry layer: flag for the watchdog.
                s.source_dead.store(true);
                break;
            }
            --want;
            progress = true;
            if (d == RateDecision::Shed)
                continue; // pulled and dropped (tenant counts it)
            s.pending.push_back(std::move(pull.sts));
        }
        if (!s.pending.empty())
            s.queue->pushBatch(s.pending, /*may_block=*/false);
    }
    if (s.feed_eof && s.pending.empty())
        s.queue->close();

    // Wake the run queue. The emptiness check and the Idle->Ready
    // transition are both under mu_, and the push above happened
    // before this point, so a worker parking the session Idle
    // concurrently cannot lose the wakeup.
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (s.state.load() == kIdle) {
            const std::size_t cap =
                std::max<std::size_t>(s.spec.queue.capacity, 1);
            if (s.queue->headroom() < cap || s.queue->closed())
                enqueueLocked(s);
        }
    }
    return progress;
}

void
FleetScheduler::feederLoop(std::size_t feeder)
{
    const std::size_t stride = feeder_count_;
    std::vector<core::Sts> scratch;
    while (!done_.load() && !stop_.load()) {
        bool progress = false;
        for (std::size_t i = feeder; i < sessions_.size();
             i += stride) {
            if (done_.load() || stop_.load())
                break;
            Session &s = *sessions_[i];
            const int st = s.state.load();
            if (isTerminal(st) || st == kFailed)
                continue;
            // try_lock: the watchdog holds feed_mu across a restart;
            // skip and revisit rather than queueing behind it.
            std::unique_lock<std::mutex> feed(s.feed_mu,
                                              std::try_to_lock);
            if (!feed.owns_lock())
                continue;
            if (feedSession(s, scratch))
                progress = true;
        }
        if (!progress) {
            feeder_naps_.fetch_add(1);
            sleepMs(cfg_.sched.feeder_idle_ms);
        }
    }
}

void
FleetScheduler::dispatch(Session &s, std::vector<core::Sts> &batch,
                         double &busy_ms)
{
    const double t0 = nowMs();
    const std::size_t max_steps =
        std::max<std::size_t>(cfg_.sched.batch_steps, 1);
    dispatches_.fetch_add(1);
    double wait_ms = 0.0, work_ms = 0.0, cut_ms = 0.0;
    std::size_t executed = 0;
    // -1 = batch ran to completion; decide Ready/Idle under mu_.
    int next_state = -1;

    const double t_wait = nowMs();
    const std::size_t n = s.queue->popBatch(batch, max_steps, 0.0);
    wait_ms += nowMs() - t_wait;

    if (n == 0) {
        if (s.queue->drained()) {
            // The final cut rides the watchdog's group commit.
            const double t_cut = nowMs();
            cutDelta(s);
            cut_ms += nowMs() - t_cut;
            next_state = kEof;
        }
        // else: fall through to the under-lock Ready/Idle decision —
        // a feeder may have pushed between the pop and here, and only
        // a check under mu_ can't lose that wakeup.
    } else {
        for (core::Sts &sts : batch) {
            if (s.cancel.load()) {
                next_state = kFailed;
                break;
            }
            if (stop_.load()) {
                const double t_cut = nowMs();
                cutDelta(s);
                cut_ms += nowMs() - t_cut;
                s.queue->close(); // unblocks a feeder mid-push
                next_state = kStopped;
                break;
            }
            s.in_step.store(true);
            const double t_step = nowMs();
            try {
                if (hook_)
                    hook_(s.index, s.spec.tenant->id(),
                          s.monitor->records().size(), s.cancel);
                s.monitor->step(sts);
            } catch (...) {
                s.in_step.store(false);
                s.crashed.store(true);
                next_state = kFailed;
                break;
            }
            work_ms += nowMs() - t_step;
            s.in_step.store(false);
            s.processed.fetch_add(1);
            ++executed;
            // Only the dispatching worker writes it, and it changes on
            // few windows: skip the store (a barrier) when unchanged.
            const std::uint64_t outage =
                s.monitor->degradedStats().longest_outage;
            if (outage !=
                s.longest_outage.load(std::memory_order_relaxed))
                s.longest_outage.store(outage);
            if (cfg_.checkpoint_interval != 0 &&
                ++s.since_ckpt >= cfg_.checkpoint_interval) {
                s.since_ckpt = 0;
                const double t_cut = nowMs();
                cutDelta(s);
                cut_ms += nowMs() - t_cut;
            }
        }
    }

    steps_.fetch_add(executed);
    queue_wait_ms_.fetch_add(wait_ms);
    step_ms_.fetch_add(work_ms);
    checkpoint_ms_.fetch_add(cut_ms);
    busy_ms += nowMs() - t0;

    // Relinquish: refund the unexecuted part of the pick-time batch
    // reservation and hand the session to its next owner (run queue,
    // feeder, or watchdog).
    std::lock_guard<std::mutex> lock(mu_);
    TenantLane &lane = lanes_[s.spec.tenant->index()];
    lane.deficit += static_cast<double>(max_steps - executed);

    if (lane.escalated) {
        // Tenant was isolated while this batch ran.
        escalations_.fetch_add(1);
        finishSession(s, kEscalated);
        return;
    }
    if (next_state == kEof || next_state == kStopped) {
        finishSession(s, next_state);
        return;
    }
    if (next_state == kFailed) {
        s.state.store(kFailed); // the watchdog takes it from here
        return;
    }
    // Still-queued work (or a closed queue needing its drained /
    // final-cut pass) goes back to the run queue; an empty open
    // queue parks Idle for the feeder. This check runs under mu_ —
    // the feeder's Idle->Ready wake also runs under mu_ after its
    // push, so every interleaving either sees the new windows here
    // or sees our Idle there.
    const std::size_t cap =
        std::max<std::size_t>(s.spec.queue.capacity, 1);
    const bool has_work =
        s.queue->headroom() < cap || s.queue->closed();
    if (!has_work) {
        s.state.store(kIdle);
        return;
    }
    if (executed == max_steps)
        preemptions_.fetch_add(1);
    requeues_.fetch_add(1);
    enqueueLocked(s);
}

void
FleetScheduler::workerLoop(std::size_t worker)
{
    (void)worker;
    std::vector<core::Sts> batch;
    batch.reserve(std::max<std::size_t>(cfg_.sched.batch_steps, 1));
    for (;;) {
        Session *s = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            bool waited = false;
            for (;;) {
                if (done_.load())
                    return;
                s = pickLocked();
                if (s != nullptr)
                    break;
                if (waited)
                    spurious_wakeups_.fetch_add(1);
                parks_.fetch_add(1);
                work_cv_.wait(lock);
                waited = true;
            }
            s->state.store(kRunning);
        }
        double busy_ms = 0.0;
        dispatch(*s, batch, busy_ms);
        busy_ms_.fetch_add(busy_ms);
    }
}

std::vector<SessionOutcome>
FleetScheduler::run()
{
    const double t0 = nowMs();
    const std::size_t n_workers = cfg_.sched.workers;
    const std::size_t n_feeders =
        cfg_.sched.feeders != 0
            ? cfg_.sched.feeders
            : std::min<std::size_t>(2, n_workers);

    // Session setup: monitors, queues, recovery restore, seeded
    // restart mirrors — same sequence as the thread-pair path.
    std::vector<CheckpointStore *> stores;
    for (auto &sp : sessions_) {
        Session &s = *sp;
        if (std::find(stores.begin(), stores.end(), s.spec.store) ==
            stores.end())
            stores.push_back(s.spec.store);
        if (s.spec.born_escalated) {
            // Tripped before start (checkpoint rot): born escalated;
            // the result is whatever its last good cut recovered to.
            escalations_.fetch_add(1);
            s.state.store(kEscalated);
            continue;
        }
        s.model = s.spec.tenant->spec().model;
        s.monitor =
            std::make_unique<core::Monitor>(*s.model, cfg_.monitor);
        s.queue = std::make_unique<StsQueue>(s.spec.queue);
        if (s.spec.recovered) {
            const CheckpointData ckpt =
                s.spec.store->mirror(s.spec.store_shard);
            if (s.spec.source->seek(ckpt.source_pos))
                s.monitor->restoreState(ckpt.monitor);
        }
        // Seed the restart mirror so a failure before the first
        // periodic cut still restores instead of escalating.
        CheckpointData seed;
        seed.monitor = s.monitor->exportState();
        seed.source_pos = seed.monitor.step_index;
        s.spec.store->submitFull(s.spec.store_shard, std::move(seed));
        s.wd_seen_ms = t0;
    }

    done_.store(false);
    feeder_count_ = n_feeders;
    workers_.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
    feeders_.reserve(n_feeders);
    for (std::size_t f = 0; f < n_feeders; ++f)
        feeders_.emplace_back([this, f] { feederLoop(f); });

    // The calling thread is the watchdog.
    for (;;) {
        sleepMs(cfg_.poll_interval_ms);
        const double now = nowMs();
        if (stop_check_ && stop_check_())
            stop_.store(true);
        if (stop_.load()) {
            // Finalize parked sessions; running ones stop themselves.
            for (auto &sp : sessions_) {
                Session &s = *sp;
                bool finalize = false;
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    const int st = s.state.load();
                    if (st == kIdle || st == kReady) {
                        TenantLane &lane =
                            lanes_[s.spec.tenant->index()];
                        auto it = std::find(lane.fifo.begin(),
                                            lane.fifo.end(), &s);
                        if (it != lane.fifo.end())
                            lane.fifo.erase(it);
                        s.state.store(kStopped);
                        finalize = true;
                    }
                }
                if (finalize) {
                    cutDelta(s);
                    s.queue->close();
                }
            }
        }
        bool all_done = true;
        for (auto &sp : sessions_) {
            Session &s = *sp;
            const int st = s.state.load();
            if (isTerminal(st))
                continue;
            all_done = false;
            Tenant &tenant = *s.spec.tenant;
            // Quarantine storm: the stream itself is rotten past the
            // tenant's threshold — the breaker, not the budget.
            const std::size_t storm =
                tenant.spec().breaker.storm_outage_windows;
            if (storm != 0 && !tenant.breaker().tripped() &&
                s.longest_outage.load() >= storm) {
                tenant.breaker().record(FaultClass::QuarantineStorm,
                                        now);
                std::lock_guard<std::mutex> lock(mu_);
                escalateTenantLocked(tenant);
                continue;
            }
            if (st == kFailed) {
                handleFailure(s, now);
                continue;
            }
            if (s.source_dead.load() &&
                (st == kIdle || st == kReady)) {
                // No worker owns it; pull it off the run queue and
                // fail it here (a Running session relinquishes Failed
                // on its own once it drains what it has).
                bool failed = false;
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    const int st2 = s.state.load();
                    if (st2 == kIdle || st2 == kReady) {
                        TenantLane &lane =
                            lanes_[tenant.index()];
                        auto it = std::find(lane.fifo.begin(),
                                            lane.fifo.end(), &s);
                        if (it != lane.fifo.end())
                            lane.fifo.erase(it);
                        s.state.store(kFailed);
                        failed = true;
                    }
                }
                if (failed)
                    handleFailure(s, now);
                continue;
            }
            // Progress-sequence hang detection: refresh while the
            // session advances or rests between steps; a step that
            // holds in_step past the deadline with a frozen sequence
            // is hung — break it with cancel and let the worker
            // relinquish as Failed.
            const std::uint64_t seq = s.processed.load();
            if (seq != s.wd_seen_seq || !s.in_step.load()) {
                s.wd_seen_seq = seq;
                s.wd_seen_ms = now;
            } else if (!s.hang_signaled &&
                       now - s.wd_seen_ms >
                           cfg_.heartbeat_deadline_ms) {
                s.hang_signaled = true;
                s.cancel.store(true);
            }
        }
        // One group commit per store per poll; this thread is the
        // only flusher, so shared-archive stage/commit batches never
        // interleave.
        for (CheckpointStore *store : stores)
            store->flush();
        if (all_done)
            break;
    }
    for (CheckpointStore *store : stores)
        store->flush();

    {
        // Under mu_: a worker checks done_ and parks on work_cv_ under
        // this lock, so the notify cannot fall between its check and
        // its wait and leave it parked forever (join would hang).
        std::lock_guard<std::mutex> lock(mu_);
        done_.store(true);
    }
    work_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    for (std::thread &t : feeders_)
        t.join();
    workers_.clear();
    feeders_.clear();

    std::vector<SessionOutcome> out(sessions_.size());
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &sp : sessions_) {
            Session &s = *sp;
            s.source_snap = s.spec.source->stats();
            SessionOutcome &o = out[s.index];
            const int st = s.state.load();
            if (st == kEscalated || !s.monitor) {
                const CheckpointData ckpt =
                    s.spec.store->mirror(s.spec.store_shard);
                o.records = ckpt.monitor.records;
                o.reports = ckpt.monitor.reports;
                o.degraded = ckpt.monitor.degraded;
                o.escalated = true;
            } else {
                o.records = s.monitor->records();
                o.reports = s.monitor->reports();
                o.degraded = s.monitor->degradedStats();
                o.stopped = st == kStopped;
            }
            o.steps = o.records.size();
        }
        wall_ms_ = nowMs() - t0;
    }
    return out;
}

core::ServeStats
FleetScheduler::serveStats() const
{
    core::ServeStats st;
    st.worker_crashes = worker_crashes_.load();
    st.worker_hangs = worker_hangs_.load();
    st.worker_restarts = worker_restarts_.load();
    st.escalations = escalations_.load();
    st.checkpoints_written = checkpoints_written_.load();
    st.checkpoint_restores = checkpoint_restores_.load();
    st.breaker_trips = breaker_trips_.load();
    st.restart_latency_ms = restart_latency_ms_.load();
    st.queue_wait_ms = queue_wait_ms_.load();
    st.step_ms = step_ms_.load();
    st.checkpoint_ms = checkpoint_ms_.load();
    st.blocked_pushes = feed_defers_.load();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &sp : sessions_) {
        const Session &s = *sp;
        QueueStats q = s.queue_acc;
        if (s.queue)
            q += s.queue->stats();
        st.delivered += q.pushed;
        st.dropped_oldest += q.dropped_oldest;
        st.blocked_pushes += q.blocked_pushes;
        st.queue_spurious_wakeups += q.spurious_wakeups;
        st.processed += s.processed.load();
        st.source_stalls += s.source_snap.stalls;
        st.source_errors += s.source_snap.errors;
        st.source_retries += s.source_snap.retries;
        st.source_give_ups += s.source_snap.give_ups;
    }
    return st;
}

SchedulerStats
FleetScheduler::schedulerStats() const
{
    SchedulerStats st;
    st.workers = cfg_.sched.workers;
    st.feeders = cfg_.sched.feeders != 0
                     ? cfg_.sched.feeders
                     : std::min<std::size_t>(2, cfg_.sched.workers);
    st.dispatches = dispatches_.load();
    st.steps = steps_.load();
    st.requeues = requeues_.load();
    st.preemptions = preemptions_.load();
    st.parks = parks_.load();
    st.spurious_wakeups = spurious_wakeups_.load();
    st.feeder_naps = feeder_naps_.load();
    st.throttle_skips = throttle_skips_.load();
    st.busy_ms = busy_ms_.load();
    std::lock_guard<std::mutex> lock(mu_);
    st.sessions = sessions_.size();
    st.min_deficit_steps = min_deficit_;
    st.wall_ms = wall_ms_;
    return st;
}

} // namespace eddie::serve
