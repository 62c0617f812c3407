/**
 * @file
 * Supervised streaming runtime (DESIGN.md §7, §9, §10). runFleet()
 * serves every admitted session of a TenantRegistry; run() is the
 * single-tenant form: one tenant, one session per sample source.
 *
 * With scheduler.workers == 0 (what eddie_serve uses) each session
 * runs a feeder thread (source → bounded queue) and a monitor worker
 * thread (queue → Monitor::step), while the supervisor's watchdog
 * loop:
 *
 *  - tracks per-session progress sequence numbers and declares a
 *    hang when a step has held in_step past the deadline with no
 *    sequence advance;
 *  - restarts crashed / hung / source-dead sessions from their last
 *    checkpoint (re-seeking the source, so no window is skipped and
 *    verdicts stay bit-identical under the Block backpressure
 *    policy), charging the tenant's restarts-per-window budget;
 *  - escalates a session to degraded mode when the budget is
 *    exhausted (its last checkpointed verdicts become its final
 *    result);
 *  - hot-reloads the model when the model file's CRC changes,
 *    restarting sessions from their live state on the new model (no
 *    verdict loss, not charged to the budget).
 *
 * With scheduler.workers > 0 a FleetScheduler multiplexes the
 * sessions over a worker pool instead (serve/scheduler.h), with
 * bit-identical verdicts and no hot reload.
 *
 * Failure injection for tests goes through a cancel-aware StepHook:
 * throwing simulates a worker crash, blocking until the cancel flag
 * simulates a hang the watchdog must detect. Real recovery machinery,
 * simulated faults — the same split as faults/fault_injector.h.
 */

#ifndef EDDIE_SERVE_SUPERVISOR_H
#define EDDIE_SERVE_SUPERVISOR_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checkpoint.h"
#include "core/metrics.h"
#include "core/model.h"
#include "core/monitor.h"
#include "sample_source.h"
#include "scheduler.h"
#include "sts_queue.h"
#include "tenant.h"

namespace eddie::serve
{

/** Watchdog and restart policy. */
struct WatchdogConfig
{
    /** A session inside one monitor step for longer than this with no
     *  progress-sequence advance is hung. (Liveness is per-session
     *  progress, not per-thread heartbeat: a session that steps
     *  rarely because it shares a worker is slow, not hung.) */
    double heartbeat_deadline_ms = 500.0;
    /** Restarts allowed within restart_window_ms before a session
     *  escalates to degraded mode. run() turns these into its one
     *  tenant's budget, which all its sessions share (runFleet reads
     *  each tenant's TenantQuota instead). */
    std::size_t restart_budget = 3;
    double restart_window_ms = 10000.0;
    /** Watchdog poll cadence. */
    double poll_interval_ms = 2.0;
};

/** Everything the runtime needs beyond the model and the sources. */
struct ServeConfig
{
    core::MonitorConfig monitor;
    StsQueueConfig queue;
    WatchdogConfig watchdog;
    /** Monitor steps between delta-checkpoint cuts (0 disables
     *  periodic checkpoints; the in-memory restart mirror is still
     *  kept). */
    std::size_t checkpoint_interval = 64;
    /** Checkpoints live in one EDDIEARC container at checkpoint_path
     *  + ".arc", which the supervisor owns. Empty = in-memory mirrors
     *  only (see serve/checkpoint.h). */
    std::string checkpoint_path;
    /** Resume from the container when it holds a snapshot. Only v2
     *  group snapshots are read (serve/checkpoint.h); an older frame
     *  is a counted decode failure and a cold start. */
    bool resume = false;
    /** Group commits between full-snapshot rewrites (bounds the
     *  delta chain recovery has to replay). */
    std::size_t full_snapshot_every = 16;
    /** EDDIEARC is the only checkpoint layout; this member stays only
     *  so existing callers that set it keep compiling. It must be
     *  true: false throws core::Error from the Supervisor
     *  constructors. */
    bool checkpoint_archive = true;
    /** Windows drained per queue-lock acquisition by each worker. */
    std::size_t queue_batch = 16;
    /** Runtime selection: scheduler.workers > 0 multiplexes all
     *  sessions over that many worker threads behind a fair-share run
     *  queue (serve/scheduler.h); 0 runs a feeder+worker thread pair
     *  per session. Verdicts are bit-identical either way. */
    SchedulerConfig scheduler;
    /** Model file watched for hot reload (one tenant on the
     *  thread-pair runtime only: runFleet throws core::Error when
     *  scheduler.workers > 0 or the registry has several tenants);
     *  every session moves to the reloaded model. Empty disables
     *  watching. */
    std::string model_path;
    double model_poll_ms = 200.0;
};

/** Final verdicts and accounting of one shard. */
struct ShardResult
{
    std::vector<core::StepRecord> records;
    std::vector<core::AnomalyReport> reports;
    core::DegradedStats degraded;
    /** Monitor steps completed (== records.size()). */
    std::size_t steps = 0;
    /** The restart budget ran out; records/reports are the state at
     *  the last successful checkpoint. */
    bool escalated = false;
    /** Graceful stop (requestStop / stop check) before EOF. */
    bool stopped = false;
};

/** One tenant's outcome of a fleet run. */
struct TenantResult
{
    std::string id;
    /** The tenant's circuit breaker tripped; all its sessions were
     *  isolated into degraded mode (escalated). */
    bool breaker_tripped = false;
    FaultClass breaker_cause = FaultClass::WorkerFault;
    std::uint64_t worker_faults = 0;
    std::uint64_t quarantine_storms = 0;
    std::uint64_t checkpoint_decode_failures = 0;
    /** Restarts charged to the tenant's budget. */
    std::size_t restarts_used = 0;
    bool budget_escalated = false;
    std::uint64_t windows_shed = 0;
    std::uint64_t windows_throttled = 0;
};

/** Everything a fleet run produced. */
struct FleetResult
{
    /** One per admitted session, indexed like
     *  TenantRegistry::sessions(). */
    std::vector<ShardResult> sessions;
    /** One per tenant, registration order. */
    std::vector<TenantResult> tenants;
    AdmissionStats admission;
};

class Supervisor
{
  public:
    /**
     * Test/bench hook invoked before every monitor step with the
     * shard-local step ordinal. Throwing simulates a crash; blocking
     * until @p cancel becomes true simulates a hang (hooks MUST honor
     * cancel, or teardown joins would deadlock).
     */
    using StepHook = std::function<void(std::size_t step,
                                        const std::atomic<bool> &cancel)>;
    /**
     * Fleet-mode hook: like StepHook but also names the session and
     * tenant, so chaos/bench harnesses can target one tenant's
     * sessions while its neighbors run clean.
     */
    using FleetStepHook =
        std::function<void(std::size_t session,
                           const std::string &tenant, std::size_t step,
                           const std::atomic<bool> &cancel)>;
    /** Polled by the watchdog; returning true requests a graceful
     *  stop (signal handlers hook in here). */
    using StopCheck = std::function<bool()>;

    Supervisor(std::shared_ptr<const core::TrainedModel> model,
               ServeConfig cfg);
    /** Fleet-mode constructor: models come from the tenants, so no
     *  process-wide model is held (run() then throws core::Error; use
     *  runFleet()). */
    explicit Supervisor(ServeConfig cfg);
    /** Out of line: Shard is incomplete in this header. */
    ~Supervisor();

    /**
     * Runs every source to completion (EOF, graceful stop, or
     * escalation) and returns one result per source. This is
     * runFleet() over one tenant with one session per source: its
     * breaker classes are off, its restart budget (shared by all
     * sessions) and queue bound come from the ServeConfig, and its
     * checkpoint keys carry no tenant prefix ("ckpt/snap", not
     * "tenant/<id>/ckpt/snap"). Sources must outlive the call and be
     * seekable for restart/resume to work. Not reentrant.
     */
    std::vector<ShardResult>
    run(const std::vector<SampleSource *> &sources);

    /**
     * Multi-tenant fleet run (DESIGN.md §9): one shard per admitted
     * session in @p registry, each checkpointing into its tenant's
     * own store — the key namespace "tenant/<id>/" of the one
     * EDDIEARC container at checkpoint_path + ".arc". Per-tenant
     * fault domains:
     *
     *  - the RestartBudget is the tenant's (all its sessions draw
     *    from one pool; exhaustion escalates the failing session);
     *  - every restart-worthy fault also feeds the tenant's circuit
     *    breaker; a trip (repeated worker faults, a quarantine storm
     *    at/above the configured outage length, or a checkpoint
     *    decode failure during resume) escalates ALL the tenant's
     *    sessions at once, and neighbors are untouched;
     *  - feeders enforce the tenant's STS/s quota (Throttle naps
     *    preserve verdict bit-identity; Shed drops are counted).
     *
     * Sessions of healthy tenants finish with verdicts bit-identical
     * to a clean serial run of the same streams (Block policy).
     */
    FleetResult runFleet(TenantRegistry &registry);

    /** Requests a graceful stop: workers finish their current step,
     *  write a final checkpoint, and exit. Thread-safe. */
    void requestStop() { stop_.store(true); }

    void setStopCheck(StopCheck check) { stop_check_ = std::move(check); }
    void setStepHook(StepHook hook) { hook_ = std::move(hook); }
    void setFleetStepHook(FleetStepHook hook)
    {
        fleet_hook_ = std::move(hook);
    }

    /** Aggregated runtime counters (valid during and after run()). */
    core::ServeStats stats() const;

    /** Scheduler-path counters of the current/last runFleet; nullptr
     *  when the run used (or will use) the thread-pair runtime. */
    const FleetScheduler *fleetScheduler() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return fleet_sched_.get();
    }

    /** Currently served model (changes after a hot reload). */
    std::shared_ptr<const core::TrainedModel> model() const;

  private:
    struct Shard;

    /** runFleet() body; @p tenant_keys prefixes each store's keys
     *  with "tenant/<id>/" (run() passes false). */
    FleetResult runFleet(TenantRegistry &registry, bool tenant_keys);
    void startShard(Shard &shard, bool restoring);
    void stopShardThreads(Shard &shard);
    void feederLoop(Shard &shard);
    void workerLoop(Shard &shard);
    /** Cuts a delta at the worker's current position: applies it to
     *  the shard's store mirror and queues it for the next group
     *  commit. */
    void cutDelta(Shard &shard);
    void handleFailure(Shard &shard, double now_ms);
    void maybeReloadModel(double now_ms);
    /** Trips-side isolation: stops and escalates every session of
     *  @p tenant (their last cuts become their final results). */
    void escalateTenant(Tenant &tenant);
    /** Tail shared by both runtimes: per-tenant results + admission
     *  counters. */
    void assembleTenantResults(TenantRegistry &registry,
                               FleetResult &fleet, double now_ms);

    std::shared_ptr<const core::TrainedModel> model_;
    ServeConfig cfg_;
    StepHook hook_;
    FleetStepHook fleet_hook_;
    StopCheck stop_check_;
    std::atomic<bool> stop_{false};

    mutable std::mutex mu_; ///< guards shards_ and model_
    std::vector<std::unique_ptr<Shard>> shards_;
    /** One group-committed store per tenant (index =
     *  Tenant::index()); also the sessions' restart mirrors. All are
     *  keyed into ckpt_archive_. Only the watchdog thread flushes, so
     *  the shared container never sees interleaved stage/commit
     *  batches. */
    std::vector<std::unique_ptr<CheckpointStore>> tenant_stores_;
    /** The checkpoint container (checkpoint_path + ".arc"); null when
     *  checkpoint_path is empty. */
    std::unique_ptr<store::Archive> ckpt_archive_;
    /** Scheduler-path runtime of the current/last runFleet (kept for
     *  stats()); guarded by mu_. */
    std::unique_ptr<FleetScheduler> fleet_sched_;
    /** Registry of the current/last runFleet (for stats()); guarded
     *  by mu_. */
    TenantRegistry *registry_ = nullptr;
    /** The one-tenant registry run() builds; outlives the run so
     *  stats() can still read it. */
    std::unique_ptr<TenantRegistry> run_registry_;
    /** Model of the current run's last hot reload (watchdog thread
     *  only); a session restarted after the reload takes it. */
    std::shared_ptr<const core::TrainedModel> reloaded_;

    std::atomic<std::uint64_t> worker_crashes_{0};
    std::atomic<std::uint64_t> worker_hangs_{0};
    std::atomic<std::uint64_t> worker_restarts_{0};
    std::atomic<std::uint64_t> escalations_{0};
    std::atomic<std::uint64_t> checkpoints_written_{0};
    std::atomic<std::uint64_t> checkpoint_restores_{0};
    std::atomic<std::uint64_t> model_reloads_{0};
    std::atomic<std::uint64_t> breaker_trips_{0};
    std::atomic<double> restart_latency_ms_{0.0};
    /** Per-stage worker time (summed across sessions): queue wait vs
     *  monitor stepping vs delta cutting — the breakdown that makes
     *  a flat sharding curve attributable. */
    std::atomic<double> queue_wait_ms_{0.0};
    std::atomic<double> step_ms_{0.0};
    std::atomic<double> checkpoint_ms_{0.0};
    std::uint32_t model_crc_ = 0;
    double last_model_poll_ms_ = 0.0;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_SUPERVISOR_H
