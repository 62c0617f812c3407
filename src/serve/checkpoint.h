/**
 * @file
 * Crash-consistent checkpoints of running monitors (DESIGN.md §7).
 *
 * Checkpoints live as keyed values of ONE EDDIEARC container
 * (store/archive.h), in the shared CRC32+length framing
 * (core/capture_io.h), incremental and group-committed:
 *
 *  - A *group snapshot* (key "ckpt/snap", magic "EDDIECKP", version
 *    2) holds an epoch number and every shard's source position plus
 *    complete core::MonitorState. A one-shard group is also what
 *    eddie_monitor --checkpoint writes.
 *  - A *delta segment* (key "ckpt/dlt/<n>", magic "EDDIEDLT") is one
 *    group commit: the epoch it chains onto plus every shard's
 *    core::MonitorStateDelta since its previous cut. All shards'
 *    deltas land in one archive commit instead of N
 *    rewrite-the-world snapshot replacements.
 *
 * Frames of other layout versions (the single-shard version 1 of
 * earlier builds) are not read: such a snapshot is a counted decode
 * failure and a cold start.
 *
 * CheckpointStore owns the keys plus an in-memory full-state mirror
 * per shard (what the supervisor restarts crashed workers from).
 * Recovery loads the snapshot, replays matching-epoch delta segments
 * onto it, and — on a bit-flipped, torn, or chain-broken segment —
 * falls back to the state reconstructed so far, counting the
 * fallback. Resume from any delta chain is bit-identical to resume
 * from a full snapshot at the same cut (property-tested in
 * tests/serve).
 */

#ifndef EDDIE_SERVE_CHECKPOINT_H
#define EDDIE_SERVE_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "store/archive.h"

namespace eddie::serve
{

/** Everything resume needs: where the source was, and the monitor's
 *  full mutable state at that point. */
struct CheckpointData
{
    /** Next item the source will deliver (== windows processed, since
     *  a window is checkpointed only after its step completed). */
    std::uint64_t source_pos = 0;
    core::MonitorState monitor;
};

/** All shards' full states at one cut, plus the epoch that names the
 *  delta chain anchored on it. */
struct GroupCheckpoint
{
    std::uint64_t epoch = 0;
    std::vector<CheckpointData> shards;
};

/** Writes one framed group snapshot (magic "EDDIECKP", version 2). */
void saveGroupCheckpoint(const GroupCheckpoint &group, std::ostream &os);

/** Reads a group snapshot. Throws IoError on truncation, FormatError
 *  on corruption or any other layout version. */
GroupCheckpoint loadGroupCheckpoint(std::istream &is);

/** One shard's delta within a group commit. */
struct DeltaEntry
{
    std::uint64_t shard = 0;
    core::MonitorStateDelta delta;
};

/** One group commit of delta cuts. */
struct DeltaSegment
{
    /** Epoch of the full snapshot this segment chains onto; replay
     *  skips segments from other epochs. */
    std::uint64_t epoch = 0;
    std::vector<DeltaEntry> entries;
};

/** Writes one framed segment (magic "EDDIEDLT") as a single
 *  buffered write. Returns the bytes written. */
std::size_t appendDeltaSegment(std::ostream &os,
                               const DeltaSegment &seg);

/** Reads the next segment. Returns false on a clean end of stream;
 *  throws IoError on a torn tail, FormatError on corruption. */
bool readDeltaSegment(std::istream &is, DeltaSegment &seg);

/** CheckpointStore knobs. */
struct CheckpointStoreConfig
{
    /** The store keeps its keys in one EDDIEARC container at path +
     *  ".arc" (opened, or created, by the constructor; an unopenable
     *  path throws IoError). Empty, with no shared_archive, means
     *  in-memory mirrors only (no persistence). */
    std::string path;
    std::size_t num_shards = 1;
    /** Group commits between full-snapshot rewrites (chain length
     *  bound — recovery replays at most this many segments). */
    std::size_t full_every = 16;
    /**
     * EDDIEARC is the only checkpoint layout; this member stays only
     * so existing callers that set it keep compiling. It must be
     * true: false throws core::Error from the constructor.
     */
    bool use_archive = true;
    /**
     * Key namespace of this store inside the archive: keys become
     * "<key_prefix>ckpt/snap" and "<key_prefix>ckpt/dlt/<n>". This is
     * the per-tenant fault domain of the fleet runtime — every
     * tenant's store writes its own prefix (e.g. "tenant/<id>/") into
     * one shared container, and a snapshot rewrite removes only the
     * delta keys under its own prefix, so one tenant's checkpoint rot
     * or rewrite can never disturb a neighbor's chain. Empty (the
     * default) is the layout of a single-tenant store
     * (Supervisor::run, eddie_monitor --checkpoint).
     */
    std::string key_prefix;
    /**
     * Non-owned shared container to keep this store's keys in,
     * instead of opening a private one at path + ".arc"; `path` is
     * then unused. The caller guarantees the archive outlives the
     * store and that flush() across stores sharing one archive is
     * serialized (the supervisor's watchdog is the only flusher).
     */
    store::Archive *shared_archive = nullptr;
};

/** Counters surfaced into core::ServeStats. */
struct CheckpointStoreStats
{
    std::uint64_t group_commits = 0;
    std::uint64_t full_snapshots = 0;
    std::uint64_t delta_bytes = 0;
    std::uint64_t delta_fallbacks = 0;
    std::uint64_t delta_segments_dropped = 0;
    /** Swallowed I/O failures (durability degraded, serving
     *  continues). */
    std::uint64_t write_failures = 0;
    /**
     * A snapshot that *exists* failed to decode during recover() —
     * corruption, not absence (a missing snapshot is a cold start and
     * counts nothing). The fleet runtime's circuit breaker treats
     * this as FaultClass::CheckpointDecode for the owning tenant.
     */
    std::uint64_t snapshot_decode_failures = 0;
};

/**
 * The group-committed checkpoint pipeline. Workers submit deltas (or
 * full states) as they cut them — cheap, in-memory, applied at once
 * to the shard's mirror so a restart always has the newest cut — and
 * the supervisor's watchdog calls flush() once per poll to land
 * everything pending as one delta segment in one archive commit.
 * Every full_every commits (and whenever a full submit re-anchored a
 * shard's chain) the store instead rewrites the group snapshot and
 * removes its delta keys in one atomic commit. Thread-safe.
 */
class CheckpointStore
{
  public:
    explicit CheckpointStore(const CheckpointStoreConfig &cfg);

    /**
     * Best-effort recovery from the archive: loads the group snapshot
     * and replays matching-epoch delta segments onto it. A corrupt or
     * chain-broken segment stops the replay at the last good state
     * (fallbacks counted). Returns per-shard recovery flags;
     * recovered states are read back via mirror().
     */
    std::vector<bool> recover();

    /** Replaces @p shard's mirror wholesale, re-anchoring its chain:
     *  the next flush rewrites the full snapshot. */
    void submitFull(std::size_t shard, CheckpointData ckpt);

    /** Queues @p delta for the next group commit. This is the worker
     *  hot path: the critical section is one move into the pending
     *  list — applying to the shard's mirror is deferred to the next
     *  full-snapshot fold (or replayed on a mirror() read), off the
     *  monitoring thread. Deltas for one shard must chain (each
     *  base_step matching the previous cut); a gap surfaces as
     *  FormatError at fold/replay time. */
    void submitDelta(std::size_t shard, core::MonitorStateDelta delta);

    /** The shard's full state at its newest cut: the snapshot-time
     *  mirror plus a replay of the shard's queued deltas. */
    CheckpointData mirror(std::size_t shard);

    /** Group commit: lands all pending deltas as one delta segment,
     *  rewriting the full snapshot instead when due. Returns false
     *  when an I/O failure was swallowed. */
    bool flush();

    /** Forces the next flush to rewrite the full snapshot (hot model
     *  reload re-anchors every shard's chain). */
    void forceFullSnapshot();

    CheckpointStoreStats stats() const;

  private:
    bool writeFullSnapshotLocked();
    /** Archive keys under this store's namespace prefix. */
    std::string snapKeyStr() const;
    std::string deltaPrefixStr() const;
    std::string deltaKeyStr(std::uint64_t n) const;
    void foldAllLocked();
    /** Applies one decoded delta segment transactionally onto the
     *  mirrors; false = damaged (bad shard or broken chain). */
    bool applySegmentLocked(const DeltaSegment &seg);

    CheckpointStoreConfig cfg_;
    mutable std::mutex mu_;
    /** Serializes flush() callers; segment encode + disk IO happen
     *  under this lock alone, so submitDelta (which needs only mu_)
     *  never blocks behind a write in progress. */
    std::mutex io_mu_;
    /** Per-shard state at the last full snapshot — deliberately
     *  lagging: in the steady state cuts ride the delta queues and
     *  the mirrors advance only when a snapshot is rewritten, so the
     *  checkpointed hot path never pays applyDelta. mirror() replays
     *  the queues on top for reads. */
    std::vector<CheckpointData> mirrors_;
    /** Bumped by submitFull; lets an in-flight flush detect that a
     *  shard's queued deltas were superseded mid-write. */
    std::vector<std::uint64_t> mirror_gen_;
    /** Deltas not yet written to the archive (next group commit). */
    std::vector<DeltaEntry> pending_;
    /** Deltas written to the archive but not yet folded into the
     *  mirrors; consumed by the next full-snapshot fold. */
    std::vector<DeltaEntry> staged_;
    std::uint64_t epoch_ = 0;
    std::size_t commits_since_full_ = 0;
    bool full_dirty_ = true; ///< next flush must rewrite the snapshot
    /** Private container at cfg_.path + ".arc"; the archive's own
     *  lock nests inside io_mu_/mu_ and it never calls back, so the
     *  order is acyclic. */
    std::unique_ptr<store::Archive> archive_;
    /** The archive actually used: archive_.get(), or the non-owned
     *  cfg_.shared_archive; nullptr = in-memory mirrors only. */
    store::Archive *arc_ = nullptr;
    /** Key number of the next delta segment ("ckpt/dlt/<n>"); reset
     *  by each snapshot rewrite (which removes the delta keys). */
    std::uint64_t next_delta_key_ = 0;
    CheckpointStoreStats stats_;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_CHECKPOINT_H
