/**
 * @file
 * Capture memoization: a thread-safe, content-keyed LRU cache over
 * Pipeline::captureRun results.
 *
 * A capture is a pure function of (program, core config, energy
 * params, channel and feature config, injection plan, seed) — the
 * cycle simulator, EM synthesis, and STFT are all deterministic given
 * those inputs. Training loops and the bench sweeps replay identical
 * baseline captures at every sweep point; memoizing the extracted STS
 * stream turns those ~50 ms re-simulations into a map lookup plus a
 * vector copy, without changing a single output bit (the determinism
 * regression in tests/core/capture_cache_test.cpp holds trained
 * models byte-identical with the cache on or off at any thread
 * count).
 *
 * Keys are the full serialized capture identity (see
 * captureCacheKey() in pipeline.h), so two captures collide only if
 * every input is identical — there is no hash-collision exposure in
 * the memory tier. Evicted entries can optionally spill into an
 * EDDIEARC archive, keyed by the full capture key and CRC-checked
 * per sector on load.
 */

#ifndef EDDIE_CORE_CAPTURE_CACHE_H
#define EDDIE_CORE_CAPTURE_CACHE_H

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metrics.h"
#include "store/archive.h"
#include "sts.h"

namespace eddie::core
{

/** Capacity and spill policy of a CaptureCache. */
struct CaptureCacheConfig
{
    /** Maximum in-memory entries; at default pipeline scale one
     *  entry is a few hundred STSs (tens of KB). */
    std::size_t capacity = 256;
    /**
     * EDDIEARC container for the on-disk spill tier; empty disables
     * it. LRU evictions become group-committed puts and misses become
     * keyed gets against the mmap before falling back to the
     * simulator (a corrupt segment is a counted miss). The archive is
     * created on first use; an unopenable path throws IoError from
     * the constructor.
     */
    std::string spill_archive;
};

/**
 * Thread-safe content-keyed LRU cache of extracted STS streams.
 *
 * Lookups and insertions take a mutex; the compute callback of
 * getOrCompute() runs outside it, so concurrent captures of
 * *different* keys proceed in parallel, and concurrent captures of
 * the *same* key each compute once and agree (last insert is a
 * no-op because the values are identical).
 */
class CaptureCache
{
  public:
    explicit CaptureCache(CaptureCacheConfig config = {});

    /**
     * Returns the stream cached under @p key, computing and caching
     * it via @p compute on a miss. The returned value is a copy; the
     * cached entry is immutable. Thin wrapper over
     * getOrComputeShared() kept for callers that mutate the stream.
     */
    std::vector<Sts>
    getOrCompute(const std::string &key,
                 const std::function<std::vector<Sts>()> &compute);

    /**
     * Like getOrCompute() but returns the cached entry itself (no
     * copy, never null). A hit costs a map lookup plus a refcount
     * bump — the mutex is released before any Sts data is touched —
     * so sharded monitor workers hitting the same warm key no longer
     * serialize on copying streams under the lock.
     */
    std::shared_ptr<const std::vector<Sts>>
    getOrComputeShared(const std::string &key,
                       const std::function<std::vector<Sts>()> &compute);

    /** Snapshot of the hit/miss counters (see core/metrics.h). */
    CaptureCacheStats stats() const;

    /** Drops all in-memory entries (the spill archive is kept). */
    void clear();

  private:
    using Entry =
        std::pair<std::string, std::shared_ptr<const std::vector<Sts>>>;

    /** Inserts under the lock; evicts (and maybe spills) LRU tails. */
    void insertLocked(const std::string &key,
                      std::shared_ptr<const std::vector<Sts>> value);

    CaptureCacheConfig config_;
    /** Spill container when config_.spill_archive is set. The archive
     *  has its own internal lock; it is never called under mu_ except
     *  for staging/committing evictions in insertLocked (the archive
     *  never calls back into the cache, so the order is acyclic). */
    std::unique_ptr<store::Archive> archive_;

    mutable std::mutex mu_;
    /** MRU-first recency list; map values point into it. */
    std::list<Entry> lru_;
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    CaptureCacheStats stats_;
};

} // namespace eddie::core

#endif // EDDIE_CORE_CAPTURE_CACHE_H
