#include "capture_cache.h"

#include <span>
#include <stdexcept>

#include "capture_io.h"
#include "errors.h"

namespace eddie::core
{

namespace
{
/** Namespacing prefix for spill artifacts inside a shared archive
 *  (models and checkpoints use other prefixes). The archive key is
 *  the FULL capture key, so a lookup can never collide and needs no
 *  key verification. */
constexpr const char *kSpillPrefix = "spill/";
} // namespace

CaptureCache::CaptureCache(CaptureCacheConfig config)
    : config_(std::move(config))
{
    if (!config_.spill_archive.empty()) {
        store::ArchiveConfig arc;
        arc.path = config_.spill_archive;
        archive_ = std::make_unique<store::Archive>(arc);
    }
}

std::vector<Sts>
CaptureCache::getOrCompute(
    const std::string &key,
    const std::function<std::vector<Sts>()> &compute)
{
    return *getOrComputeShared(key, compute);
}

std::shared_ptr<const std::vector<Sts>>
CaptureCache::getOrComputeShared(
    const std::string &key,
    const std::function<std::vector<Sts>()> &compute)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++stats_.hits;
            return it->second->second;
        }
    }

    // Archive tier: keyed get against the container mmap. Integrity
    // comes from the archive's per-sector CRCs plus the payload
    // decoder's own bounds checks; any damage is a counted soft miss
    // (corrupt vs short read), never a poisoned entry.
    if (archive_) {
        std::span<const char> span;
        switch (archive_->get(kSpillPrefix + key, span)) {
        case store::GetStatus::Ok: {
            bool short_read = false;
            try {
                auto value = std::make_shared<const std::vector<Sts>>(
                    decodeStsPayload(span.data(), span.size()));
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.disk_hits;
                if (index_.find(key) == index_.end())
                    insertLocked(key, value);
                return value;
            } catch (const IoError &) {
                short_read = true;
            } catch (const std::exception &) {
            }
            std::lock_guard<std::mutex> lock(mu_);
            if (short_read)
                ++stats_.spill_short_read;
            else
                ++stats_.spill_corrupt;
            break;
        }
        case store::GetStatus::Corrupt: {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.spill_corrupt;
            break;
        }
        case store::GetStatus::Missing:
            break;
        }
    }

    auto value =
        std::make_shared<const std::vector<Sts>>(compute());
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        // A racing thread may have inserted the same key while we
        // computed; the values are identical, so keep the first.
        if (index_.find(key) == index_.end())
            insertLocked(key, value);
    }
    return value;
}

void
CaptureCache::insertLocked(
    const std::string &key,
    std::shared_ptr<const std::vector<Sts>> value)
{
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    std::size_t staged = 0;
    while (lru_.size() > config_.capacity) {
        const Entry &victim = lru_.back();
        if (archive_) {
            // Archive tier: stage the victim now, commit the whole
            // eviction wave in one group commit below. A failure is a
            // counted soft loss — the entry is still evicted, a later
            // lookup recomputes.
            try {
                archive_->stagePut(kSpillPrefix + victim.first,
                                   encodeStsPayload(*victim.second));
                ++staged;
            } catch (const std::exception &) {
                ++stats_.spill_write_failed;
            }
        }
        ++stats_.evictions;
        index_.erase(victim.first);
        lru_.pop_back();
    }
    if (staged > 0) {
        if (archive_->commit())
            stats_.spills += staged;
        else
            stats_.spill_write_failed += staged;
    }
    stats_.entries = lru_.size();
}

CaptureCacheStats
CaptureCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
CaptureCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    stats_.entries = 0;
}

} // namespace eddie::core
