#include "campaign/cache.hh"

#include <cassert>
#include <utility>

namespace decepticon::campaign {

FingerprintCache::FingerprintCache(CacheOptions opts) : opts_(opts)
{
}

void
FingerprintCache::touch(Entry &entry, const std::string &key)
{
    lru_.erase(entry.lruIt);
    lru_.push_front(key);
    entry.lruIt = lru_.begin();
}

CacheLookup
FingerprintCache::lookup(const std::string &key, std::size_t tick)
{
    CacheLookup result;
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++stats_.misses;
        return result;
    }

    Entry &entry = it->second;
    touch(entry, key);
    assert(tick >= entry.identityTick && "ticks are queue positions");
    result.identity = entry.identity;
    if (tick - entry.identityTick > opts_.identityTtl) {
        ++stats_.stale;
        result.outcome = CacheOutcome::Stale;
        return result;
    }

    ++stats_.hits;
    result.outcome = CacheOutcome::Hit;
    if (entry.clone && tick - entry.cloneTick <= opts_.cloneTtl) {
        result.clone = entry.clone;
        result.cloneFresh = true;
    }
    return result;
}

void
FingerprintCache::storeIdentity(const std::string &key,
                                const std::string &identity,
                                std::size_t tick)
{
    if (opts_.capacity == 0)
        return;

    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        Entry &entry = it->second;
        if (entry.identity != identity && entry.clone) {
            // The cached clone descends from a parent this signature
            // no longer resolves to — stale-invalidate it.
            entry.clone.reset();
            ++stats_.invalidations;
        }
        entry.identity = identity;
        entry.identityTick = tick;
        touch(entry, key);
        return;
    }

    if (entries_.size() >= opts_.capacity) {
        const std::string victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        ++stats_.evictions;
    }
    lru_.push_front(key);
    Entry entry;
    entry.identity = identity;
    entry.identityTick = tick;
    entry.lruIt = lru_.begin();
    entries_.emplace(key, std::move(entry));
}

void
FingerprintCache::storeClone(
    const std::string &key,
    std::shared_ptr<const transformer::TransformerClassifier> clone,
    std::size_t tick)
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    it->second.clone = std::move(clone);
    it->second.cloneTick = tick;
}

} // namespace decepticon::campaign
