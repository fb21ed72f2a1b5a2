/**
 * @file
 * Fingerprint→identity result cache for campaign runs. Serving fleets
 * reuse a handful of public pre-trained releases, so the expensive
 * level-1 classification of a victim whose software signature was
 * already attacked is usually wasted work: the cache keys resolved
 * identities (and, optionally, extracted clones) by signature and
 * lets the driver skip level-1 on a hit and level-2 when the cached
 * clone is still fresh.
 *
 * Time is logical: the campaign queue position is the clock tick, so
 * freshness decisions are a pure function of the queue and replay
 * bit-for-bit. Invalidation rules (DESIGN.md §14): identities expire
 * after identityTtl ticks (lookup reports Stale, forcing level-1
 * revalidation); a revalidation that flips the identity drops the
 * cached clone; clones expire after cloneTtl ticks but leave the
 * identity intact; capacity overflow evicts the least recently used
 * signature wholesale.
 */

#ifndef DECEPTICON_CAMPAIGN_CACHE_HH
#define DECEPTICON_CAMPAIGN_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "transformer/classifier.hh"

namespace decepticon::campaign {

/** Cache sizing and freshness knobs (ticks = queue positions). */
struct CacheOptions
{
    /** Max distinct signatures held; 0 disables the cache. */
    std::size_t capacity = 64;
    /** Ticks an identity stays valid before revalidation. */
    std::size_t identityTtl = 1024;
    /** Ticks a cached clone stays fresh enough to reuse. */
    std::size_t cloneTtl = 256;
};

/** Monotone cache health counters. */
struct CacheStats
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t stale = 0;
    std::size_t evictions = 0;
    std::size_t invalidations = 0;
};

/** What a lookup found. */
enum class CacheOutcome
{
    /** Signature never seen (or evicted): run level-1 from scratch. */
    Miss,
    /** Fresh identity: skip level-1. */
    Hit,
    /** Identity known but past its TTL: rerun level-1 to revalidate. */
    Stale,
};

/** Lookup result. */
struct CacheLookup
{
    CacheOutcome outcome = CacheOutcome::Miss;
    /** Cached identity (set on Hit and Stale). */
    std::string identity;
    /** Cached clone, or nullptr (set only on Hit with a live clone). */
    std::shared_ptr<const transformer::TransformerClassifier> clone;
    /** The clone above is within cloneTtl (level-2 skippable). */
    bool cloneFresh = false;
};

/** LRU fingerprint→identity cache. Not thread-safe: the campaign
 *  driver consults it serially in queue order (DESIGN §9 rule 3). */
class FingerprintCache
{
  public:
    explicit FingerprintCache(CacheOptions opts = {});

    /** Consult the cache; updates hit/miss/stale stats and LRU order. */
    CacheLookup lookup(const std::string &key, std::size_t tick);

    /**
     * Record a resolved identity. A revalidation that changes the
     * identity drops the cached clone (it descends from the wrong
     * parent) and counts an invalidation. May evict the LRU entry.
     */
    void storeIdentity(const std::string &key, const std::string &identity,
                       std::size_t tick);

    /** Attach an extracted clone to an existing entry (no-op when the
     *  signature is absent, e.g. already evicted). */
    void storeClone(
        const std::string &key,
        std::shared_ptr<const transformer::TransformerClassifier> clone,
        std::size_t tick);

    const CacheStats &stats() const { return stats_; }
    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::string identity;
        std::size_t identityTick = 0;
        std::shared_ptr<const transformer::TransformerClassifier> clone;
        std::size_t cloneTick = 0;
        /** Position in lru_ (front = most recently used). */
        std::list<std::string>::iterator lruIt;
    };

    void touch(Entry &entry, const std::string &key);

    CacheOptions opts_;
    CacheStats stats_;
    std::unordered_map<std::string, Entry> entries_;
    std::list<std::string> lru_;
};

} // namespace decepticon::campaign

#endif // DECEPTICON_CAMPAIGN_CACHE_HH
