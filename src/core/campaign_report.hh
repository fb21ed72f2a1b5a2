/**
 * @file
 * Machine-readable rollup of one multi-victim campaign. Where
 * AttackReport is the record of a single end-to-end attack,
 * CampaignReport aggregates a whole victim queue: identification and
 * cloning outcomes per victim, cache economics, time-to-clone
 * percentiles via obs::LogHistogram, and the watchdog verdict judged
 * from the report's own rows, batch by batch. Serializable as JSON
 * (byte-identical across lane counts and telemetry settings) and
 * foldable into a MetricsRegistry as campaign.* gauges.
 */

#ifndef DECEPTICON_CORE_CAMPAIGN_REPORT_HH
#define DECEPTICON_CORE_CAMPAIGN_REPORT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/quantile.hh"

namespace decepticon::obs {
class MetricsRegistry;
}

namespace decepticon::core {

/** Outcome of one victim session inside a campaign. */
struct VictimOutcome
{
    /** Queue position (matches VictimSessionSpec::index). */
    std::size_t index = 0;
    /** Ground-truth pre-trained lineage the victim serves. */
    std::string lineage;
    /** Lineage the attacker settled on ("" on abstention). */
    std::string identifiedParent;
    /** identifiedParent matches lineage. */
    bool identityCorrect = false;
    /** Identity served from the fingerprint cache (level-1 skipped). */
    bool cacheHit = false;
    /** Level-2 skipped: a fresh cached clone was reused. */
    bool cloneReused = false;
    /** The session's channels were completely dark. */
    bool blackout = false;
    /** Every identification stage abstained (no silent guess). */
    bool abstained = false;
    /** A clone was extracted (freshly, this session). */
    bool cloned = false;
    /** Clone-victim agreement (0 when no clone was evaluated). */
    double agreement = 0.0;
    /** Wall time from session dequeue to usable clone (or verdict). */
    std::uint64_t timeToCloneMicros = 0;
};

/** One batch whose rows crossed the abstain band. */
struct WatchdogFinding
{
    /** "abstain_anomaly". */
    std::string kind;
    /** What the finding is about ("level1.fusion"). */
    std::string subject;
    /** Observed abstain rate. */
    double value = 0.0;
    /** The band it crossed. */
    double threshold = 0.0;
    /** Human-readable one-liner. */
    std::string message;
};

/** Verdict over a campaign's rows, accumulated by judgeBatch. */
struct WatchdogReport
{
    /** Batches judged. */
    std::uint64_t batches = 0;
    std::vector<WatchdogFinding> findings;
    /** The last batch with enough rows was above the band; the next
     *  crossing is flagged only after a batch below it. */
    bool abstainFlagged = false;

    bool healthy() const { return findings.empty(); }
};

/**
 * Judge one batch's rows. Flags an abstain_anomaly when the abstained
 * rows exceed 0.5 of the rows that ran level-1 (every row but the
 * cache hits), judging only batches with at least 4 such rows. A
 * finding is flagged once at the crossing and re-armed by a later
 * batch below the band.
 */
void judgeBatch(std::span<const VictimOutcome> rows,
                WatchdogReport &watchdog);

/** Aggregated, serializable rollup of one campaign run. */
struct CampaignReport
{
    // ---- queue ----
    std::size_t sessions = 0;
    std::size_t identified = 0; ///< sessions that named a parent
    std::size_t correct = 0;    ///< ... and named the right one
    std::size_t abstained = 0;
    std::size_t blackouts = 0;

    // ---- cache economics (filled from campaign::CacheStats) ----
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
    std::size_t cacheStale = 0;
    std::size_t cacheEvictions = 0;
    std::size_t cacheInvalidations = 0;

    // ---- level 2 ----
    std::size_t clonesBuilt = 0;
    std::size_t cloneReuses = 0;

    /** Campaign wall time (sum of per-batch wall times). */
    std::uint64_t totalMicros = 0;

    /** Per-victim time-to-clone distribution (microseconds). */
    obs::LogHistogram timeToClone;

    /** Per-victim outcomes, queue order. */
    std::vector<VictimOutcome> victims;

    /** judgeBatch's verdict over every batch of the run. */
    WatchdogReport watchdog;

    /** Fold one victim's outcome into the counters + histogram. */
    void recordVictim(VictimOutcome outcome);

    /** Fraction of non-abstaining sessions that named the right
     *  lineage (0 when every session abstained). */
    double identificationAccuracy() const;

    /** cacheHits / (hits + misses + stale); 0 with no lookups. */
    double cacheHitRate() const;

    /** Throughput over the whole queue; 0 when totalMicros is 0. */
    double victimsPerSec() const;

    /** Single JSON object (schema documented in DESIGN.md §14).
     *  Deterministic: identical queues yield identical bytes. */
    std::string toJson() const;

    /** Publish as "campaign.*" gauges (victims_per_sec, cache.hit_rate,
     *  time_to_clone.p50/p99_micros, ...). */
    void toMetrics(obs::MetricsRegistry &registry) const;
};

} // namespace decepticon::core

#endif // DECEPTICON_CORE_CAMPAIGN_REPORT_HH
