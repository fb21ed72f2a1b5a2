/**
 * @file
 * The attack-as-a-service campaign driver: dequeues victim sessions,
 * ingests their (possibly faulty) trace captures in parallel, runs
 * batched level-1 classification across victims, consults the
 * fingerprint result cache, extracts clones over the serial bit-probe
 * channel, and rolls the whole queue up into a core::CampaignReport.
 *
 * Batch pipeline (barrier points documented in DESIGN.md §14):
 *   S1 parallel ingest — trace generation, fault corruption, repair;
 *      pure per session, fans out on src/sched;
 *   S2 serial cache consult in queue order;
 *   S3 batched level-1 over the miss/stale sessions
 *      (Decepticon::identifyBatch: parallel rasterize + CNN — or
 *      parallel embed + indexed shortlist on large zoos — serial
 *      decision tail);
 *   S4 serial blackout verdicts (identifyFused abstains honestly);
 *   S5 serial cache update in queue order;
 *   S6 serial level-2 (the bit-probe channel is stateful, DESIGN §9
 *      rule 3; S6 is still serial): each session's victim comes from
 *      buildSessionVictim and is cloned through
 *      TwoLevelAttack::cloneVictim, the same call execute() makes;
 *      then the rollup.
 * Every cross-session reduction happens in queue order, so the
 * resulting CampaignReport JSON is byte-identical at any lane count.
 */

#ifndef DECEPTICON_CAMPAIGN_CAMPAIGN_HH
#define DECEPTICON_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "core/campaign_report.hh"
#include "core/two_level.hh"
#include "transformer/classifier.hh"
#include "transformer/task.hh"
#include "zoo/session.hh"

namespace decepticon::campaign {

/** Campaign driver knobs. */
struct CampaignOptions
{
    /** Sessions ingested and classified per batch. */
    std::size_t batchSize = 32;
    /** Fingerprint result cache sizing and freshness. */
    CacheOptions cache;
    /** Level-2 extraction policy applied to every session. */
    extraction::ClonerOptions cloner;
    /** Run level-2 at all (off = identification-only campaign). */
    bool runLevel2 = true;
    /** Reuse a fresh cached clone instead of re-extracting. */
    bool reuseCachedClones = true;
    /** Give level-1 query-probe access to ambiguous victims. */
    bool useQueryProbes = true;
    /** Query-set size for the extraction stopping rule. */
    std::size_t querySetSize = 24;
    /** Architecture of the victims' (tiny) serving models; must match
     *  the candidates registered with the TwoLevelAttack. */
    transformer::TransformerConfig victimConfig;
    /** Campaign-level seed (query tasks, capture jitter). */
    std::uint64_t seed = 1;
    /** recordDropRate at traceFaultSeverity = 1 (linear scale). */
    double maxRecordDropRate = 0.35;
    /** truncateProbability at traceFaultSeverity = 1. */
    double maxTruncateProbability = 0.5;
};

/**
 * The cache key of a victim session: software signature + the
 * architecture dims the trace shape leaks. Two sessions with equal
 * keys are indistinguishable at the fingerprint layer, which is what
 * makes caching sound.
 */
std::string sessionCacheKey(const zoo::VictimSessionSpec &spec);

/** One campaign session's victim and its extraction query set. */
struct SessionVictim
{
    /** The true lineage's weights behind a privately fine-tuned head,
     *  reachable only via the probe channel and its query API. */
    transformer::TransformerClassifier model;
    /** Unlabeled inputs for the extraction stopping rule. */
    transformer::Dataset querySet;
};

/**
 * The campaign's victim recipe for one session: the registered
 * weights of spec.lineage (copied once), a head reset to
 * spec.numClasses classes, and opts.querySetSize query inputs drawn
 * from the session's MarkovTask. S6 clones exactly this victim through
 * TwoLevelAttack::cloneVictim.
 */
SessionVictim buildSessionVictim(const core::TwoLevelAttack &attack,
                                 const zoo::VictimSessionSpec &spec,
                                 const CampaignOptions &opts);

/** Multi-victim campaign driver over one prepared TwoLevelAttack. */
class CampaignDriver
{
  public:
    /**
     * @param attack prepared attack (candidates registered, prepare()
     *        already called); reused across every session
     * @param opts campaign knobs
     */
    CampaignDriver(core::TwoLevelAttack &attack, CampaignOptions opts);

    /** Run the whole queue; returns the campaign rollup. */
    core::CampaignReport run(
        const std::vector<zoo::VictimSessionSpec> &sessions);

    /** The cache (inspectable between runs; persists across run()). */
    const FingerprintCache &cache() const { return cache_; }

  private:
    core::TwoLevelAttack &attack_;
    CampaignOptions opts_;
    FingerprintCache cache_;
    /** Monotonic cache clock: one tick per session ever processed.
     *  Queue positions alone would rewind between run() calls. */
    std::uint64_t cacheClock_ = 0;
};

} // namespace decepticon::campaign

#endif // DECEPTICON_CAMPAIGN_CAMPAIGN_HH
