/**
 * @file
 * The traced replay: one campaign queue run through the layers'
 * public functions the way campaign::CampaignDriver::run runs it (S1
 * ingest fanned out on sched::parallelFor, S2–S6 serial in queue
 * order), with a span around every layer call. The per-layer metrics
 * come from here; the end-to-end metrics never run with it.
 */

#ifndef CAMPAIGNBENCH_REPLAY_HH
#define CAMPAIGNBENCH_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "core/two_level.hh"
#include "ledger.hh"
#include "zoo/session.hh"

namespace campaignbench {

/** Spans, counts and per-session outcomes of one replay. */
struct ReplayResult
{
    Ledger ledger;
    /** The replay's own rollup: one VictimOutcome per session. */
    decepticon::core::CampaignReport rollup;
    decepticon::campaign::CacheStats cache;

    /** Traces sent to identifyBatch, and those that needed probes. */
    std::uint64_t identifyTraces = 0;
    std::uint64_t queryProbeIdentifications = 0;

    /** Index path: lookups, summed shortlist size, fallbacks. */
    std::uint64_t indexLookups = 0;
    std::uint64_t shortlistClassesSum = 0;
    std::uint64_t indexFallbacks = 0;

    /** Level 2. */
    std::uint64_t clonesAttempted = 0;
    std::uint64_t clonesReachingTarget = 0;
    std::uint64_t layersExtractedSum = 0;
    std::uint64_t bitsRead = 0;
    std::uint64_t victimQueries = 0;
};

/**
 * Replay the queue on a fresh cache, timing spans on steady_clock. The
 * fingerprint spans re-run the rasterize/CNN (or embed/index) step on
 * the traces each identifyBatch call classifies, right before the call
 * on odd batches and right after it on even ones; that re-run is kept
 * out of the driver wall.
 */
ReplayResult
replayQueue(decepticon::core::TwoLevelAttack &attack,
            const decepticon::core::TwoLevelOptions &attack_options,
            const decepticon::campaign::CampaignOptions &opts,
            const std::vector<decepticon::zoo::VictimSessionSpec> &sessions);

/** Whether two reports decided every session alike: identity, cache
 *  hit, abstention, fresh clone and reused clone. */
bool sameDecisions(const decepticon::core::CampaignReport &a,
                   const decepticon::core::CampaignReport &b);

/**
 * Compare the replay with a driver's report: per-session identity,
 * cache outcome and clone/no-clone, plus the cache counters. Returns
 * a description of the first mismatch, or "" when they agree.
 */
std::string compareWithReport(const ReplayResult &replay,
                              const decepticon::core::CampaignReport &report);

} // namespace campaignbench

#endif // CAMPAIGNBENCH_REPLAY_HH
