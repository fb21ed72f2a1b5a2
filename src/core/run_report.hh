/**
 * @file
 * Machine-readable summary of one end-to-end attack run. Where
 * AttackReport carries the attack's artifacts (the clone itself, raw
 * stat structs), AttackRunReport is the telemetry view: every phase's
 * wall time, the level-1 identification outcome and fallbacks, the
 * level-2 cost ledger (bits, rounds, retries, votes, fallbacks), and
 * the clone-quality numbers — serializable as JSON, foldable into a
 * MetricsRegistry, and printable as a one-paragraph summary. It can
 * be assembled piecewise, so examples that drive the pipeline stages
 * by hand (quickstart) produce the same report as TwoLevelAttack.
 */

#ifndef DECEPTICON_CORE_RUN_REPORT_HH
#define DECEPTICON_CORE_RUN_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/decepticon.hh"
#include "extraction/bitprobe.hh"
#include "extraction/selective.hh"
#include "obs/watchdog.hh"

namespace decepticon::core {

/** Wall time of one pipeline phase. */
struct PhaseTiming
{
    std::string name;
    std::uint64_t micros = 0;
};

/** Aggregated, serializable telemetry of one full attack run. */
struct AttackRunReport
{
    // ---- level 1 ----
    std::string identifiedParent;
    double identifyConfidence = 0.0;
    bool usedQueryProbes = false;
    std::size_t capturesUsed = 0;
    double quorumAgreement = 0.0;
    bool usedChannelFusion = false;
    /** Every identification stage abstained; no parent was named. */
    bool insufficientEvidence = false;
    double fusedConfidence = 0.0;
    std::size_t channelsAvailable = 0;
    /** Channels that delivered usable evidence ("timestamp", ...). */
    std::vector<std::string> channelsUsed;

    // ---- level 2 ----
    std::size_t layersExtracted = 0;
    std::size_t bitsRead = 0;
    std::size_t hammerRounds = 0;
    std::size_t totalWeights = 0;
    std::size_t weightsSkipped = 0;
    std::size_t probeRetries = 0;
    std::size_t voteReads = 0;
    std::size_t probeFailures = 0;
    std::size_t fallbackBits = 0;
    std::size_t exhaustedBits = 0;
    std::size_t victimQueries = 0;

    // ---- outcome quality ----
    double victimAccuracy = 0.0;
    double cloneAccuracy = 0.0;
    double cloneVictimAgreement = 0.0;
    double adversarialSuccess = 0.0;
    bool complete = false;

    /** Per-phase wall clock, pipeline order. */
    std::vector<PhaseTiming> phases;

    /** SLO verdict accumulated over the run (empty = never ticked). */
    obs::WatchdogReport watchdog;

    /** Fold the level-1 outcome in. */
    void recordIdentification(const IdentificationResult &ident);

    /** Fold the level-2 cost ledger in. */
    void recordExtraction(const extraction::ProbeStats &probe,
                          const extraction::ExtractionStats &stats,
                          std::size_t layers_extracted,
                          std::size_t victim_queries);

    /** Append one phase's wall time. */
    void recordPhase(std::string name, std::uint64_t micros);

    /** Total wall time across recorded phases. */
    std::uint64_t totalMicros() const;

    /** Single JSON object (schema documented in DESIGN.md §8). */
    std::string toJson() const;

    /**
     * Publish as "run.*" gauges plus "phase.<name>.micros" per phase
     * — the registry view a JSONL dump or BENCH snapshot exports.
     */
    void toMetrics(obs::MetricsRegistry &registry) const;

    /** One-paragraph human summary (quickstart's closing print). */
    std::string summaryParagraph() const;
};

} // namespace decepticon::core

#endif // DECEPTICON_CORE_RUN_REPORT_HH
