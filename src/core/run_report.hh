/**
 * @file
 * The one record of an end-to-end attack run, as
 * TwoLevelAttack::execute fills it: the level-1 identification, the
 * level-2 cost ledger (probe, extraction and reliability stats), the
 * clone, its quality numbers, the adversarial transfer and every
 * phase's wall time — serializable as JSON and printable as a
 * one-paragraph summary.
 */

#ifndef DECEPTICON_CORE_RUN_REPORT_HH
#define DECEPTICON_CORE_RUN_REPORT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/adversarial.hh"
#include "core/decepticon.hh"
#include "extraction/bitprobe.hh"
#include "extraction/resilient.hh"
#include "extraction/selective.hh"
#include "transformer/classifier.hh"

namespace decepticon::core {

/** Wall time of one pipeline phase. */
struct PhaseTiming
{
    std::string name;
    std::uint64_t micros = 0;
};

/** Structured, serializable outcome of one full attack run. */
struct AttackReport
{
    // ---- level 1 ----
    IdentificationResult identification;

    // ---- level 2 (zero when no clone was extracted) ----
    extraction::ProbeStats probe;
    extraction::ExtractionStats extraction;
    /** Retry/vote/fallback accounting (zero without resilience). */
    extraction::ReliabilityStats reliability;
    std::size_t layersExtracted = 0;
    std::size_t victimQueries = 0;

    /** The level-2 clone (null if the identified parent has no
     *  registered weights). */
    std::unique_ptr<transformer::TransformerClassifier> clone;

    // ---- outcome quality ----
    double victimAccuracy = 0.0;
    double cloneAccuracy = 0.0;
    double cloneVictimAgreement = 0.0;
    /** Adversarial follow-up with the clone. */
    attack::TransferResult adversarial;
    bool complete = false;

    /** Per-phase wall clock, pipeline order. */
    std::vector<PhaseTiming> phases;

    /** Append one phase's wall time. */
    void recordPhase(std::string name, std::uint64_t micros);

    /** Total wall time across recorded phases. */
    std::uint64_t totalMicros() const;

    /** Single JSON object (schema documented in DESIGN.md §8). */
    std::string toJson() const;

    /** One-paragraph human summary (quickstart's closing print). */
    std::string summaryParagraph() const;
};

} // namespace decepticon::core

#endif // DECEPTICON_CORE_RUN_REPORT_HH
