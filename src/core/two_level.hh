/**
 * @file
 * The complete two-level attack as a single API (paper Fig. 1, end to
 * end): register the candidate pre-trained pool, prepare the level-1
 * extractor, then execute against a black-box victim — identification
 * from the captured trace (+ query probes), level-2 selective weight
 * extraction from the identified parent, clone evaluation, and the
 * adversarial follow-up attack. Produces an AttackReport
 * (core/run_report.hh) that holds every fact of the run. Level 2 has
 * one entry point, cloneVictim(), shared by execute() and the campaign
 * driver's S6. examples/quickstart.cpp drives this API end to end.
 */

#ifndef DECEPTICON_CORE_TWO_LEVEL_HH
#define DECEPTICON_CORE_TWO_LEVEL_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "attack/adversarial.hh"
#include "core/decepticon.hh"
#include "core/run_report.hh"
#include "extraction/cloner.hh"
#include "transformer/classifier.hh"
#include "transformer/task.hh"

namespace decepticon::core {

/** Options for the full pipeline. */
struct TwoLevelOptions
{
    DecepticonOptions level1;
    extraction::ClonerOptions cloner;
    attack::AdversarialOptions adversarial;
};

/**
 * Orchestrates the whole attack. Candidates are registered with their
 * downloadable weights (the attacker can fetch any pre-trained model
 * in his pool); the victim is reached only through its trace, its
 * query API, and the bit-probe channel — never by value.
 */
class TwoLevelAttack
{
  public:
    explicit TwoLevelAttack(const TwoLevelOptions &opts);
    ~TwoLevelAttack();

    /**
     * Register one candidate pre-trained release: its public identity
     * (architecture + software signature + vocabulary) and its
     * weights.
     */
    void addCandidate(
        const zoo::ModelIdentity &identity,
        std::shared_ptr<transformer::TransformerClassifier> weights);

    /**
     * Train the level-1 extractor over the registered candidates.
     * @return held-out fingerprint classification accuracy.
     */
    double prepare();

    /**
     * Run the attack.
     *
     * @param victim the black-box model (query + probe-channel access)
     * @param victim_trace captured kernel execution time series
     * @param query_victim query-output hook for variant detection
     * @param eval_set labeled data for victim/clone quality metrics
     * @param query_set unlabeled inputs for the extraction stopping
     *        rule (agreement with the victim)
     * @param adversarial_seeds inputs to perturb for the follow-up
     */
    AttackReport execute(
        transformer::TransformerClassifier &victim,
        const gpusim::KernelTrace &victim_trace,
        const std::function<std::vector<bool>()> &query_victim,
        const transformer::Dataset &eval_set,
        const std::vector<transformer::Example> &query_set,
        const std::vector<transformer::Example> &adversarial_seeds);

    /**
     * Level 2 against one victim: fetch the registered weights of
     * @p parent and run ModelCloner::extract with @p opts. The one
     * level-2 entry point in src/ (execute() and the campaign driver
     * both call it). Returns an empty result (null clone, zero stats)
     * when @p parent is not a registered candidate.
     */
    extraction::CloneResult cloneVictim(
        const std::string &parent,
        transformer::TransformerClassifier &victim,
        const std::vector<transformer::Example> &query_set,
        const extraction::ClonerOptions &opts) const;

    /** The underlying level-1 pipeline (valid after prepare()). */
    Decepticon &level1() { return *pipeline_; }

    /**
     * Downloadable weights of a registered candidate, or nullptr for
     * an unknown name. The campaign driver builds its victims from
     * these (campaign::buildSessionVictim).
     */
    const transformer::TransformerClassifier *
    candidateWeights(const std::string &name) const
    {
        const auto it = weightsByName_.find(name);
        return it == weightsByName_.end() ? nullptr : it->second.get();
    }

  private:
    TwoLevelOptions opts_;
    zoo::ModelZoo candidates_;
    std::unordered_map<std::string,
                       std::shared_ptr<transformer::TransformerClassifier>>
        weightsByName_;
    std::unique_ptr<Decepticon> pipeline_;
    bool prepared_ = false;
};

/** Render a human-readable summary of a report. */
std::string formatReport(const AttackReport &report);

} // namespace decepticon::core

#endif // DECEPTICON_CORE_TWO_LEVEL_HH
