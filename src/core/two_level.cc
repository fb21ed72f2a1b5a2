#include "core/two_level.hh"

#include <cassert>
#include <sstream>

#include "obs/obs.hh"
#include "transformer/trainer.hh"

namespace decepticon::core {

TwoLevelAttack::TwoLevelAttack(const TwoLevelOptions &opts) : opts_(opts)
{
}

TwoLevelAttack::~TwoLevelAttack() = default;

void
TwoLevelAttack::addCandidate(
    const zoo::ModelIdentity &identity,
    std::shared_ptr<transformer::TransformerClassifier> weights)
{
    assert(identity.isPretrained &&
           "candidates are pre-trained releases");
    assert(weights != nullptr);
    candidates_.add(identity);
    weightsByName_[identity.name] = std::move(weights);
    prepared_ = false;
}

double
TwoLevelAttack::prepare()
{
    assert(!candidates_.models().empty());
    pipeline_ = std::make_unique<Decepticon>(opts_.level1);
    const double accuracy = pipeline_->trainExtractor(candidates_);
    prepared_ = true;
    return accuracy;
}

AttackReport
TwoLevelAttack::execute(
    transformer::TransformerClassifier &victim,
    const gpusim::KernelTrace &victim_trace,
    const std::function<std::vector<bool>()> &query_victim,
    const transformer::Dataset &eval_set,
    const std::vector<transformer::Example> &query_set,
    const std::vector<transformer::Example> &adversarial_seeds)
{
    assert(prepared_ && "prepare() must run before execute()");
    AttackReport report;

    auto attack_span = obs::span("attack.execute");
    auto phase_start = obs::clock().nowMicros();
    const auto end_phase = [&](const char *name) {
        const std::uint64_t now = obs::clock().nowMicros();
        report.recordPhase(name, now - phase_start);
        phase_start = now;
    };

    // ------------------------------------------------------------------
    // Level 1: name the pre-trained parent.
    // ------------------------------------------------------------------
    {
        auto sp = obs::span("attack.phase.identify");
        report.identification =
            pipeline_->identify(victim_trace, query_victim);
    }
    end_phase("identify");

    // ------------------------------------------------------------------
    // Level 2: clone via selective weight extraction from the
    // "downloaded" pre-trained parent.
    // ------------------------------------------------------------------
    auto cloned = cloneVictim(report.identification.pretrainedName,
                              victim, query_set, opts_.cloner);
    if (cloned.clone == nullptr)
        return report; // identified something outside the pool
    report.probe = cloned.probeStats;
    report.extraction = cloned.extractionStats;
    report.reliability = cloned.reliability;
    report.layersExtracted = cloned.layersExtracted;
    report.victimQueries = cloned.victimQueries;
    report.clone = std::move(cloned.clone);
    end_phase("extract");

    // ------------------------------------------------------------------
    // Clone quality.
    // ------------------------------------------------------------------
    const auto victim_eval =
        transformer::Trainer::evaluate(victim, eval_set);
    const auto clone_eval =
        transformer::Trainer::evaluate(*report.clone, eval_set);
    report.victimAccuracy = victim_eval.accuracy;
    report.cloneAccuracy = clone_eval.accuracy;
    report.cloneVictimAgreement = transformer::Trainer::agreement(
        clone_eval.predictions, victim_eval.predictions);
    end_phase("evaluate");

    // ------------------------------------------------------------------
    // Adversarial follow-up with the clone.
    // ------------------------------------------------------------------
    {
        auto sp = obs::span("attack.phase.adversarial");
        report.adversarial = attack::evaluateTransfer(
            victim, *report.clone, adversarial_seeds, opts_.adversarial);
    }
    end_phase("adversarial");

    report.complete = true;
    return report;
}

extraction::CloneResult
TwoLevelAttack::cloneVictim(
    const std::string &parent, transformer::TransformerClassifier &victim,
    const std::vector<transformer::Example> &query_set,
    const extraction::ClonerOptions &opts) const
{
    const transformer::TransformerClassifier *pretrained =
        candidateWeights(parent);
    if (pretrained == nullptr)
        return {};
    return extraction::ModelCloner::extract(victim, *pretrained,
                                            query_set, opts);
}

std::string
formatReport(const AttackReport &report)
{
    std::ostringstream oss;
    const IdentificationResult &id = report.identification;
    oss << "identified parent: " << id.pretrainedName
        << (id.usedQueryProbes ? " (query probes used)" : "") << "\n";
    if (!report.complete) {
        oss << "attack incomplete: identified model not in the "
               "candidate pool\n";
        return oss.str();
    }
    oss << "layers extracted: " << report.layersExtracted
        << "; bits read: " << report.probe.bitsRead
        << " (hammer rounds: " << report.probe.hammerRounds << ")\n"
        << "weights skipped: "
        << report.extraction.weightsSkippedFraction()
        << "; bits excluded: "
        << report.extraction.bitsExcludedFraction()
        << "\n"
        << "victim accuracy " << report.victimAccuracy
        << " | clone accuracy " << report.cloneAccuracy
        << " | agreement " << report.cloneVictimAgreement << "\n"
        << "adversarial success: " << report.adversarial.successRate()
        << " (" << report.adversarial.fooled << "/"
        << report.adversarial.eligible << ")\n";
    return oss.str();
}

} // namespace decepticon::core
