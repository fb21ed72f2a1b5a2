#include "sidechan/fusion.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/obs.hh"

namespace decepticon::sidechan {

namespace {

/** Weight floor for an available channel whose prior is barely above
 *  chance — starving a weak channel entirely would forfeit its
 *  tie-breaking value. */
constexpr double kPriorFloor = 0.05;

/** Per-channel prior gauge names, in fault::Channel order, so the
 *  disabled-telemetry path builds no string. */
constexpr const char *kPriorGauges[fault::kNumChannels] = {
    "sidechan.prior.timestamp", "sidechan.prior.power",
    "sidechan.prior.thermal", "sidechan.prior.profiler"};

} // anonymous namespace

FusionEngine::FusionEngine(std::size_t num_classes)
    : numClasses_(num_classes)
{
    assert(num_classes > 0);
}

void
FusionEngine::setReliabilityPrior(fault::Channel channel,
                                  double heldout_accuracy)
{
    const auto c = static_cast<std::size_t>(channel);
    priors_[c] = std::clamp(heldout_accuracy, 0.0, 1.0);
    registered_[c] = true;
    obs::gaugeSet(kPriorGauges[c], priors_[c]);
}

double
FusionEngine::channelWeight(fault::Channel channel) const
{
    const auto c = static_cast<std::size_t>(channel);
    if (!registered_[c])
        return 0.0;
    // Skill = excess accuracy over chance, renormalized to [0, 1].
    // An at-chance channel carries no information; the floor keeps a
    // barely-better-than-chance channel's tie-breaking value alive.
    const double chance = 1.0 / static_cast<double>(numClasses_);
    const double skill =
        std::max(0.0, (priors_[c] - chance) / (1.0 - chance));
    return std::max(kPriorFloor, skill);
}

FusionDecision
FusionEngine::fuse(const std::vector<ChannelEvidence> &evidence) const
{
    obs::StageTimer stage_timer("fuse");
    FusionDecision decision;

    // Maximum possible evidence mass: every registered channel at
    // quality 1. The denominator of the calibration term.
    double max_mass = 0.0;
    for (std::size_t c = 0; c < fault::kNumChannels; ++c) {
        if (registered_[c])
            max_mass += channelWeight(static_cast<fault::Channel>(c));
    }

    std::vector<double> logp(numClasses_, 0.0);
    double mass = 0.0;
    for (const auto &ev : evidence) {
        if (!ev.available || ev.probs.empty())
            continue;
        assert(ev.probs.size() == numClasses_);
        const double w = channelWeight(ev.channel) *
                         std::clamp(ev.quality, 0.0, 1.0);
        if (w <= 0.0)
            continue;
        ++decision.channelsAvailable;
        mass += w;
        for (std::size_t k = 0; k < numClasses_; ++k)
            logp[k] += w * std::log(std::max(ev.probs[k], 1e-9));
    }

    if (decision.channelsAvailable == 0 || mass <= 0.0) {
        decision.verdict = FusionVerdict::InsufficientEvidence;
        obs::count("sidechan.fusion_insufficient");
        obs::flightRecord(obs::FlightEventKind::Verdict, "fuse",
                          "insufficient_evidence");
        return decision;
    }

    // Weighted geometric mean of the posteriors: normalize the
    // exponent by the mass so the sharpness of the fused posterior
    // reflects channel agreement, not channel count.
    double peak = -1e300;
    for (std::size_t k = 0; k < numClasses_; ++k) {
        logp[k] /= mass;
        peak = std::max(peak, logp[k]);
    }
    decision.fusedProbs.resize(numClasses_);
    double z = 0.0;
    for (std::size_t k = 0; k < numClasses_; ++k) {
        decision.fusedProbs[k] = std::exp(logp[k] - peak);
        z += decision.fusedProbs[k];
    }
    for (auto &p : decision.fusedProbs)
        p /= z;

    const auto top = std::max_element(decision.fusedProbs.begin(),
                                      decision.fusedProbs.end());
    decision.label =
        static_cast<int>(top - decision.fusedProbs.begin());
    decision.coverage =
        max_mass > 0.0 ? std::min(1.0, mass / max_mass) : 0.0;
    // Calibration: identical posteriors earn less confidence when
    // most of the expected evidence never arrived.
    decision.confidence = *top * std::sqrt(decision.coverage);
    decision.verdict = FusionVerdict::Identified;
    obs::count("sidechan.fusion_decisions");
    obs::flightRecord(obs::FlightEventKind::Verdict, "fuse", "identified",
                      decision.confidence);
    return decision;
}

} // namespace decepticon::sidechan
