/**
 * @file
 * Confidence-weighted late fusion over per-channel evidence. Each
 * channel contributes a posterior over lineages plus a runtime signal
 * quality; the engine weights each by a per-channel reliability prior
 * learned from held-out accuracy during training (the fault layer's
 * accounting view of how trustworthy a channel is), fuses in
 * log-space, and reports a confidence calibrated by how much of the
 * total possible evidence mass was actually present — so the same
 * posterior shape earns less confidence when most channels were dark.
 *
 * Graceful degradation is structural: any nonempty subset of channels
 * yields a decision with a (possibly low) calibrated confidence, and
 * the empty subset yields an explicit insufficient-evidence verdict —
 * never a silent guess.
 */

#ifndef DECEPTICON_SIDECHAN_FUSION_HH
#define DECEPTICON_SIDECHAN_FUSION_HH

#include <array>
#include <cstddef>
#include <vector>

#include "fault/channel.hh"

namespace decepticon::sidechan {

/** One channel's contribution to a fusion decision. */
struct ChannelEvidence
{
    fault::Channel channel = fault::Channel::Timestamp;
    /** False when the channel delivered nothing usable. */
    bool available = false;
    /** Posterior over lineages (empty when unavailable). */
    std::vector<double> probs;
    /**
     * Runtime signal quality in [0, 1]: how intact this capture set
     * was (sample coverage, quorum agreement). Scales the channel's
     * prior weight for this decision only.
     */
    double quality = 1.0;
};

enum class FusionVerdict
{
    Identified,
    InsufficientEvidence,
};

/** Outcome of one fusion decision. */
struct FusionDecision
{
    FusionVerdict verdict = FusionVerdict::InsufficientEvidence;
    int label = -1;
    /** Calibrated confidence: fused top-1 posterior scaled by the
     *  fraction of total evidence mass present. 0 on insufficient. */
    double confidence = 0.0;
    std::vector<double> fusedProbs;
    std::size_t channelsAvailable = 0;
    /** Fraction of the maximum possible evidence weight present. */
    double coverage = 0.0;
};

/**
 * The late-fusion engine. Stateless per decision; holds the learned
 * per-channel reliability priors (held-out accuracies).
 */
class FusionEngine
{
  public:
    explicit FusionEngine(std::size_t num_classes);

    std::size_t numClasses() const { return numClasses_; }

    /** Record a channel's held-out accuracy as its reliability prior.
     *  Channels never registered carry zero weight and do not count
     *  toward coverage. */
    void setReliabilityPrior(fault::Channel channel,
                             double heldout_accuracy);

    /**
     * Effective fusion weight of a channel at quality 1: its prior's
     * excess accuracy over chance, floored for registered channels.
     */
    double channelWeight(fault::Channel channel) const;

    /** Fuse the available evidence into one decision. */
    FusionDecision
    fuse(const std::vector<ChannelEvidence> &evidence) const;

  private:
    std::size_t numClasses_;
    std::array<double, fault::kNumChannels> priors_{};
    std::array<bool, fault::kNumChannels> registered_{};
};

} // namespace decepticon::sidechan

#endif // DECEPTICON_SIDECHAN_FUSION_HH
