/**
 * @file
 * The Decepticon pipeline (paper Fig. 1): level-1 pre-trained model
 * identification from a victim's kernel execution trace, backed by
 * the CNN fingerprint extractor and, when architectural hints are
 * ambiguous, the input-dependent model variant detector driven by
 * query outputs. The identified pre-trained model unlocks the level-2
 * gray/white-box attacks (selective weight extraction, cloning,
 * adversarial inputs) implemented in the extraction and attack
 * libraries.
 */

#ifndef DECEPTICON_CORE_DECEPTICON_HH
#define DECEPTICON_CORE_DECEPTICON_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/channel.hh"
#include "fingerprint/cnn.hh"
#include "fingerprint/dataset.hh"
#include "fingerprint/index/lsh.hh"
#include "gpusim/kernel.hh"
#include "sidechan/classifier.hh"
#include "sidechan/fusion.hh"
#include "zoo/vocab.hh"
#include "zoo/zoo.hh"

namespace decepticon::core {

/**
 * Pipeline configuration. The exhaustive path always trains the
 * power/thermal/profiler classifiers and fusion priors alongside the
 * CNN; the candidate count (top 3) and the ambiguity band of the
 * decision tail are fixed in decepticon.cc.
 */
struct DecepticonOptions
{
    fingerprint::DatasetOptions datasetOptions;
    fingerprint::CnnTrainOptions cnnOptions;
    std::uint64_t seed = 1;
    /**
     * Zoo size at which level-1 switches from the exhaustive CNN
     * classifier to the sublinear fingerprint index (DESIGN.md §15):
     * pools with at least this many pre-trained lineages train the
     * embedding/LSH index instead of the CNN stack. 0 disables the
     * indexed path entirely (always exhaustive).
     */
    std::size_t indexZooThreshold = 256;
};

/** Minimum fraction of quorum votes behind the winning lineage before
 *  the timestamp channel alone decides in identifyFused. */
inline constexpr double kQuorumThreshold = 0.5;

/**
 * Knob for the unreliable-channel identification path: how confident
 * level 1 must be on the repaired consensus trace before the
 * timestamp channel alone decides.
 */
struct ResilientIdentifyOptions
{
    /** Minimum top-1 probability on the repaired trace. Gates the
     *  CNN and the fingerprint index lookup alike. */
    double cnnConfidenceThreshold = 0.45;
};

/**
 * One victim observation across every side channel the attacker
 * managed to tap. Any subset of the four channels may be empty —
 * identifyFused degrades to whatever is present.
 */
struct MultiChannelCapture
{
    /** Kernel-timestamp captures (the classic Decepticon channel). */
    std::vector<gpusim::KernelTrace> timestampCaptures;
    /** Power-rail sample series, one per capture attempt. */
    std::vector<std::vector<double>> powerCaptures;
    /** Die-temperature sample series, one per capture attempt. */
    std::vector<std::vector<double>> thermalCaptures;
    /** Aggregate profiler counter vectors, one per capture attempt. */
    std::vector<std::vector<double>> profilerCaptures;
};

/** Level-1 output. */
struct IdentificationResult
{
    std::string pretrainedName;
    double topProbability = 0.0;
    std::vector<std::string> candidates; ///< CNN top-k, descending
    bool usedQueryProbes = false;
    // --- identifyFused() accounting (defaults for identify()) ---
    /** Noisy captures consumed (1 for the single-trace path). */
    std::size_t capturesUsed = 1;
    /** Fraction of quorum votes behind the chosen lineage. */
    double quorumAgreement = 1.0;
    /** The label came from (or was checked against) channel fusion. */
    bool usedChannelFusion = false;
    /**
     * Every channel was dark or every stage abstained: pretrainedName
     * is empty and no guess was made. Never set alongside a name.
     */
    bool insufficientEvidence = false;
    /** Calibrated fusion confidence (0 when fusion never ran). */
    double fusedConfidence = 0.0;
    /** Channels that delivered usable evidence this identification. */
    std::size_t channelsAvailable = 1;
    /** Names of those channels ("timestamp", "power", ...). */
    std::vector<std::string> channelsUsed;
};

/**
 * Level-1 attacker state: a CNN trained over the candidate pool's
 * fingerprints plus the probe-based variant detector.
 */
class Decepticon
{
  public:
    explicit Decepticon(const DecepticonOptions &opts);

    /**
     * Train the pre-trained model extractor over the candidate pool
     * (the attacker profiles every candidate on his own GPU).
     * Returns held-out (80/20) classification accuracy.
     *
     * Pools with indexZooThreshold or more pre-trained lineages train
     * the sublinear fingerprint index instead of the CNN stack; every
     * identify entry point then routes through the indexed path. The
     * decision tail (top-k, ambiguity handling, query probing) is
     * shared between the two paths bit for bit.
     */
    double trainExtractor(const zoo::ModelZoo &candidate_pool);

    /**
     * Identify the victim's pre-trained model from an observed trace
     * (identifyBatch of one).
     *
     * @param victim_trace the captured kernel execution time series
     * @param query_victim optional black-box query access: returns
     *        the victim's correctness vector over standardProbeSet().
     *        Used only when the top candidates are ambiguous.
     */
    IdentificationResult identify(
        const gpusim::KernelTrace &victim_trace,
        const std::function<std::vector<bool>()> &query_victim = {}) ;

    /**
     * Identify many victims in one batch: scoring (rasterize + CNN, or
     * embed + index lookup) fans out across the sched pool, the
     * per-victim decision tail (ambiguity handling, query probing)
     * runs serially in queue order. results[i] is bit-identical to a
     * serial identify(*traces[i], query_hooks[i]) call at any lane
     * count.
     * query_hooks is either empty (no query access for any victim) or
     * one hook per trace; individual hooks may be null.
     */
    std::vector<IdentificationResult> identifyBatch(
        const std::vector<const gpusim::KernelTrace *> &traces,
        const std::vector<std::function<std::vector<bool>()>>
            &query_hooks = {});

    /**
     * Identify from whatever channel subset survived the victim's
     * defenses. The timestamp captures are repaired into one consensus
     * trace; the consensus and every capture are scored in one batch,
     * and each casts a quorum vote. The decision graph has four steps:
     *
     *  1. zero usable channels -> explicit insufficient-evidence
     *     verdict (never a silent guess);
     *  2. healthy timestamp channel (confident consensus + quorum) ->
     *     the quorum winner, or the query-probe pick;
     *  3. otherwise, on the exhaustive path (the indexed path trains
     *     no side-channel classifiers), fuse every usable channel's
     *     posterior and adopt the fused label: as "fused" at a
     *     calibrated confidence of 0.35 or above, as
     *     "fused_best_effort" below it;
     *  4. otherwise report insufficient evidence.
     */
    IdentificationResult identifyFused(
        const MultiChannelCapture &capture,
        const ResilientIdentifyOptions &ropts = {},
        const std::function<std::vector<bool>()> &query_victim = {});

    /** The trained CNN (valid after trainExtractor on the exhaustive
     *  path; never trained on the indexed path). */
    fingerprint::FingerprintCnn &cnn() { return *cnn_; }

    /** The fingerprint index, or nullptr on the exhaustive path. */
    const fingerprint::FingerprintIndex *index() const
    {
        return index_.get();
    }

    /** Lineage names in label order. */
    const std::vector<std::string> &classNames() const
    {
        return classNames_;
    }

  private:
    /**
     * Level-1 scoring, the one place the CNN/index fork lives: one
     * probability vector per trace (rasterize + CNN on the exhaustive
     * path; embed + shortlist + re-rank on the indexed path). Pure per
     * trace and parallel; obs accounting runs serially in queue order.
     */
    std::vector<std::vector<double>> scoreTraces(
        const std::vector<const gpusim::KernelTrace *> &traces);

    /**
     * The decision tail shared by identifyBatch() and identifyFused():
     * top-k + ambiguity handling over an already-computed probability
     * vector, query-probe disambiguation, confidence gauges.
     */
    IdentificationResult resolveFromProbabilities(
        const std::vector<double> &probs,
        const std::function<std::vector<bool>()> &query_victim);

    /** trainExtractor body for pools at/above indexZooThreshold. */
    double trainIndexed(const zoo::ModelZoo &candidate_pool);

    /** Set the class table: lineage names in label order, and each
     *  lineage's vocabulary profile looked up in the pool. */
    void setClasses(const zoo::ModelZoo &candidate_pool,
                    std::vector<std::string> names);

    DecepticonOptions opts_;
    std::unique_ptr<fingerprint::FingerprintCnn> cnn_;
    /** Sublinear level-1 (valid after trainExtractor on large pools). */
    std::unique_ptr<fingerprint::FingerprintIndex> index_;
    std::vector<std::string> classNames_;
    std::vector<zoo::VocabularyProfile> classProfiles_;
    std::vector<zoo::QueryProbe> probes_;
    /** Per-channel lineage classifiers, indexed by fault::Channel
     *  (Timestamp slot unused — the CNN owns that channel). */
    std::array<std::unique_ptr<sidechan::ChannelClassifier>,
               fault::kNumChannels>
        channelClassifiers_;
    /** Confidence-weighted late fusion (valid after trainExtractor
     *  on the exhaustive path). */
    std::unique_ptr<sidechan::FusionEngine> fusion_;
};

/**
 * Convenience black-box query hook for a victim whose vocabulary
 * profile is known to the simulation (not to the attacker).
 */
std::function<std::vector<bool>()>
makeVictimQueryHook(const zoo::VocabularyProfile &victim_profile);

} // namespace decepticon::core

#endif // DECEPTICON_CORE_DECEPTICON_HH
