/**
 * @file
 * Level-2 end-to-end model cloning on real (trainable) transformer
 * victims: starting from the identified pre-trained model, the cloner
 * extracts the task head in full, then selectively extracts encoder
 * layers from the last toward the first — the paper's ordering, which
 * exploits the low accuracy impact of early layers (Table 1) — and
 * stops as soon as the clone's predictions agree with the victim's on
 * a query set.
 */

#ifndef DECEPTICON_EXTRACTION_CLONER_HH
#define DECEPTICON_EXTRACTION_CLONER_HH

#include <memory>
#include <optional>
#include <vector>

#include "extraction/bitprobe.hh"
#include "extraction/dram.hh"
#include "extraction/resilient.hh"
#include "extraction/selective.hh"
#include "fault/fault.hh"
#include "transformer/classifier.hh"
#include "transformer/task.hh"

namespace decepticon::extraction {

/** Cloning options. */
struct ClonerOptions
{
    ExtractionPolicy policy;
    /**
     * Stop once clone/victim prediction agreement reaches this; the
     * embeddings are extracted last if every encoder layer leaves the
     * agreement short of it.
     */
    double agreementTarget = 0.98;
    /**
     * Model the rowhammer channel with DRAM physics (hammerable-row
     * limits, cold/warm round costs). Unset = idealized channel.
     */
    std::optional<DramGeometry> dramGeometry;
    /** Row-mask seed when dramGeometry is set. */
    std::uint64_t dramSeed = 0;
    /**
     * Fault process applied to the bit-probe channel (unset =
     * perfectly reliable channel). Deterministic per FaultSpec::seed.
     */
    std::optional<fault::FaultSpec> faultSpec;
    /**
     * Wrap the channel in a RetryingProber (false = raw, fault-exposed
     * reads — the resilience-disabled baseline). The fallback baseline
     * is the clone's pre-extraction state: the identified pre-trained
     * weights plus the freshly reset head.
     */
    bool resilient = false;
};

/** Outcome of a cloning run. */
struct CloneResult
{
    std::unique_ptr<transformer::TransformerClassifier> clone;
    ProbeStats probeStats;
    ExtractionStats extractionStats;
    /** Retry/vote/fallback accounting (zero without resilience). */
    ReliabilityStats reliability;
    /** Ground-truth injected-fault counts (zero without faultSpec). */
    fault::FaultCounters faultCounters;
    /** Encoder layers actually extracted (from the last backward). */
    std::size_t layersExtracted = 0;
    /** Agreement with the victim after each extraction step. */
    std::vector<double> agreementTrajectory;
    /**
     * Black-box queries issued to the victim (prediction-API calls for
     * the agreement stopping rule). Contrast with the ~18K inferences
     * the paper's substitute-model baseline consumes.
     */
    std::size_t victimQueries = 0;
};

/**
 * Group a model's parameters the way the cloner addresses its weight
 * memory: group 0 = embeddings, groups 1..L = encoders, group L+1 =
 * head.
 */
std::vector<nn::ParamRefs>
victimParamGroups(transformer::TransformerClassifier &victim);

/** Read a parameter group's weights as one flat vector. */
std::vector<float> groupWeights(const nn::ParamRefs &group);

/**
 * Snapshot parameter groups into a weight memory: every group but the
 * last becomes a layer (slot g holds groupWeights(groups[g])), the
 * last group becomes the head.
 */
zoo::WeightStore snapshotGroups(const std::vector<nn::ParamRefs> &groups);

/** Write a flat vector back into a parameter group. */
void setGroupWeights(const nn::ParamRefs &group,
                     const std::vector<float> &w);

/** The level-2 extraction driver. */
class ModelCloner
{
  public:
    /**
     * Clone a black-box victim.
     *
     * @param victim the victim model; used only (a) through the
     *        bit-probe channel and (b) as a query API for agreement
     *        checks, matching the threat model
     * @param pretrained the identified pre-trained model (level 1
     *        output); supplies every baseline weight
     * @param query_set inputs used to measure clone/victim agreement
     */
    static CloneResult extract(transformer::TransformerClassifier &victim,
                               const transformer::TransformerClassifier
                                   &pretrained,
                               const std::vector<transformer::Example>
                                   &query_set,
                               const ClonerOptions &opts);
};

} // namespace decepticon::extraction

#endif // DECEPTICON_EXTRACTION_CLONER_HH
