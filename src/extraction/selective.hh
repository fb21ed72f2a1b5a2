/**
 * @file
 * Selective weight extraction — Algorithm 1 of the paper. Instead of
 * hammering every bit of every weight, the attacker uses the recovered
 * pre-trained model as a baseline and reads only the few fraction bits
 * whose place value matches the expected fine-tuning weight distance:
 *
 *   1. weights whose estimated update cannot matter (tiny weights, or
 *      estimated gap below the significance threshold) reuse the
 *      pre-trained value outright;
 *   2. for the rest, the expected gap is estimated from the
 *      pre-trained value via the U-shaped update law (larger weights
 *      move more, Fig. 4), and up to maxBitsPerWeight fraction bits
 *      covering that gap are read from the victim and spliced into
 *      the baseline value.
 *
 * The newly added task head has no baseline; it is extracted with
 * full 32-bit reads, which stays cheap because the head is at most
 * ~0.009% of the model's weights (Fig. 16).
 */

#ifndef DECEPTICON_EXTRACTION_SELECTIVE_HH
#define DECEPTICON_EXTRACTION_SELECTIVE_HH

#include <cstddef>
#include <vector>

#include "extraction/bitprobe.hh"
#include "extraction/ieee.hh"

namespace decepticon::extraction {

/** Algorithm 1 step 1: |base| below this reuses the pre-trained value. */
inline constexpr double kSkipThreshold = 0.001;

/** Attacker-side parameters of Algorithm 1. */
struct ExtractionPolicy
{
    /** Gaps below this are too small to affect predictions. */
    double significance = 0.0025;
    /** Expected fine-tuning gap for near-zero weights. */
    double baseDist = 0.0012;
    /**
     * U-shape law the attacker calibrated from public model pairs:
     * gap *= 1 + alpha * (|w| / 0.25)^2.
     */
    double uShapeAlpha = 3.0;
    /** Paper: checking up to two bits per weight suffices. */
    int maxBitsPerWeight = 2;
    /** Audit tolerance: |clone - actual| above this is an error. */
    double errorTolerance = 0.002;
    /**
     * Storage format of the victim's weights (Sec. 8): float32 by
     * default; bfloat16/float16 victims have fewer fraction bits, so
     * the checkable window is clamped accordingly (bfloat16 keeps
     * float32's exponent, so the same leading bits are checked).
     */
    FloatFormat storageFormat = kFloat32;

    /** Estimated |gap| for a weight with the given pre-trained value. */
    double estimatedDist(double base_weight) const;
};

/** Accounting of one extraction run (drives Fig. 16). */
struct ExtractionStats
{
    std::size_t totalWeights = 0;
    std::size_t weightsSkipped = 0; ///< reused base without any read
    std::size_t weightsChecked = 0;
    std::size_t bitsChecked = 0;
    std::size_t fullWeightsRead = 0; ///< head weights read in full
    /** Weights the channel could not reach (non-hammerable rows). */
    std::size_t unreadableWeights = 0;
    /**
     * Weights resolved from the pre-trained baseline because the
     * channel could not deliver them (unreachable rows, exhausted
     * retry budgets). Graceful degradation, never silent dropping:
     * every unreadable weight with a baseline lands here.
     */
    std::size_t baselineFallbackWeights = 0;

    // Audit fields (filled by auditAccuracy against ground truth).
    std::size_t auditedWeights = 0;
    std::size_t extractionErrors = 0; ///< gap beyond tolerance or sign flip
    std::size_t signFlips = 0;

    /** Bits never read, as a fraction of 32 * totalWeights. */
    double bitsExcludedFraction() const;

    /** Weights reused without reads, as a fraction of the total. */
    double weightsSkippedFraction() const;

    /** Fraction of audited weights whose extraction was correct. */
    double correctFraction() const;

    void merge(const ExtractionStats &other);

    /**
     * Publish the snapshot as "<prefix>.*" gauges (totals, skip/check
     * counters, audit results, and the derived fractions). The single
     * serialization path for this struct.
     */
    void toMetrics(obs::MetricsRegistry &registry,
                   const std::string &prefix) const;
};

/** Algorithm 1 over a bit-probe channel. */
class SelectiveWeightExtractor
{
  public:
    explicit SelectiveWeightExtractor(const ExtractionPolicy &policy)
        : policy_(policy)
    {
    }

    /**
     * Extract one victim weight given its pre-trained baseline.
     * Reads at most policy.maxBitsPerWeight bits from the channel.
     */
    float extractWeight(float base, BitProbeChannel &channel,
                        std::size_t layer, std::size_t index,
                        ExtractionStats &stats) const;

    /** Extract a whole layer against its baseline values. */
    std::vector<float> extractLayer(const std::vector<float> &base,
                                    BitProbeChannel &channel,
                                    std::size_t layer,
                                    ExtractionStats &stats) const;

    /**
     * Full 32-bit extraction for the baseline-less task head
     * (head_layer = the head slot, WeightStore::layers.size()).
     */
    std::vector<float> extractHead(BitProbeChannel &channel,
                                   std::size_t head_layer,
                                   std::size_t count,
                                   ExtractionStats &stats) const;

    /**
     * Compare extracted values with ground truth (paper Sec. 7.4
     * criterion): an extraction is wrong when the actual fine-tuning
     * gap exceeded the expected amount — leaving a residual beyond
     * max(errorTolerance, estimatedDist(base)) — or the sign bit
     * changed.
     */
    void auditAccuracy(const std::vector<float> &extracted,
                       const std::vector<float> &actual,
                       const std::vector<float> &base,
                       ExtractionStats &stats) const;

  private:
    ExtractionPolicy policy_;
};

/**
 * Quantize every weight of a store to the given format and back —
 * a victim checkpointed in bfloat16/float16 (Sec. 8).
 */
zoo::WeightStore quantizeStore(const zoo::WeightStore &store,
                               const FloatFormat &fmt);

} // namespace decepticon::extraction

#endif // DECEPTICON_EXTRACTION_SELECTIVE_HH
