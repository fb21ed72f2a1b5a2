/**
 * @file
 * Flat per-layer weight storage for the statistical (large-scale)
 * experiments. A WeightStore holds a sampled subset of each encoder
 * layer's weights plus the task head, while carrying the analytic
 * full-scale layer sizes so fractions such as "the last layer is
 * 0.009% of all weights" (Fig. 16) are computed on true counts.
 */

#ifndef DECEPTICON_ZOO_WEIGHT_STORE_HH
#define DECEPTICON_ZOO_WEIGHT_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/trace_generator.hh"

namespace decepticon::zoo {

/** One layer's (sampled) weights. */
struct LayerWeights
{
    std::string name;
    std::vector<float> w;
};

/** A model's weights: encoder layers + embeddings + task head. */
class WeightStore
{
  public:
    /**
     * Synthesize a pre-trained weight store for the given
     * architecture.
     *
     * @param arch full-scale architecture (drives analytic counts)
     * @param seed weight identity; two stores with different seeds
     *        model two unrelated pre-trained models
     * @param weights_per_layer how many weights to materialize per
     *        encoder layer (sampling keeps bit-level experiments fast)
     * @param weight_sigma bulk scale of the weight distribution
     */
    static WeightStore makePretrained(const gpusim::ArchParams &arch,
                                      std::uint64_t seed,
                                      std::size_t weights_per_layer = 20000,
                                      float weight_sigma = 0.08f);

    /** Encoder layers, index 0 = first encoder. */
    std::vector<LayerWeights> layers;

    /** Task head (empty for pre-trained stores until fine-tuned). */
    LayerWeights head;

    /**
     * Weights in a slot, the bit-probe channel's address space: slot
     * l < layers.size() is layers[l], slot layers.size() is the head.
     * Out-of-range slots throw std::out_of_range.
     */
    std::size_t slotSize(std::size_t slot) const;

    /** One weight of a slot (slot and index bounds are checked). */
    float slotWeight(std::size_t slot, std::size_t index) const;

    /** Analytic (true, unsampled) per-encoder-layer weight count. */
    std::size_t analyticLayerWeights = 0;

    /** Analytic embedding weight count. */
    std::size_t analyticEmbeddingWeights = 0;

    /** Analytic task-head weight count. */
    std::size_t analyticHeadWeights = 0;

    /** Total analytic weights across the model. */
    std::size_t analyticTotalWeights() const;

    /** Fraction of analytic weights contributed by the task head. */
    double headWeightFraction() const;

    /**
     * Per-layer mean absolute weight difference against another store
     * of identical shape (head included last if both have heads).
     */
    std::vector<double> perLayerMeanAbsDiff(const WeightStore &other) const;

    /** All per-weight differences (this - other), encoder layers only. */
    std::vector<double> weightDeltas(const WeightStore &other) const;
};

/**
 * Analytic per-encoder weight count of a transformer layer:
 * 4 attention projections + 2 FFN matrices + norms/biases.
 */
std::size_t analyticEncoderWeightCount(const gpusim::ArchParams &arch);

} // namespace decepticon::zoo

#endif // DECEPTICON_ZOO_WEIGHT_STORE_HH
