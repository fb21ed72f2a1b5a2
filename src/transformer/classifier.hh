/**
 * @file
 * End-to-end trainable transformer sequence classifier: token +
 * position embeddings, a stack of encoder blocks, first-token pooling,
 * and a task-specific linear head. This is the reproduction's stand-in
 * for BERT-style fine-tuned models: the backbone is the "pre-trained"
 * part that transfer learning reuses, the head is the task layer that
 * fine-tuning replaces (paper Sec. 4.1).
 */

#ifndef DECEPTICON_TRANSFORMER_CLASSIFIER_HH
#define DECEPTICON_TRANSFORMER_CLASSIFIER_HH

#include <memory>
#include <vector>

#include "nn/embedding.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "transformer/config.hh"
#include "transformer/encoder.hh"

namespace decepticon::transformer {

/** Trainable transformer classifier over token sequences. */
class TransformerClassifier
{
  public:
    /** Build with fresh random weights derived from the seed. */
    TransformerClassifier(const TransformerConfig &cfg, std::uint64_t seed);

    /** Deep copy (weights, config, head state). */
    TransformerClassifier(const TransformerClassifier &other);
    TransformerClassifier &operator=(const TransformerClassifier &) = delete;

    /** Class logits for one token sequence; shape (1, numClasses). */
    tensor::Tensor logits(const std::vector<int> &tokens);

    /** Argmax class prediction for one sequence. */
    int predict(const std::vector<int> &tokens);

    /**
     * Forward + loss + full backward for one (sequence, label) pair.
     * Accumulates gradients into every parameter; the caller batches
     * by invoking this repeatedly before an optimizer step.
     * @return the cross-entropy loss of this sample.
     */
    float lossAndBackward(const std::vector<int> &tokens, int label);

    /**
     * Gradient of the loss with respect to the embedding-layer output
     * (shape (T, hidden)), as used by HotFlip-style adversarial input
     * crafting. Parameter gradients accumulated as a side effect
     * should be cleared by the caller if it is not training.
     */
    tensor::Tensor embeddingGradient(const std::vector<int> &tokens,
                                     int label);

    /** Every trainable parameter (backbone + head). */
    nn::ParamRefs params();

    /** Backbone parameters only (embeddings + all encoders). */
    nn::ParamRefs backboneParams();

    /** Embedding parameters: the token table, then the positions. */
    nn::ParamRefs embeddingParams();

    /** Task-head parameters only. */
    nn::ParamRefs headParams();

    /** Parameters of one encoder layer. */
    nn::ParamRefs encoderParams(std::size_t layer);

    /** Encoder block access (head pruning, confidence probes). */
    EncoderLayer &encoder(std::size_t i) { return *encoders_[i]; }
    const EncoderLayer &encoder(std::size_t i) const
    {
        return *encoders_[i];
    }

    nn::Embedding &embedding() { return tokEmb_; }

    const TransformerConfig &config() const { return cfg_; }
    std::size_t numLayers() const { return encoders_.size(); }

    /** Copy all weights (backbone + head) from a same-shape model. */
    void copyWeightsFrom(const TransformerClassifier &other);

    /** Copy only the backbone (transfer-learning initialization). */
    void copyBackboneFrom(const TransformerClassifier &other);

    /** Copy the weights of a single encoder layer (layer freezing). */
    void copyEncoderFrom(const TransformerClassifier &other,
                         std::size_t layer);

    /**
     * Replace the task head with a fresh randomly initialized head of
     * num_classes outputs — the "newly added last layer" of
     * fine-tuning in the paper.
     */
    void resetHead(std::size_t num_classes, std::uint64_t seed);

  private:
    tensor::Tensor forwardBackbone(const std::vector<int> &tokens);
    tensor::Tensor backwardFromLogits(const tensor::Tensor &dlogits,
                                      std::size_t seq_len);

    TransformerConfig cfg_;
    util::Rng rng_; // must precede the members it initializes
    nn::Embedding tokEmb_;
    nn::Parameter posEmb_;
    std::vector<std::unique_ptr<EncoderLayer>> encoders_;
    std::unique_ptr<nn::Linear> head_;
    nn::SoftmaxCrossEntropy loss_;
};

/**
 * Argmax class for each sequence, computed in parallel on the sched
 * pool. Each worker chunk predicts on its own deep copy of the model
 * (forward caches make predict() non-const, but the prediction is a
 * pure function of the weights), so the result vector is identical to
 * a serial predict() loop at any thread count.
 */
std::vector<int>
predictBatch(const TransformerClassifier &model,
             const std::vector<std::vector<int>> &sequences);

} // namespace decepticon::transformer

#endif // DECEPTICON_TRANSFORMER_CLASSIFIER_HH
