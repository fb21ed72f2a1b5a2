/**
 * @file
 * One transformer encoder block (multi-head self-attention + position-
 * wise feed-forward, post-LayerNorm residuals) with a hand-written
 * backward pass and support for head pruning (paper Sec. 8).
 */

#ifndef DECEPTICON_TRANSFORMER_ENCODER_HH
#define DECEPTICON_TRANSFORMER_ENCODER_HH

#include <string>
#include <vector>

#include "nn/layernorm.hh"
#include "nn/linear.hh"
#include "nn/param.hh"
#include "transformer/config.hh"

namespace decepticon::transformer {

/**
 * BERT-style encoder layer operating on a single (T, D) sequence.
 * Backward must immediately follow the forward it corresponds to
 * (per-sequence gradient accumulation); batches are formed by
 * accumulating gradients across sequences before an optimizer step.
 */
class EncoderLayer
{
  public:
    EncoderLayer(const std::string &name, const TransformerConfig &cfg,
                 util::Rng &rng);

    /** Forward one sequence of activations (T, hidden). */
    tensor::Tensor forward(const tensor::Tensor &x);

    /** Backward; accumulates parameter grads, returns d-input. */
    tensor::Tensor backward(const tensor::Tensor &dy);

    /** All trainable parameters of this block. */
    nn::ParamRefs params();

    /**
     * Enable/disable attention heads. Pruned heads contribute zeros to
     * the attention output (their weights are dead), matching head
     * pruning as deployed after fine-tuning.
     */
    void setActiveHeads(std::vector<bool> active);

    const std::vector<bool> &activeHeads() const { return activeHeads_; }

    std::size_t numHeads() const { return numHeads_; }

    /**
     * Attention probability matrix (T, T) of head h from the most
     * recent forward pass. Used for head-confidence analysis.
     */
    const tensor::Tensor &attentionProbs(std::size_t h) const;

  private:
    std::size_t hidden_;
    std::size_t numHeads_;
    std::size_t headDim_;

    nn::Linear wq_, wk_, wv_, wo_;
    nn::LayerNorm ln1_, ln2_;
    nn::Linear ff1_, ff2_; ///< GELU is fused into ff1's epilogue

    std::vector<bool> activeHeads_;

    // Per-sequence caches for backward.
    tensor::Tensor cachedQ_, cachedK_, cachedV_;
    std::vector<tensor::Tensor> cachedProbs_; // per head, (T, T)
};

} // namespace decepticon::transformer

#endif // DECEPTICON_TRANSFORMER_ENCODER_HH
