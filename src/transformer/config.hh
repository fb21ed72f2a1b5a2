/**
 * @file
 * Architecture configuration for the trainable transformer classifier.
 * Presets mirror the BERT family's size ladder (tiny/mini/small/base/
 * large) scaled down so real pre-training and fine-tuning run on one
 * CPU core; the *ratios* between presets (layer count, hidden size)
 * match the real family so fingerprint experiments see the same
 * structural differences the paper exploits.
 */

#ifndef DECEPTICON_TRANSFORMER_CONFIG_HH
#define DECEPTICON_TRANSFORMER_CONFIG_HH

#include <cstddef>
#include <string>

namespace decepticon::transformer {

/** Hyper-parameters of a TransformerClassifier. */
struct TransformerConfig
{
    std::size_t vocab = 64;
    std::size_t maxSeqLen = 16;
    std::size_t hidden = 32;
    std::size_t numLayers = 2;
    std::size_t numHeads = 2;
    std::size_t ffnDim = 64;
    std::size_t numClasses = 2;

    /** Hidden size per attention head. */
    std::size_t headDim() const { return hidden / numHeads; }

    /** Sanity-check divisibility and non-zero sizes. */
    bool
    valid() const
    {
        return vocab > 0 && maxSeqLen > 0 && hidden > 0 && numLayers > 0 &&
               numHeads > 0 && ffnDim > 0 && numClasses > 0 &&
               hidden % numHeads == 0;
    }
};

} // namespace decepticon::transformer

#endif // DECEPTICON_TRANSFORMER_CONFIG_HH
