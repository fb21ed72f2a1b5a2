/**
 * @file
 * The pre-trained model extractor's CNN classifier (paper Sec. 5.4.2):
 * two convolution+pooling stages followed by three fully connected
 * layers, trained on fingerprint images labeled with pre-trained model
 * names. The paper's exact topology targets 1024x1024 inputs; this one
 * keeps the conv/pool/fc structure with pooling scaled to the raster
 * resolution (see DESIGN.md substitution table).
 */

#ifndef DECEPTICON_FINGERPRINT_CNN_HH
#define DECEPTICON_FINGERPRINT_CNN_HH

#include <cstdint>
#include <vector>

#include "fingerprint/dataset.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/param.hh"

namespace decepticon::fingerprint {

/** Training knobs for the fingerprint CNN. */
struct CnnTrainOptions
{
    std::size_t epochs = 30;
    float lr = 2e-3f;
    std::size_t batchSize = 8;
};

/**
 * conv(1->6, 5x5) / pool(4,4) / conv(6->16, 5x5) / pool(2,2) /
 * fc(->120) / fc(120->84) / fc(84->classes), ReLU activations —
 * the paper's LeNet-style extractor adapted to the raster size.
 */
class FingerprintCnn
{
  public:
    FingerprintCnn(std::size_t resolution, std::size_t num_classes,
                   std::uint64_t seed);

    /** Train on a labeled dataset; returns final-epoch mean loss. */
    float train(const FingerprintDataset &data,
                const CnnTrainOptions &opts);

    /** Softmax class probabilities for one image. */
    std::vector<double> classProbabilities(const tensor::Tensor &image);

    /**
     * Softmax class probabilities for many images, forwarded in
     * sub-batches under one ScratchArena frame each, so conv/GEMM
     * packing panels reuse the same hot scratch slabs across the whole
     * run instead of re-growing per image. out[i] equals a serial
     * classProbabilities(*images[i]) bit for bit: every per-sample
     * value is accumulated in the same order regardless of how many
     * rows share the batch.
     */
    std::vector<std::vector<double>> classProbabilitiesBatch(
        const std::vector<const tensor::Tensor *> &images);

    /** Argmax class for one image. */
    int predict(const tensor::Tensor &image);

    /** Indices of the k highest-probability classes, descending. */
    std::vector<int> topK(const tensor::Tensor &image, std::size_t k);

    /** Classification accuracy over a dataset. */
    double evaluate(const FingerprintDataset &data);

    std::size_t numClasses() const { return numClasses_; }
    std::size_t resolution() const { return resolution_; }

    nn::ParamRefs params();

  private:
    tensor::Tensor forward(const tensor::Tensor &batch_images);
    void backward(const tensor::Tensor &dlogits);
    tensor::Tensor toBatchTensor(
        const std::vector<const tensor::Tensor *> &images) const;

    std::size_t resolution_;
    std::size_t numClasses_;
    std::size_t flatDim_;

    util::Rng rng_; // must precede the layers it initializes
    // ReLU activations are fused into the conv/fc epilogues (fc3
    // produces raw logits).
    nn::Conv2d conv1_;
    nn::MaxPool2d pool1_;
    nn::Conv2d conv2_;
    nn::MaxPool2d pool2_;
    nn::Linear fc1_, fc2_, fc3_;
    nn::SoftmaxCrossEntropy loss_;

    std::vector<std::size_t> convOutShape_; // shape after pool2
};

/**
 * Full softmax probability vector for each image, computed in
 * parallel on the sched pool. Each chunk runs on its own copy of the
 * CNN (the forward caches make classProbabilities() non-const, but
 * the result is a pure function of the weights), so out[i] equals a
 * serial classProbabilities(images[i]) call bit for bit at any thread
 * count. This is the primitive behind cross-victim batched level-1
 * classification in campaigns.
 */
std::vector<std::vector<double>>
probabilitiesBatch(const FingerprintCnn &cnn,
                   const std::vector<const tensor::Tensor *> &images);

/**
 * Argmax class of each probabilitiesBatch row (first maximum on a
 * tie, as predict() picks it), so the result is identical to a serial
 * predict() loop at any thread count.
 */
std::vector<int>
predictBatch(const FingerprintCnn &cnn,
             const std::vector<const tensor::Tensor *> &images);

} // namespace decepticon::fingerprint

#endif // DECEPTICON_FINGERPRINT_CNN_HH
