/**
 * @file
 * Lightweight per-channel lineage classifiers. Each emission channel
 * gets its own two-layer MLP over the channel's feature vector,
 * trained on the attacker's own profiling of the candidate pool —
 * the same protocol as the fingerprint CNN, at a fraction of the
 * cost. Input standardization is fitted at train time and baked into
 * the classifier, so victim features are scaled exactly like
 * training features.
 */

#ifndef DECEPTICON_SIDECHAN_CLASSIFIER_HH
#define DECEPTICON_SIDECHAN_CLASSIFIER_HH

#include <cstdint>
#include <vector>

#include "fault/channel.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "util/rng.hh"

namespace decepticon::sidechan {

/**
 * feature -> fc(32, ReLU) -> fc(classes) with standardized
 * inputs. Deliberately tiny: channel evidence is fused downstream,
 * so each classifier only needs to beat chance by a usable margin.
 */
class ChannelClassifier
{
  public:
    ChannelClassifier(fault::Channel channel, std::size_t feature_dim,
                      std::size_t num_classes, std::uint64_t seed);

    std::size_t featureDim() const { return featureDim_; }
    std::size_t numClasses() const { return numClasses_; }

    /**
     * Fit standardization and train the MLP (80 epochs of Adam at
     * lr 4e-3, batch 8). features[i] labels[i] pair up; every feature
     * vector must have featureDim() entries. Returns the final-epoch
     * mean loss.
     */
    float train(const std::vector<std::vector<float>> &features,
                const std::vector<int> &labels);

    /** Softmax class probabilities for one feature vector. */
    std::vector<double>
    classProbabilities(const std::vector<float> &features);

    /** Argmax class for one feature vector. */
    int predict(const std::vector<float> &features);

    /** Classification accuracy over a labeled set. */
    double evaluate(const std::vector<std::vector<float>> &features,
                    const std::vector<int> &labels);

  private:
    tensor::Tensor
    toBatch(const std::vector<const std::vector<float> *> &rows) const;

    std::size_t featureDim_;
    std::size_t numClasses_;
    util::Rng rng_; // must precede the layers it initializes
    nn::Linear fc1_;
    nn::Linear fc2_;
    nn::SoftmaxCrossEntropy loss_;
    /** Per-dimension standardization (mean, inverse scale). */
    std::vector<float> mean_;
    std::vector<float> invScale_;
};

} // namespace decepticon::sidechan

#endif // DECEPTICON_SIDECHAN_CLASSIFIER_HH
