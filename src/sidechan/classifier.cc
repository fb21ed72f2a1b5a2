#include "sidechan/classifier.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "nn/optim.hh"
#include "obs/obs.hh"
#include "tensor/kernels/arena.hh"

namespace decepticon::sidechan {

namespace {

/** Seed of the per-epoch sample shuffle. */
constexpr std::uint64_t kShuffleSeed = 11;
/** Hidden width, epochs, Adam learning rate and batch size. */
constexpr std::size_t kHidden = 32;
constexpr std::size_t kEpochs = 80;
constexpr float kLr = 4e-3f;
constexpr std::size_t kBatchSize = 8;

} // anonymous namespace

ChannelClassifier::ChannelClassifier(fault::Channel channel,
                                     std::size_t feature_dim,
                                     std::size_t num_classes,
                                     std::uint64_t seed)
    : featureDim_(feature_dim),
      numClasses_(num_classes),
      rng_(seed),
      fc1_(std::string("sidechan.") + fault::channelName(channel) +
               ".fc1",
           feature_dim, kHidden, rng_),
      fc2_(std::string("sidechan.") + fault::channelName(channel) +
               ".fc2",
           kHidden, num_classes, rng_),
      mean_(feature_dim, 0.0f),
      invScale_(feature_dim, 1.0f)
{
    assert(feature_dim > 0 && num_classes > 0);
    fc1_.setActivation(tensor::kernels::Act::Relu);
}

tensor::Tensor
ChannelClassifier::toBatch(
    const std::vector<const std::vector<float> *> &rows) const
{
    tensor::Tensor batch({rows.size(), featureDim_});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        assert(rows[i]->size() == featureDim_);
        for (std::size_t d = 0; d < featureDim_; ++d)
            batch[i * featureDim_ + d] =
                ((*rows[i])[d] - mean_[d]) * invScale_[d];
    }
    return batch;
}

float
ChannelClassifier::train(
    const std::vector<std::vector<float>> &features,
    const std::vector<int> &labels)
{
    assert(!features.empty() && features.size() == labels.size());
    auto sp = obs::span("sidechan.train");

    // Fit standardization on the training set.
    const auto n = static_cast<float>(features.size());
    std::fill(mean_.begin(), mean_.end(), 0.0f);
    for (const auto &f : features)
        for (std::size_t d = 0; d < featureDim_; ++d)
            mean_[d] += f[d];
    for (auto &m : mean_)
        m /= n;
    std::vector<float> var(featureDim_, 0.0f);
    for (const auto &f : features)
        for (std::size_t d = 0; d < featureDim_; ++d) {
            const float c = f[d] - mean_[d];
            var[d] += c * c;
        }
    for (std::size_t d = 0; d < featureDim_; ++d)
        invScale_[d] =
            1.0f / (std::sqrt(var[d] / n) + 1e-4f);

    nn::Adam optim({fc1_.params()[0], fc1_.params()[1],
                    fc2_.params()[0], fc2_.params()[1]},
                   kLr);
    util::Rng shuffle_rng(kShuffleSeed);
    std::vector<std::size_t> order(features.size());
    std::iota(order.begin(), order.end(), 0);

    float last_epoch_loss = 0.0f;
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
        shuffle_rng.shuffle(order);
        double loss_sum = 0.0;
        std::size_t batches = 0;
        for (std::size_t start = 0; start < order.size();
             start += kBatchSize) {
            const std::size_t end =
                std::min(start + kBatchSize, order.size());
            std::vector<const std::vector<float> *> rows;
            std::vector<int> batch_labels;
            for (std::size_t i = start; i < end; ++i) {
                rows.push_back(&features[order[i]]);
                batch_labels.push_back(labels[order[i]]);
            }
            optim.zeroGrad();
            tensor::Tensor h = fc1_.forward(toBatch(rows));
            tensor::Tensor logits = fc2_.forward(h);
            loss_sum += loss_.forward(logits, batch_labels);
            fc1_.backward(fc2_.backward(loss_.backward()));
            optim.step();
            tensor::kernels::recycleActivations();
            ++batches;
        }
        last_epoch_loss = static_cast<float>(
            loss_sum / std::max<std::size_t>(1, batches));
    }
    return last_epoch_loss;
}

std::vector<double>
ChannelClassifier::classProbabilities(const std::vector<float> &features)
{
    tensor::Tensor h = fc1_.forward(toBatch({&features}));
    tensor::Tensor logits = fc2_.forward(h);
    tensor::Tensor probs = tensor::softmaxRows(logits);
    std::vector<double> out(numClasses_);
    for (std::size_t i = 0; i < numClasses_; ++i)
        out[i] = probs[i];
    return out;
}

int
ChannelClassifier::predict(const std::vector<float> &features)
{
    const auto probs = classProbabilities(features);
    return static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
}

double
ChannelClassifier::evaluate(
    const std::vector<std::vector<float>> &features,
    const std::vector<int> &labels)
{
    if (features.empty())
        return 0.0;
    assert(features.size() == labels.size());
    std::size_t correct = 0;
    for (std::size_t i = 0; i < features.size(); ++i)
        correct += predict(features[i]) == labels[i] ? 1 : 0;
    return static_cast<double>(correct) /
           static_cast<double>(features.size());
}

} // namespace decepticon::sidechan
