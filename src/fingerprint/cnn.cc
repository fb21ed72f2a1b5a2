#include "fingerprint/cnn.hh"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "nn/optim.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "tensor/kernels/arena.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace decepticon::fingerprint {

namespace {

/** Seed of the per-epoch sample shuffle. */
constexpr std::uint64_t kShuffleSeed = 7;

/** Output size of a valid conv/pool stage: (in - k) / s + 1. */
std::size_t
stageOut(std::size_t in, std::size_t k, std::size_t s)
{
    assert(in >= k);
    return (in - k) / s + 1;
}

} // anonymous namespace

FingerprintCnn::FingerprintCnn(std::size_t resolution,
                               std::size_t num_classes, std::uint64_t seed)
    : resolution_(resolution),
      numClasses_(num_classes),
      flatDim_(0),
      rng_(seed),
      conv1_("cnn.conv1", 1, 6, 5, rng_),
      pool1_(4, 4),
      conv2_("cnn.conv2", 6, 16, 5, rng_),
      pool2_(2, 2),
      fc1_("cnn.fc1",
           [&] {
               const std::size_t c1 = stageOut(resolution, 5, 1);
               const std::size_t p1 = stageOut(c1, 4, 4);
               const std::size_t c2 = stageOut(p1, 5, 1);
               const std::size_t p2 = stageOut(c2, 2, 2);
               return 16 * p2 * p2;
           }(),
           120, rng_),
      fc2_("cnn.fc2", 120, 84, rng_),
      fc3_("cnn.fc3", 84, num_classes, rng_)
{
    // conv5/pool4/conv5/pool2 needs at least 28 input pixels for a
    // non-empty final feature map.
    assert(resolution >= 28);
    flatDim_ = fc1_.inFeatures();
    conv1_.setActivation(tensor::kernels::Act::Relu);
    conv2_.setActivation(tensor::kernels::Act::Relu);
    fc1_.setActivation(tensor::kernels::Act::Relu);
    fc2_.setActivation(tensor::kernels::Act::Relu);
}

tensor::Tensor
FingerprintCnn::toBatchTensor(
    const std::vector<const tensor::Tensor *> &images) const
{
    const std::size_t b = images.size();
    tensor::Tensor batch({b, 1, resolution_, resolution_});
    const std::size_t plane = resolution_ * resolution_;
    for (std::size_t i = 0; i < b; ++i) {
        assert(images[i]->size() == plane);
        std::copy(images[i]->data(), images[i]->data() + plane,
                  batch.data() + i * plane);
    }
    return batch;
}

tensor::Tensor
FingerprintCnn::forward(const tensor::Tensor &batch_images)
{
    const std::size_t b = batch_images.dim(0);
    tensor::Tensor x = conv1_.forward(batch_images);
    x = pool1_.forward(x);
    x = conv2_.forward(x);
    x = pool2_.forward(x);
    convOutShape_ = x.shape();
    x = x.reshaped({b, flatDim_});
    x = fc1_.forward(x);
    x = fc2_.forward(x);
    return fc3_.forward(x);
}

void
FingerprintCnn::backward(const tensor::Tensor &dlogits)
{
    tensor::Tensor d = fc3_.backward(dlogits);
    d = fc2_.backward(d);
    d = fc1_.backward(d);
    d = d.reshaped(convOutShape_);
    d = pool2_.backward(d);
    d = conv2_.backward(d);
    d = pool1_.backward(d);
    conv1_.backward(d);
}

nn::ParamRefs
FingerprintCnn::params()
{
    nn::ParamRefs out;
    for (auto ps : {conv1_.params(), conv2_.params(), fc1_.params(),
                    fc2_.params(), fc3_.params()})
        out.insert(out.end(), ps.begin(), ps.end());
    return out;
}

float
FingerprintCnn::train(const FingerprintDataset &data,
                      const CnnTrainOptions &opts)
{
    assert(!data.samples.empty());
    assert(data.resolution == resolution_);

    auto sp = obs::span("fingerprint.cnn.train");

    nn::Adam optim(params(), opts.lr);
    util::Rng rng(kShuffleSeed);
    std::vector<std::size_t> order(data.samples.size());
    std::iota(order.begin(), order.end(), 0);

    float last_epoch_loss = 0.0f;
    for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
        rng.shuffle(order);
        double loss_sum = 0.0;
        std::size_t batches = 0;
        for (std::size_t start = 0; start < order.size();
             start += opts.batchSize) {
            const std::size_t end =
                std::min(start + opts.batchSize, order.size());
            std::vector<const tensor::Tensor *> images;
            std::vector<int> labels;
            for (std::size_t i = start; i < end; ++i) {
                images.push_back(&data.samples[order[i]].image);
                labels.push_back(data.samples[order[i]].label);
            }
            optim.zeroGrad();
            tensor::Tensor logits = forward(toBatchTensor(images));
            loss_sum += loss_.forward(logits, labels);
            backward(loss_.backward());
            optim.step();
            // Forward caches for this batch are dead once the step is
            // taken; a stray backward() against them now asserts.
            tensor::kernels::recycleActivations();
            ++batches;
        }
        last_epoch_loss =
            static_cast<float>(loss_sum / std::max<std::size_t>(1, batches));
    }
    return last_epoch_loss;
}

std::vector<double>
FingerprintCnn::classProbabilities(const tensor::Tensor &image)
{
    tensor::Tensor logits = forward(toBatchTensor({&image}));
    tensor::Tensor probs = tensor::softmaxRows(logits);
    std::vector<double> out(numClasses_);
    for (std::size_t i = 0; i < numClasses_; ++i)
        out[i] = probs[i];
    return out;
}

std::vector<std::vector<double>>
FingerprintCnn::classProbabilitiesBatch(
    const std::vector<const tensor::Tensor *> &images)
{
    // Small fixed sub-batch: big enough that fc GEMMs amortize packing
    // and the scratch slabs stay warm, small enough that activation
    // footprint stays bounded at campaign batch sizes.
    constexpr std::size_t kSubBatch = 8;
    std::vector<std::vector<double>> out(images.size());
    for (std::size_t start = 0; start < images.size();
         start += kSubBatch) {
        const std::size_t end =
            std::min(start + kSubBatch, images.size());
        const std::vector<const tensor::Tensor *> sub(
            images.begin() + static_cast<std::ptrdiff_t>(start),
            images.begin() + static_cast<std::ptrdiff_t>(end));
        // One arena frame per sub-batch: every buffer the forward
        // pass bump-allocates is reclaimed (not freed) here, so the
        // next sub-batch reuses the identical hot pages.
        tensor::kernels::ScratchArena::Frame frame(
            tensor::kernels::scratch());
        tensor::Tensor logits = forward(toBatchTensor(sub));
        tensor::Tensor probs = tensor::softmaxRows(logits);
        for (std::size_t i = start; i < end; ++i) {
            std::vector<double> row(numClasses_);
            for (std::size_t c = 0; c < numClasses_; ++c)
                row[c] = probs[(i - start) * numClasses_ + c];
            out[i] = std::move(row);
        }
    }
    return out;
}

int
FingerprintCnn::predict(const tensor::Tensor &image)
{
    const auto probs = classProbabilities(image);
    return static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
}

std::vector<int>
FingerprintCnn::topK(const tensor::Tensor &image, std::size_t k)
{
    return util::topKClasses(classProbabilities(image), k);
}

double
FingerprintCnn::evaluate(const FingerprintDataset &data)
{
    if (data.samples.empty())
        return 0.0;
    std::vector<const tensor::Tensor *> images;
    images.reserve(data.samples.size());
    for (const auto &s : data.samples)
        images.push_back(&s.image);
    const std::vector<int> preds = predictBatch(*this, images);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        if (preds[i] == data.samples[i].label)
            ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(data.samples.size());
}

std::vector<std::vector<double>>
probabilitiesBatch(const FingerprintCnn &cnn,
                   const std::vector<const tensor::Tensor *> &images)
{
    std::vector<std::vector<double>> out(images.size());
    sched::parallelForRange(
        images.size(), 0, [&](std::size_t begin, std::size_t end) {
            FingerprintCnn local(cnn); // private forward caches
            const std::vector<const tensor::Tensor *> chunk(
                images.begin() + static_cast<std::ptrdiff_t>(begin),
                images.begin() + static_cast<std::ptrdiff_t>(end));
            auto rows = local.classProbabilitiesBatch(chunk);
            for (std::size_t i = begin; i < end; ++i)
                out[i] = std::move(rows[i - begin]);
        });
    return out;
}

std::vector<int>
predictBatch(const FingerprintCnn &cnn,
             const std::vector<const tensor::Tensor *> &images)
{
    const auto rows = probabilitiesBatch(cnn, images);
    std::vector<int> out(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        out[i] = static_cast<int>(
            std::max_element(rows[i].begin(), rows[i].end()) -
            rows[i].begin());
    return out;
}

} // namespace decepticon::fingerprint
