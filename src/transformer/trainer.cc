#include "transformer/trainer.hh"

#include <algorithm>
#include <cassert>

#include "nn/optim.hh"
#include "tensor/kernels/arena.hh"
#include "util/rng.hh"

namespace decepticon::transformer {

namespace {

/** Decoupled (AdamW) weight decay of both optimizers. */
constexpr float kWeightDecay = 0.01f;
/** Seed of the per-epoch example shuffle. */
constexpr std::uint64_t kShuffleSeed = 1;

std::vector<EpochStats>
runTraining(TransformerClassifier &model, const Dataset &full_data,
            const TrainOptions &opts, const nn::ParamRefs &trainable_body,
            const nn::ParamRefs &trainable_head)
{
    const Dataset data = full_data.fraction(opts.dataFraction);
    assert(!data.examples.empty());

    nn::Adam optim(trainable_body, opts.lr, 0.9f, 0.999f, 1e-8f,
                   kWeightDecay);
    nn::Adam head_optim(trainable_head, opts.lr * opts.headLrMultiplier,
                        0.9f, 0.999f, 1e-8f, kWeightDecay);
    util::Rng rng(kShuffleSeed);

    std::vector<std::size_t> order(data.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    std::vector<EpochStats> history;
    // Gradients may have been accumulated by earlier probing calls on
    // this model (e.g. adversarial gradient queries); clear everything,
    // including frozen parameters we never step.
    nn::zeroGrads(model.params());
    for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
        rng.shuffle(order);
        EpochStats stats;
        double loss_sum = 0.0;
        std::size_t correct = 0;
        std::size_t in_batch = 0;
        for (std::size_t idx : order) {
            const Example &ex = data.examples[idx];
            loss_sum += model.lossAndBackward(ex.tokens, ex.label);
            ++in_batch;
            if (in_batch == opts.batchSize) {
                optim.step();
                head_optim.step();
                nn::zeroGrads(model.params());
                tensor::kernels::recycleActivations();
                in_batch = 0;
            }
        }
        if (in_batch > 0) {
            optim.step();
            head_optim.step();
            nn::zeroGrads(model.params());
            tensor::kernels::recycleActivations();
        }
        for (const Example &ex : data.examples) {
            if (model.predict(ex.tokens) == ex.label)
                ++correct;
        }
        stats.meanLoss =
            static_cast<float>(loss_sum / static_cast<double>(data.size()));
        stats.trainAccuracy = static_cast<double>(correct) /
                              static_cast<double>(data.size());
        history.push_back(stats);
        if (opts.epochCallback)
            opts.epochCallback(epoch);
    }
    return history;
}

} // anonymous namespace

std::vector<EpochStats>
Trainer::train(TransformerClassifier &model, const Dataset &data,
               const TrainOptions &opts)
{
    return runTraining(model, data, opts, model.backboneParams(),
                       model.headParams());
}

std::vector<EpochStats>
Trainer::fineTune(TransformerClassifier &model, const Dataset &data,
                  const TrainOptions &opts)
{
    // Trainable set: token embeddings + every encoder + head.
    nn::ParamRefs trainable;
    auto emb = model.embedding().params();
    trainable.insert(trainable.end(), emb.begin(), emb.end());
    for (std::size_t l = 0; l < model.numLayers(); ++l) {
        auto ps = model.encoderParams(l);
        trainable.insert(trainable.end(), ps.begin(), ps.end());
    }
    return runTraining(model, data, opts, trainable, model.headParams());
}

EvalResult
Trainer::evaluate(TransformerClassifier &model, const Dataset &data)
{
    EvalResult res;
    res.predictions.reserve(data.size());
    std::vector<int> labels;
    labels.reserve(data.size());
    std::size_t correct = 0;
    for (const Example &ex : data.examples) {
        const int pred = model.predict(ex.tokens);
        res.predictions.push_back(pred);
        labels.push_back(ex.label);
        if (pred == ex.label)
            ++correct;
    }
    res.accuracy = data.size() == 0
                       ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(data.size());
    res.macroF1 = macroF1(res.predictions, labels, data.numClasses);
    return res;
}

double
Trainer::agreement(const std::vector<int> &a, const std::vector<int> &b)
{
    assert(a.size() == b.size());
    if (a.empty())
        return 0.0;
    std::size_t same = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] == b[i])
            ++same;
    }
    return static_cast<double>(same) / static_cast<double>(a.size());
}

double
macroF1(const std::vector<int> &predictions, const std::vector<int> &labels,
        std::size_t num_classes)
{
    assert(predictions.size() == labels.size());
    if (predictions.empty() || num_classes == 0)
        return 0.0;
    double f1_sum = 0.0;
    for (std::size_t c = 0; c < num_classes; ++c) {
        std::size_t tp = 0, fp = 0, fn = 0;
        for (std::size_t i = 0; i < predictions.size(); ++i) {
            const bool pred_c = predictions[i] == static_cast<int>(c);
            const bool true_c = labels[i] == static_cast<int>(c);
            if (pred_c && true_c)
                ++tp;
            else if (pred_c)
                ++fp;
            else if (true_c)
                ++fn;
        }
        const double denom = 2.0 * tp + fp + fn;
        f1_sum += denom == 0.0 ? 0.0 : 2.0 * tp / denom;
    }
    return f1_sum / static_cast<double>(num_classes);
}

} // namespace decepticon::transformer
