/**
 * @file
 * Training/fine-tuning driver and evaluation metrics for
 * TransformerClassifier. Fine-tuning follows the regime the paper
 * characterizes: small learning rate, weight decay, few epochs and a
 * freshly initialized task head.
 */

#ifndef DECEPTICON_TRANSFORMER_TRAINER_HH
#define DECEPTICON_TRANSFORMER_TRAINER_HH

#include <functional>
#include <vector>

#include "transformer/classifier.hh"
#include "transformer/task.hh"

namespace decepticon::transformer {

/** Knobs of a training run. */
struct TrainOptions
{
    std::size_t epochs = 3;
    float lr = 1e-3f;
    /**
     * Learning-rate multiplier for the task head. Fine-tuning
     * typically trains the fresh head aggressively while nudging the
     * backbone with a small rate — the regime whose tiny backbone
     * deltas the paper exploits.
     */
    float headLrMultiplier = 1.0f;
    std::size_t batchSize = 8;
    /** Use only this leading fraction of the training data. */
    double dataFraction = 1.0;
    /** Invoked after each epoch (snapshotting for Fig. 6). */
    std::function<void(std::size_t epoch)> epochCallback;
};

/** Per-epoch training statistics. */
struct EpochStats
{
    float meanLoss = 0.0f;
    double trainAccuracy = 0.0;
};

/** Evaluation output. */
struct EvalResult
{
    double accuracy = 0.0;
    double macroF1 = 0.0;
    std::vector<int> predictions;
};

/** Stateless training/eval entry points. */
class Trainer
{
  public:
    /**
     * Train every parameter of the model on the dataset (used for
     * pre-training a backbone).
     */
    static std::vector<EpochStats> train(TransformerClassifier &model,
                                         const Dataset &data,
                                         const TrainOptions &opts);

    /**
     * Fine-tune: trains token embeddings, every encoder and the head
     * (the positional table stays as pre-trained).
     * Callers reset the head for a new task beforehand via
     * TransformerClassifier::resetHead().
     */
    static std::vector<EpochStats> fineTune(TransformerClassifier &model,
                                            const Dataset &data,
                                            const TrainOptions &opts);

    /** Accuracy / macro-F1 / raw predictions over a dataset. */
    static EvalResult evaluate(TransformerClassifier &model,
                               const Dataset &data);

    /** Fraction of positions where two prediction vectors agree. */
    static double agreement(const std::vector<int> &a,
                            const std::vector<int> &b);
};

/** Macro-averaged F1 over the label set [0, num_classes). */
double macroF1(const std::vector<int> &predictions,
               const std::vector<int> &labels, std::size_t num_classes);

} // namespace decepticon::transformer

#endif // DECEPTICON_TRANSFORMER_TRAINER_HH
