/**
 * @file
 * Statistical fine-tuning simulator: applies the empirically observed
 * update law of paper Sec. 4.1 to a pre-trained WeightStore. Where the
 * trainable tiny transformers (src/transformer) validate that these
 * laws *emerge* from real transfer learning, this simulator lets the
 * large-scale experiments (24-encoder stores, bit-level accounting over
 * hundreds of thousands of weights) run in milliseconds:
 *
 *  - per-epoch weight deltas are small and long-tailed (Fig. 3);
 *  - |delta| grows quadratically with the pre-trained weight's
 *    magnitude — the U-shape of Fig. 4, with ~3x larger updates for
 *    the outermost weights;
 *  - a small outlier population receives much larger updates (the
 *    long-tail source, Observation 2);
 *  - the inter-epoch delta rises until ~epoch 9 then decays (Fig. 6),
 *    while the fresh task head converges exponentially;
 *  - the task head is newly initialized (Observation 3 / Fig. 5).
 */

#ifndef DECEPTICON_ZOO_FINETUNE_SIM_HH
#define DECEPTICON_ZOO_FINETUNE_SIM_HH

#include <cstdint>
#include <vector>

#include "zoo/weight_store.hh"

namespace decepticon::zoo {

/** Peak per-epoch update sigma (paper Fig. 6 peaks ~0.0015). */
inline constexpr double kPeakSigma = 0.0015;
/** Floor sigma late in training (Fig. 6 tail ~0.0002). */
inline constexpr double kFloorSigma = 0.0002;

/** Update-law parameters (defaults calibrated to the paper's plots). */
struct FineTuneOptions
{
    std::size_t epochs = 3;
    /** Quadratic magnitude boost: sigma *= 1 + alpha*(|w|/0.25)^2. */
    double uShapeAlpha = 3.0;
    /** Fraction of weights receiving outlier-scale (12x) updates. */
    double outlierProb = 0.02;
    /** Materialized size of the newly added task head. */
    std::size_t headWeights = 64;
};

/** Fine-tuning simulation entry points. */
class FineTuneSimulator
{
  public:
    /**
     * Fine-tune a pre-trained store for opts.epochs epochs; returns
     * the resulting store (head freshly initialized and converged
     * per the epoch schedule).
     */
    static WeightStore fineTune(const WeightStore &pretrained,
                                const FineTuneOptions &opts,
                                std::uint64_t seed);

    /**
     * Epoch-by-epoch trajectory: element e is the store after e+1
     * epochs. Element 0 starts from the pre-trained weights plus a
     * fresh head.
     */
    static std::vector<WeightStore>
    fineTuneTrajectory(const WeightStore &pretrained,
                       const FineTuneOptions &opts, std::uint64_t seed);

    /**
     * The inter-epoch update sigma schedule (Fig. 6 shape): a linear
     * ramp to kPeakSigma at epoch 9, then a linear decay to
     * kFloorSigma by epoch 30.
     */
    static double epochSigma(std::size_t epoch);
};

} // namespace decepticon::zoo

#endif // DECEPTICON_ZOO_FINETUNE_SIM_HH
