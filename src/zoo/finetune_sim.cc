#include "zoo/finetune_sim.hh"

#include <cassert>
#include <cmath>

#include "util/rng.hh"

namespace decepticon::zoo {

namespace {

/** Inter-epoch sigma at epoch 0 (ramp start). */
constexpr double kStartSigma = 0.0005;
/** Epoch at which the inter-epoch gap peaks. */
constexpr double kPeakEpoch = 9;
/** Epoch by which the gap has decayed to kFloorSigma. */
constexpr double kDecayEndEpoch = 30;
/** Reference magnitude of the simulated U-shape law. */
constexpr double kWRef = 0.25;
/** Multiplier applied to outlier updates. */
constexpr double kOutlierScale = 12.0;

} // anonymous namespace

double
FineTuneSimulator::epochSigma(std::size_t epoch)
{
    const auto e = static_cast<double>(epoch + 1);
    if (e <= kPeakEpoch) {
        // Linear ramp from kStartSigma up to kPeakSigma.
        return kStartSigma + (kPeakSigma - kStartSigma) * (e / kPeakEpoch);
    }
    if (e >= kDecayEndEpoch)
        return kFloorSigma;
    // Linear decay from kPeakSigma down to kFloorSigma.
    const double frac = (e - kPeakEpoch) / (kDecayEndEpoch - kPeakEpoch);
    return kPeakSigma - (kPeakSigma - kFloorSigma) * frac;
}

namespace {

/** Apply one epoch of the update law to every encoder weight. */
void
applyEpoch(WeightStore &ws, const WeightStore &pretrained, double sigma,
           const FineTuneOptions &opts, util::Rng &rng)
{
    for (std::size_t l = 0; l < ws.layers.size(); ++l) {
        auto &w = ws.layers[l].w;
        const auto &w0 = pretrained.layers[l].w;
        for (std::size_t i = 0; i < w.size(); ++i) {
            // U-shape: updates scale with the pre-trained magnitude.
            const double mag =
                std::fabs(static_cast<double>(w0[i])) / kWRef;
            double s = sigma * (1.0 + opts.uShapeAlpha * mag * mag);
            if (rng.bernoulli(opts.outlierProb))
                s *= kOutlierScale;
            w[i] += static_cast<float>(rng.gaussian(0.0, s));
        }
    }
}

/** Converged head values: where fine-tuning drives the new layer. */
std::vector<float>
makeHeadTarget(std::size_t n, util::Rng &rng)
{
    std::vector<float> target(n);
    for (auto &v : target)
        v = static_cast<float>(rng.gaussian(0.0, 0.15));
    return target;
}

} // anonymous namespace

WeightStore
FineTuneSimulator::fineTune(const WeightStore &pretrained,
                            const FineTuneOptions &opts, std::uint64_t seed)
{
    auto traj = fineTuneTrajectory(pretrained, opts, seed);
    assert(!traj.empty());
    return std::move(traj.back());
}

std::vector<WeightStore>
FineTuneSimulator::fineTuneTrajectory(const WeightStore &pretrained,
                                      const FineTuneOptions &opts,
                                      std::uint64_t seed)
{
    assert(opts.epochs > 0);
    util::Rng rng(seed);

    WeightStore current = pretrained;
    // The task head is newly added for the downstream task: random
    // init, converging exponentially toward a task-specific target.
    const std::vector<float> head_target =
        makeHeadTarget(opts.headWeights, rng);
    current.head.name = "task_head";
    current.head.w.assign(opts.headWeights, 0.0f);
    for (auto &v : current.head.w)
        v = static_cast<float>(rng.gaussian(0.0, 0.02f));
    current.analyticHeadWeights = pretrained.analyticHeadWeights;

    std::vector<WeightStore> trajectory;
    trajectory.reserve(opts.epochs);
    const double head_tau = 4.0;
    for (std::size_t e = 0; e < opts.epochs; ++e) {
        applyEpoch(current, pretrained, epochSigma(e), opts, rng);
        // Exponential head convergence (Fig. 6, second panel).
        const double blend =
            1.0 - std::exp(-1.0 / head_tau);
        for (std::size_t i = 0; i < current.head.w.size(); ++i) {
            current.head.w[i] += static_cast<float>(
                blend * (head_target[i] - current.head.w[i]) +
                rng.gaussian(0.0, 0.002));
        }
        trajectory.push_back(current);
    }
    return trajectory;
}

} // namespace decepticon::zoo
