#include "zoo/weight_store.hh"

#include <cassert>
#include <cmath>

#include "util/rng.hh"

namespace decepticon::zoo {

std::size_t
analyticEncoderWeightCount(const gpusim::ArchParams &arch)
{
    const std::size_t h = arch.hidden;
    const std::size_t ffn = 4 * h;
    // Wq, Wk, Wv, Wo: 4 * h*h (+ 4h biases); FFN: h*ffn * 2 (+ ffn + h);
    // two layer norms: 4h.
    return 4 * h * h + 4 * h + 2 * h * ffn + ffn + h + 4 * h;
}

WeightStore
WeightStore::makePretrained(const gpusim::ArchParams &arch,
                            std::uint64_t seed,
                            std::size_t weights_per_layer,
                            float weight_sigma)
{
    assert(weights_per_layer > 0);
    util::Rng rng(seed);
    WeightStore ws;
    ws.analyticLayerWeights = analyticEncoderWeightCount(arch);
    // Token + position embeddings (30k-ish vocab at full scale).
    ws.analyticEmbeddingWeights = 30522 * arch.hidden +
                                  512 * arch.hidden;
    ws.analyticHeadWeights = arch.hidden * arch.numClasses +
                             arch.numClasses;

    ws.layers.reserve(arch.numLayers);
    for (std::size_t l = 0; l < arch.numLayers; ++l) {
        LayerWeights lw;
        lw.name = "encoder" + std::to_string(l);
        lw.w.resize(weights_per_layer);
        for (auto &v : lw.w) {
            v = static_cast<float>(rng.gaussian(0.0, weight_sigma));
            // Rare large-magnitude weights give the wide value ranges
            // the paper reports (1.74 up to 26.3 across models).
            if (rng.bernoulli(0.01))
                v *= static_cast<float>(rng.uniform(3.0, 12.0));
        }
        ws.layers.push_back(std::move(lw));
    }
    return ws;
}

std::size_t
WeightStore::slotSize(std::size_t slot) const
{
    return slot == layers.size() ? head.w.size() : layers.at(slot).w.size();
}

float
WeightStore::slotWeight(std::size_t slot, std::size_t index) const
{
    return (slot == layers.size() ? head.w : layers.at(slot).w).at(index);
}

std::size_t
WeightStore::analyticTotalWeights() const
{
    return analyticEmbeddingWeights +
           analyticLayerWeights * layers.size() + analyticHeadWeights;
}

double
WeightStore::headWeightFraction() const
{
    const std::size_t total = analyticTotalWeights();
    return total == 0 ? 0.0
                      : static_cast<double>(analyticHeadWeights) /
                            static_cast<double>(total);
}

std::vector<double>
WeightStore::perLayerMeanAbsDiff(const WeightStore &other) const
{
    assert(layers.size() == other.layers.size());
    std::vector<double> out;
    out.reserve(layers.size() + 1);
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const auto &a = layers[l].w;
        const auto &b = other.layers[l].w;
        assert(a.size() == b.size());
        double s = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i)
            s += std::fabs(static_cast<double>(a[i]) - b[i]);
        out.push_back(a.empty() ? 0.0
                                : s / static_cast<double>(a.size()));
    }
    if (!head.w.empty() && head.w.size() == other.head.w.size()) {
        double s = 0.0;
        for (std::size_t i = 0; i < head.w.size(); ++i)
            s += std::fabs(static_cast<double>(head.w[i]) -
                           other.head.w[i]);
        out.push_back(s / static_cast<double>(head.w.size()));
    }
    return out;
}

std::vector<double>
WeightStore::weightDeltas(const WeightStore &other) const
{
    assert(layers.size() == other.layers.size());
    std::vector<double> out;
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const auto &a = layers[l].w;
        const auto &b = other.layers[l].w;
        assert(a.size() == b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            out.push_back(static_cast<double>(a[i]) - b[i]);
    }
    return out;
}

} // namespace decepticon::zoo
