#include "fingerprint/metrics.hh"

#include <algorithm>
#include <cassert>

namespace decepticon::fingerprint {

double
ConfusionMatrix::precision(std::size_t c) const
{
    assert(c < counts.size());
    std::size_t predicted = 0;
    for (std::size_t t = 0; t < counts.size(); ++t)
        predicted += counts[t][c];
    return predicted == 0 ? 0.0
                          : static_cast<double>(counts[c][c]) /
                                static_cast<double>(predicted);
}

double
ConfusionMatrix::recall(std::size_t c) const
{
    assert(c < counts.size());
    std::size_t seen = 0;
    for (std::size_t p = 0; p < counts.size(); ++p)
        seen += counts[c][p];
    return seen == 0 ? 0.0
                     : static_cast<double>(counts[c][c]) /
                           static_cast<double>(seen);
}

ConfusionMatrix
confusionMatrix(FingerprintCnn &cnn, const FingerprintDataset &data)
{
    ConfusionMatrix cm;
    cm.classNames = data.classNames;
    cm.counts.assign(data.numClasses(),
                     std::vector<std::size_t>(data.numClasses(), 0));
    for (const auto &sample : data.samples) {
        const int pred = cnn.predict(sample.image);
        assert(pred >= 0 &&
               static_cast<std::size_t>(pred) < data.numClasses());
        ++cm.counts[static_cast<std::size_t>(sample.label)]
                   [static_cast<std::size_t>(pred)];
    }
    return cm;
}

double
topKAccuracy(FingerprintCnn &cnn, const FingerprintDataset &data,
             std::size_t k)
{
    if (data.samples.empty())
        return 0.0;
    std::size_t hits = 0;
    for (const auto &sample : data.samples) {
        const auto top = cnn.topK(sample.image, k);
        if (std::find(top.begin(), top.end(), sample.label) != top.end())
            ++hits;
    }
    return static_cast<double>(hits) /
           static_cast<double>(data.samples.size());
}

} // namespace decepticon::fingerprint
