#include "transformer/task.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace decepticon::transformer {

Dataset
Dataset::fraction(double f) const
{
    Dataset out;
    out.numClasses = numClasses;
    const auto n = static_cast<std::size_t>(
        std::max(1.0, f * static_cast<double>(examples.size())));
    out.examples.assign(examples.begin(),
                        examples.begin() +
                            std::min(n, examples.size()));
    return out;
}

namespace {

/** Build one row-stochastic matrix row as a cumulative distribution. */
std::vector<double>
makeCumulativeRow(util::Rng &rng, std::size_t vocab, double sharpness)
{
    std::vector<double> logits(vocab);
    for (auto &v : logits)
        v = rng.gaussian() * sharpness;
    double mx = logits[0];
    for (double v : logits)
        mx = std::max(mx, v);
    double sum = 0.0;
    for (auto &v : logits) {
        v = std::exp(v - mx);
        sum += v;
    }
    std::vector<double> cum(vocab);
    double acc = 0.0;
    for (std::size_t i = 0; i < vocab; ++i) {
        acc += logits[i] / sum;
        cum[i] = acc;
    }
    cum.back() = 1.0;
    return cum;
}

int
sampleFromCumulative(const std::vector<double> &cum, double u)
{
    auto it = std::lower_bound(cum.begin(), cum.end(), u);
    if (it == cum.end())
        --it;
    return static_cast<int>(it - cum.begin());
}

} // anonymous namespace

MarkovTask::MarkovTask(std::size_t vocab, std::size_t num_classes,
                       std::size_t seq_len, std::uint64_t seed,
                       double sharpness)
    : vocab_(vocab), numClasses_(num_classes), seqLen_(seq_len)
{
    assert(vocab > 1 && num_classes > 1 && seq_len > 1);
    util::Rng rng(seed);
    cumulative_.resize(num_classes);
    initial_.resize(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c) {
        initial_[c] = makeCumulativeRow(rng, vocab, sharpness);
        cumulative_[c].reserve(vocab * vocab);
        for (std::size_t t = 0; t < vocab; ++t) {
            auto row = makeCumulativeRow(rng, vocab, sharpness);
            cumulative_[c].insert(cumulative_[c].end(), row.begin(),
                                  row.end());
        }
    }
}

Dataset
MarkovTask::sample(std::size_t n, std::uint64_t seed) const
{
    util::Rng rng(seed);
    Dataset ds;
    ds.numClasses = numClasses_;
    ds.examples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = i % numClasses_;
        Example ex;
        ex.label = static_cast<int>(c);
        ex.tokens.resize(seqLen_);
        ex.tokens[0] = sampleFromCumulative(initial_[c], rng.uniform());
        for (std::size_t t = 1; t < seqLen_; ++t) {
            const auto prev = static_cast<std::size_t>(ex.tokens[t - 1]);
            const double u = rng.uniform();
            const double *row_begin = cumulative_[c].data() + prev * vocab_;
            const double *row_end = row_begin + vocab_;
            const double *it = std::lower_bound(row_begin, row_end, u);
            if (it == row_end)
                --it;
            ex.tokens[t] = static_cast<int>(it - row_begin);
        }
        ds.examples.push_back(std::move(ex));
    }
    rng.shuffle(ds.examples);
    return ds;
}

} // namespace decepticon::transformer
