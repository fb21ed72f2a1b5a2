#include "obs/quantile.hh"

#include <algorithm>
#include <cmath>

namespace decepticon::obs {

LogHistogram
LogHistogram::fromCounts(const std::vector<std::uint64_t> &counts,
                         std::uint64_t underflow, std::uint64_t overflow,
                         double sum)
{
    LogHistogram h;
    const std::size_t n = std::min(counts.size(), kBuckets);
    for (std::size_t i = 0; i < n; ++i) {
        h.counts_[i] = counts[i];
        h.total_ += counts[i];
    }
    h.underflow_ = underflow;
    h.overflow_ = overflow;
    h.total_ += underflow + overflow;
    h.sum_ = sum;
    return h;
}

void
LogHistogram::add(double value)
{
    ++total_;
    sum_ += value;
    if (!(value >= kLo)) { // also catches NaN
        ++underflow_;
        return;
    }
    const double idx =
        std::log2(value / kLo) * static_cast<double>(kBucketsPerOctave);
    if (idx >= static_cast<double>(kBuckets)) {
        ++overflow_;
        return;
    }
    ++counts_[static_cast<std::size_t>(idx)];
}

double
LogHistogram::bucketLo(std::size_t i)
{
    return kLo * std::exp2(static_cast<double>(i) /
                           static_cast<double>(kBucketsPerOctave));
}

double
LogHistogram::bucketMid(std::size_t i)
{
    return kLo * std::exp2((static_cast<double>(i) + 0.5) /
                           static_cast<double>(kBucketsPerOctave));
}

double
LogHistogram::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-th sample, 1-based, over the clamped ordering:
    // underflow (as kLo) < bucket 0 < ... < bucket N-1 < overflow.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(total_))));
    if (rank <= underflow_)
        return kLo;
    std::uint64_t seen = underflow_;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (rank <= seen)
            return bucketMid(i);
    }
    return bucketLo(kBuckets); // overflow clamp: top edge
}

double
LogHistogram::mean() const
{
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

} // namespace decepticon::obs
