/**
 * @file
 * Descriptive statistics used across the evaluation harness: mean,
 * percentiles, histograms, and Pearson correlation (the metric behind
 * the paper's head-confidence analysis, Fig. 20).
 */

#ifndef DECEPTICON_UTIL_STATS_HH
#define DECEPTICON_UTIL_STATS_HH

#include <cstddef>
#include <vector>

namespace decepticon::util {

/** Arithmetic mean; 0 for an empty input. */
double mean(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile.
 * @param xs samples (not required to be sorted)
 * @param p percentile in [0, 100]
 */
double percentile(std::vector<double> xs, double p);

/**
 * Pearson correlation coefficient of two equal-length series.
 * Returns 0 if either series is constant or the series are empty.
 */
double pearson(const std::vector<double> &xs, const std::vector<double> &ys);

/**
 * Top-k class ranking: the indices of the min(k, probs.size()) largest
 * entries of @p probs, best first, under the total order (probability
 * descending, index ascending), with NaN ranked below every number.
 * One linear scan over a k-slot sorted prefix — the same prefix a
 * stable full sort would give, at O(N k).
 */
std::vector<int> topKClasses(const std::vector<double> &probs,
                             std::size_t k);

/**
 * Fixed-width histogram over [lo, hi]; values outside the range are
 * clamped into the first/last bin, but every clamp is also tallied in
 * the underflow/overflow ledgers so a clipped distribution is visible
 * in exports rather than silently folded into the edge bins.
 */
struct Histogram
{
    double lo = 0.0;
    double hi = 1.0;
    std::vector<std::size_t> counts;
    /** Samples below lo (clamped into bin 0). */
    std::size_t underflow = 0;
    /** Samples above hi (clamped into the last bin). */
    std::size_t overflow = 0;

    /** Build a histogram with the given bin count. @pre bins > 0, hi > lo */
    Histogram(double lo, double hi, std::size_t bins);

    /** Insert one sample. */
    void add(double x);

    /** Insert many samples. */
    void addAll(const std::vector<double> &xs);

    /** Center of bin i. */
    double binCenter(std::size_t i) const;

    /** Fraction of samples with |value| <= bound (exact, from raw data). */
    static double fractionWithinAbs(const std::vector<double> &xs,
                                    double bound);
};

} // namespace decepticon::util

#endif // DECEPTICON_UTIL_STATS_HH
