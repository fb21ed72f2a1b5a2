/**
 * @file
 * Log-bucketed quantile histogram (HDR-style) — the distribution half
 * of obs v2. A LogHistogram covers [1, 2^40) (microseconds: 1 µs to
 * ~12.7 days) with a fixed geometry of 8 buckets per octave, so any
 * two histograms are comparable bucket by bucket and a
 * reported quantile is within a factor of 2^(1/8) ≈ 1.0905 (≤ 4.5%
 * at the geometric bucket midpoint) of the true value. Values outside
 * the range are clamped to the edge AND counted in underflow/overflow
 * ledgers, so a clipped distribution is visible, never silent.
 *
 * The geometry is deliberately compile-time fixed rather than
 * configurable: obsview compares exports written by different
 * binaries at different times, which only works when every histogram
 * of a given name shares bucket boundaries.
 */

#ifndef DECEPTICON_OBS_QUANTILE_HH
#define DECEPTICON_OBS_QUANTILE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace decepticon::obs {

/** Fixed-geometry log-bucketed histogram with exact count ledgers. */
class LogHistogram
{
  public:
    /** Buckets per octave (doubling); rel. error = 2^(1/8)-1. */
    static constexpr std::size_t kBucketsPerOctave = 8;
    /** Octaves covered from kLo upward. */
    static constexpr std::size_t kOctaves = 40;
    /** Total bucket count. */
    static constexpr std::size_t kBuckets = kBucketsPerOctave * kOctaves;
    /** Lower bound of bucket 0 (1 µs when values are microseconds). */
    static constexpr double kLo = 1.0;

    LogHistogram() : counts_(kBuckets, 0) {}

    /** Rebuild a histogram from exported state (obsview round-trip).
     *  Short/long count vectors are zero-padded/truncated. */
    static LogHistogram fromCounts(const std::vector<std::uint64_t> &counts,
                                   std::uint64_t underflow,
                                   std::uint64_t overflow, double sum);

    /** Record one sample (clamped; under/overflow ledgers updated). */
    void add(double value);

    /** Samples recorded, including clamped ones. */
    std::uint64_t total() const { return total_; }

    /** Sum of raw (unclamped) sample values. */
    double sum() const { return sum_; }

    /** Samples below bucket 0 (clamped up to kLo). */
    std::uint64_t underflow() const { return underflow_; }

    /** Samples at/above the top bucket (clamped down). */
    std::uint64_t overflow() const { return overflow_; }

    /** Per-bucket counts (kBuckets entries). */
    const std::vector<std::uint64_t> &counts() const { return counts_; }

    /** Geometric lower bound of bucket i. */
    static double bucketLo(std::size_t i);

    /** Geometric midpoint of bucket i (the reported quantile value). */
    static double bucketMid(std::size_t i);

    /**
     * Quantile estimate for q in [0, 1]: the geometric midpoint of
     * the bucket holding the q-th sample (underflow counts sit below
     * bucket 0 and report kLo; overflow reports the top bucket's
     * upper edge). 0 for an empty histogram.
     */
    double quantile(double q) const;

    /** Arithmetic mean of raw samples (0 when empty). */
    double mean() const;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    double sum_ = 0.0;
};

} // namespace decepticon::obs

#endif // DECEPTICON_OBS_QUANTILE_HH
