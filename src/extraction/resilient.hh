/**
 * @file
 * Resilient bit-probe extraction over an unreliable channel. The raw
 * rowhammer primitive is noisy (see fault/fault.hh): bits flip, cells
 * stick, probe attempts fail while still costing rounds. DeepSteal's
 * answer — repeated reads with majority voting — is implemented here
 * as a channel wrapper, so Algorithm 1 and the model cloner run
 * unchanged on top of it:
 *
 *  - k-of-n majority voting per bit with early exit (a clean channel
 *    pays ceil(n/2) reads, a noisy one keeps reading until a side
 *    wins);
 *  - a cost-aware retry budget with exponential backoff after
 *    consecutive probe failures (re-arming aggressor rows after a
 *    failed hammer is charged as extra rounds);
 *  - graceful degradation: a bit that exhausts its budget falls back
 *    to the pre-trained baseline bit — the paper's own observation
 *    that fine-tuning deltas are tiny makes the baseline the best
 *    available estimate when the channel will not answer.
 *
 * Every physical attempt is charged on the wrapped channel, so
 * ProbeStats keeps a single honest cost ledger and Fig. 16-style
 * accounting includes the reliability overhead.
 */

#ifndef DECEPTICON_EXTRACTION_RESILIENT_HH
#define DECEPTICON_EXTRACTION_RESILIENT_HH

#include <cstddef>

#include "extraction/bitprobe.hh"

namespace decepticon::extraction {

/** Reliability accounting of a RetryingProber session. */
struct ReliabilityStats
{
    std::size_t logicalBits = 0;   ///< bits the extractor asked for
    std::size_t physicalReads = 0; ///< attempts issued to the channel
    std::size_t retries = 0;       ///< attempts beyond a clean majority
    std::size_t voteReads = 0;     ///< extra successful reads for voting
    std::size_t probeFailures = 0; ///< attempts that landed nothing
    std::size_t backoffRounds = 0; ///< penalty rounds charged
    std::size_t fallbackBits = 0;  ///< bits answered from the baseline
    std::size_t exhaustedBits = 0; ///< bits whose budget ran out

    /** Physical reads per logical bit (1.0 on a perfect channel
     *  with votes == 1). */
    double amplification() const;

    /**
     * Publish the snapshot as "<prefix>.*" gauges (all counters plus
     * the derived amplification factor).
     */
    void toMetrics(obs::MetricsRegistry &registry,
                   const std::string &prefix) const;
};

/**
 * Majority-voting, retrying, gracefully degrading wrapper around any
 * BitProbeChannel. Drop-in for the selective extractor: logical reads
 * go through this object, physical attempts (and every hammer round,
 * including backoff penalties) are charged on the wrapped channel, so
 * inner.stats() remains the cost ledger of the session. The policy is
 * fixed (resilient.cc): 3-read majority vote, 9 attempts per bit,
 * backoff from 4 rounds doubling up to 256.
 */
class RetryingProber : public BitProbeChannel
{
  public:
    /**
     * @param inner the physical (possibly faulty) channel
     * @param fallback baseline weight memory for budget-exhausted
     *        bits, slot for slot like the victim's (typically the
     *        identified pre-trained model); nullptr degrades exhausted
     *        bits to a failed attempt instead
     */
    explicit RetryingProber(BitProbeChannel &inner,
                            const zoo::WeightStore *fallback = nullptr);

    bool
    canRead(std::size_t layer, std::size_t index) const override
    {
        return inner_.canRead(layer, index);
    }

    ProbeAttempt tryReadBit(std::size_t layer, std::size_t index,
                            int word_bit) override;

    const ReliabilityStats &reliability() const { return reliability_; }

  private:
    BitProbeChannel &inner_;
    const zoo::WeightStore *fallback_;
    ReliabilityStats reliability_;
};

} // namespace decepticon::extraction

#endif // DECEPTICON_EXTRACTION_RESILIENT_HH
