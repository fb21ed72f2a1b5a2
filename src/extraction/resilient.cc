#include "extraction/resilient.hh"

#include <algorithm>

#include "extraction/ieee.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"

namespace decepticon::extraction {

namespace {

/**
 * Reads per bit in the majority vote (odd; 1 disables voting). Early
 * exit: reading stops once one value holds a majority.
 */
constexpr int kVotes = 3;
/** Total attempt budget per bit, failed probes included. */
constexpr int kMaxAttemptsPerBit = 9;
/** Penalty rounds charged after the first consecutive failure. */
constexpr std::size_t kBackoffBaseRounds = 4;
/** Penalty doubles per consecutive failure up to this cap. */
constexpr std::size_t kBackoffCapRounds = 256;

static_assert(kVotes >= 1 && kVotes % 2 == 1);
static_assert(kMaxAttemptsPerBit >= kVotes);

} // anonymous namespace

double
ReliabilityStats::amplification() const
{
    return logicalBits == 0 ? 1.0
                            : static_cast<double>(physicalReads) /
                                  static_cast<double>(logicalBits);
}

void
ReliabilityStats::toMetrics(obs::MetricsRegistry &registry,
                            const std::string &prefix) const
{
    const auto gauge = [&](const char *field, double value) {
        registry.setGauge(prefix + "." + field, value);
    };
    gauge("logical_bits", static_cast<double>(logicalBits));
    gauge("physical_reads", static_cast<double>(physicalReads));
    gauge("retries", static_cast<double>(retries));
    gauge("vote_reads", static_cast<double>(voteReads));
    gauge("probe_failures", static_cast<double>(probeFailures));
    gauge("backoff_rounds", static_cast<double>(backoffRounds));
    gauge("fallback_bits", static_cast<double>(fallbackBits));
    gauge("exhausted_bits", static_cast<double>(exhaustedBits));
    gauge("amplification", amplification());
}

RetryingProber::RetryingProber(BitProbeChannel &inner,
                               const zoo::WeightStore *fallback)
    : BitProbeChannel(inner.memory()),
      inner_(inner),
      fallback_(fallback)
{
}

ProbeAttempt
RetryingProber::tryReadBit(std::size_t layer, std::size_t index,
                           int word_bit)
{
    const int majority = kVotes / 2 + 1;
    int ones = 0;
    int zeros = 0;
    int attempts = 0;
    int consecutive_failures = 0;
    std::size_t backoff = kBackoffBaseRounds;

    while (attempts < kMaxAttemptsPerBit && ones < majority &&
           zeros < majority) {
        const ProbeAttempt attempt =
            inner_.tryReadBit(layer, index, word_bit);
        ++attempts;
        if (!attempt.ok) {
            ++reliability_.probeFailures;
            // Exponential backoff: a failed hammer leaves the
            // aggressor rows in an unknown state; re-arming them
            // costs rounds that grow with each consecutive failure.
            if (consecutive_failures > 0) {
                inner_.accrueRounds(backoff);
                reliability_.backoffRounds += backoff;
                backoff = std::min(2 * backoff, kBackoffCapRounds);
            }
            ++consecutive_failures;
            continue;
        }
        consecutive_failures = 0;
        backoff = kBackoffBaseRounds;
        (attempt.bit ? ones : zeros) += 1;
    }

    ++reliability_.logicalBits;
    reliability_.physicalReads += static_cast<std::size_t>(attempts);
    obs::count("resilient.vote_rounds",
               static_cast<std::size_t>(attempts));
    if (attempts > majority)
        obs::flightRecord(obs::FlightEventKind::Retry, "probe",
                          "vote_rounds",
                          static_cast<double>(attempts - majority));
    const int successes = ones + zeros;
    if (successes > 1)
        reliability_.voteReads +=
            static_cast<std::size_t>(successes - 1);
    if (attempts > majority)
        reliability_.retries +=
            static_cast<std::size_t>(attempts - majority);

    ProbeAttempt out;
    if (ones >= majority || zeros >= majority) {
        out.ok = true;
        out.bit = ones > zeros;
        return out;
    }

    // Budget exhausted without a verdict: degrade to the pre-trained
    // baseline bit when one exists (fine-tuning deltas are tiny, so
    // the baseline is the best remaining estimate).
    ++reliability_.exhaustedBits;
    if (fallback_ != nullptr) {
        ++reliability_.fallbackBits;
        out.ok = true;
        out.bit = (floatToBits(fallback_->slotWeight(layer, index)) >>
                   word_bit) &
                  1u;
        return out;
    }
    out.ok = false;
    out.bit = ones >= zeros;
    return out;
}

} // namespace decepticon::extraction
