#include "fault/fault.hh"

#include <algorithm>
#include <cassert>

#include "obs/obs.hh"
#include "util/rng.hh"

namespace decepticon::fault {

namespace {

/** Stream tags separating the independent fault processes. */
constexpr std::uint64_t kStuckTag = 0x57ac6b17ULL;
constexpr std::uint64_t kStuckValueTag = 0x57ac6b18ULL;
constexpr std::uint64_t kFlipTag = 0xf11bULL;
constexpr std::uint64_t kFailTag = 0xfa11ULL;
constexpr std::uint64_t kGarbageTag = 0x6a3ba6eULL;
constexpr std::uint64_t kAttemptKeyTag = 0xa77e3b7ULL;
constexpr std::uint64_t kTraceTag = 0x73ace0ULL;

/** Maximum fraction of records a tail truncation removes. */
constexpr double kTruncateMaxFraction = 0.2;

/** Uniform double in [0, 1) from a 64-bit hash. */
double
uniformFromHash(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool
validRate(double r)
{
    return r >= 0.0 && r < 1.0;
}

} // namespace

bool
FaultSpec::traceFaultsEnabled() const
{
    return recordDropRate > 0.0 || recordDuplicateRate > 0.0 ||
           truncateProbability > 0.0;
}

FaultInjector::FaultInjector(const FaultSpec &spec) : spec_(spec)
{
    assert(validRate(spec.probeFlipRate));
    assert(validRate(spec.stuckBitRate));
    assert(validRate(spec.transientFailureRate));
    assert(validRate(spec.recordDropRate));
    assert(validRate(spec.recordDuplicateRate));
    assert(spec.truncateProbability >= 0.0 &&
           spec.truncateProbability <= 1.0);
}

std::uint64_t
FaultInjector::addressHash(std::uint64_t tag, std::size_t layer,
                           std::size_t index, int word_bit) const
{
    util::SplitMix64 mix(spec_.seed ^ tag);
    std::uint64_t h = mix.next();
    h ^= util::SplitMix64(h ^ (static_cast<std::uint64_t>(layer) + 1)).next();
    h ^= util::SplitMix64(h ^ (static_cast<std::uint64_t>(index) + 1)).next();
    h ^= util::SplitMix64(h ^ static_cast<std::uint64_t>(word_bit + 2))
             .next();
    return h;
}

bool
FaultInjector::cellStuck(std::size_t layer, std::size_t index,
                         int word_bit) const
{
    if (spec_.stuckBitRate <= 0.0)
        return false;
    return uniformFromHash(addressHash(kStuckTag, layer, index,
                                       word_bit)) < spec_.stuckBitRate;
}

ProbeFaultOutcome
FaultInjector::perturbProbe(std::size_t layer, std::size_t index,
                            int word_bit, bool true_bit)
{
    ProbeFaultOutcome out;
    out.bit = true_bit;

    const std::uint64_t addr_key =
        addressHash(kAttemptKeyTag, layer, index, word_bit);
    const std::uint32_t attempt = attempts_[addr_key]++;

    // Transient probe failure: rounds were spent, nothing was learned.
    // The delivered bit is address/attempt hash garbage so a caller
    // that ignores the failure flag degrades honestly.
    if (spec_.transientFailureRate > 0.0 &&
        uniformFromHash(addressHash(kFailTag ^ attempt, layer, index,
                                    word_bit)) <
            spec_.transientFailureRate) {
        ++counters_.probeFailures;
        out.ok = false;
        out.bit = (addressHash(kGarbageTag ^ attempt, layer, index,
                               word_bit) &
                   1u) != 0;
        return out;
    }

    // Stuck cells answer with their stuck value on every attempt;
    // retrying and voting cannot recover the true bit.
    if (cellStuck(layer, index, word_bit)) {
        ++counters_.stuckReads;
        out.bit = (addressHash(kStuckValueTag, layer, index, word_bit) &
                   1u) != 0;
        if (out.bit != true_bit)
            ++counters_.bitFlips;
        return out;
    }

    // Transient flips.
    if (spec_.probeFlipRate > 0.0 &&
        uniformFromHash(addressHash(kFlipTag ^ attempt, layer, index,
                                    word_bit)) < spec_.probeFlipRate) {
        out.bit = !out.bit;
        ++counters_.bitFlips;
    }
    return out;
}

gpusim::KernelTrace
FaultInjector::corruptTrace(const gpusim::KernelTrace &trace,
                            std::uint64_t capture_seed)
{
    gpusim::KernelTrace out;
    out.kernelNames = trace.kernelNames;
    // Attempts are counted before the healthy early-out, so the
    // exported corrupted/attempts ratio has an honest denominator.
    obs::count("fault.capture_attempts");
    if (trace.records.empty() || !spec_.traceFaultsEnabled()) {
        out.records = trace.records;
        return out;
    }

    util::SplitMix64 mix(spec_.seed ^ kTraceTag);
    util::Rng rng(mix.next() ^ capture_seed);

    const std::size_t dropped_before = counters_.recordsDropped;
    const std::size_t duplicated_before = counters_.recordsDuplicated;
    const std::size_t truncated_before = counters_.recordsTruncated;

    out.records.reserve(trace.records.size());
    for (const auto &rec : trace.records) {
        if (spec_.recordDropRate > 0.0 &&
            rng.bernoulli(spec_.recordDropRate)) {
            ++counters_.recordsDropped;
            continue;
        }
        out.records.push_back(rec);
        // CUPTI-style duplication delivers the identical record twice.
        if (spec_.recordDuplicateRate > 0.0 &&
            rng.bernoulli(spec_.recordDuplicateRate)) {
            out.records.push_back(rec);
            ++counters_.recordsDuplicated;
        }
    }

    if (spec_.truncateProbability > 0.0 &&
        rng.bernoulli(spec_.truncateProbability) &&
        out.records.size() > 1) {
        const double frac = rng.uniform(0.0, kTruncateMaxFraction);
        const auto cut = static_cast<std::size_t>(
            frac * static_cast<double>(out.records.size()));
        const std::size_t keep =
            std::max<std::size_t>(1, out.records.size() - cut);
        if (keep < out.records.size()) {
            counters_.recordsTruncated += out.records.size() - keep;
            ++counters_.tailsTruncated;
            out.records.resize(keep);
        }
    }

    // A capture that lost everything still delivers one record; a
    // fully empty profiler buffer would abort the session, not the
    // experiment.
    if (out.records.empty())
        out.records.push_back(trace.records.front());

    const std::size_t dropped = counters_.recordsDropped - dropped_before;
    const std::size_t duplicated =
        counters_.recordsDuplicated - duplicated_before;
    const std::size_t truncated =
        counters_.recordsTruncated - truncated_before;
    // A capture counts as corrupted only when a fault fired on it; a
    // configured rate that drew nothing delivers the trace intact.
    if (dropped + duplicated + truncated > 0) {
        obs::count("fault.captures_corrupted");
        obs::flightRecord(obs::FlightEventKind::Fault, "trace_capture",
                          "trace_corrupted",
                          static_cast<double>(dropped));
    }
    obs::count("fault.records_dropped", dropped);
    obs::count("fault.records_duplicated", duplicated);
    obs::count("fault.records_truncated", truncated);
    return out;
}

} // namespace decepticon::fault
