#include "extraction/selective.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "extraction/ieee.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"

namespace decepticon::extraction {

/** Reference magnitude of the attacker's U-shape law. */
constexpr double kWRef = 0.25;

double
ExtractionPolicy::estimatedDist(double base_weight) const
{
    const double m = std::fabs(base_weight) / kWRef;
    return baseDist * (1.0 + uShapeAlpha * m * m);
}

double
ExtractionStats::bitsExcludedFraction() const
{
    const std::size_t all_bits = 32 * totalWeights;
    if (all_bits == 0)
        return 0.0;
    const std::size_t read = bitsChecked + 32 * fullWeightsRead;
    return 1.0 - static_cast<double>(read) /
                     static_cast<double>(all_bits);
}

double
ExtractionStats::weightsSkippedFraction() const
{
    return totalWeights == 0 ? 0.0
                             : static_cast<double>(weightsSkipped) /
                                   static_cast<double>(totalWeights);
}

double
ExtractionStats::correctFraction() const
{
    return auditedWeights == 0
               ? 0.0
               : 1.0 - static_cast<double>(extractionErrors) /
                           static_cast<double>(auditedWeights);
}

void
ExtractionStats::merge(const ExtractionStats &other)
{
    totalWeights += other.totalWeights;
    weightsSkipped += other.weightsSkipped;
    weightsChecked += other.weightsChecked;
    bitsChecked += other.bitsChecked;
    fullWeightsRead += other.fullWeightsRead;
    unreadableWeights += other.unreadableWeights;
    baselineFallbackWeights += other.baselineFallbackWeights;
    auditedWeights += other.auditedWeights;
    extractionErrors += other.extractionErrors;
    signFlips += other.signFlips;
}

void
ExtractionStats::toMetrics(obs::MetricsRegistry &registry,
                           const std::string &prefix) const
{
    const auto gauge = [&](const char *field, double value) {
        registry.setGauge(prefix + "." + field, value);
    };
    gauge("total_weights", static_cast<double>(totalWeights));
    gauge("weights_skipped", static_cast<double>(weightsSkipped));
    gauge("weights_checked", static_cast<double>(weightsChecked));
    gauge("bits_checked", static_cast<double>(bitsChecked));
    gauge("full_weights_read", static_cast<double>(fullWeightsRead));
    gauge("unreadable_weights", static_cast<double>(unreadableWeights));
    gauge("baseline_fallback_weights",
          static_cast<double>(baselineFallbackWeights));
    gauge("audited_weights", static_cast<double>(auditedWeights));
    gauge("extraction_errors", static_cast<double>(extractionErrors));
    gauge("sign_flips", static_cast<double>(signFlips));
    gauge("bits_excluded_fraction", bitsExcludedFraction());
    gauge("weights_skipped_fraction", weightsSkippedFraction());
    gauge("correct_fraction", correctFraction());
}

namespace {

/**
 * Channel-independent read plan for one weight: Algorithm 1's control
 * flow up to — but not including — the channel. A pure function of
 * (policy, base), so planning parallelizes freely.
 */
struct WeightPlan
{
    enum Action : std::uint8_t {
        kSkip,       ///< reuse the baseline, no channel contact
        kDegenerate, ///< zero / non-finite base: checked, no reads
        kFullRead,   ///< expected update too large: full 32-bit read
        kBits,       ///< read nbits fraction bits starting at k0
    };
    Action action = kSkip;
    int k0 = 0;
    int nbits = 0;
};

WeightPlan
planWeight(const ExtractionPolicy &policy, float base)
{
    WeightPlan plan;
    const double abs_base = std::fabs(static_cast<double>(base));
    const double est = policy.estimatedDist(abs_base);

    // Step 1: tiny weights, or weights whose expected update is below
    // the significance threshold, keep the pre-trained value.
    if (abs_base < kSkipThreshold || est < policy.significance) {
        plan.action = WeightPlan::kSkip;
        return plan;
    }

    if (base == 0.0f || !std::isfinite(base)) {
        plan.action = WeightPlan::kDegenerate; // nothing to splice
        return plan;
    }

    // Algorithm 1 presumes the sign and exponent fields survive
    // fine-tuning. When the expected update is comparable to the
    // weight itself that premise fails (the value can cross a binade
    // or flip sign), and the attacker — who knows both the baseline
    // and the estimate — falls back to a full read. Such weights are
    // rare for encoder matrices but common in embedding tables.
    if (est >= 0.5 * abs_base) {
        plan.action = WeightPlan::kFullRead;
        return plan;
    }

    // Step 2: pick the fraction bits whose place values cover the
    // estimated gap. The window starts at the most significant
    // position whose place value fits within twice the estimated gap
    // (so the residue modulus exceeds any expected update) and spans
    // maxBitsPerWeight positions, stopping early once place values
    // drop below the significance floor.
    // Quantized victims expose fewer fraction bits (Sec. 8).
    plan.action = WeightPlan::kBits;
    const int max_k = std::min(23, policy.storageFormat.fractionBits);
    int k0 = 1;
    while (k0 <= max_k && fractionBitPlaceValue(base, k0) > est)
        ++k0;
    plan.k0 = k0;
    for (int i = 0; i < policy.maxBitsPerWeight && k0 + i <= max_k;
         ++i) {
        if (fractionBitPlaceValue(base, k0 + i) <
            policy.significance / 4.0)
            break;
        ++plan.nbits;
    }
    return plan;
}

/** What the serial probe phase delivered for one planned weight. */
struct ProbeResult
{
    bool readable = true;
    float fullValue = 0.0f;
    std::uint32_t bits = 0; ///< bit j = j-th planned fraction position
};

/**
 * Execute one weight's plan against the channel. The channel is the
 * only stateful participant (DRAM warm rows, fault-process counters,
 * the error rng), so callers run probes serially in index order — the
 * exact call sequence of the legacy per-weight loop.
 */
ProbeResult
probeWeight(const WeightPlan &plan, BitProbeChannel &channel,
            std::size_t layer, std::size_t index)
{
    ProbeResult res;
    if (plan.action == WeightPlan::kSkip)
        return res;

    // Physically unreachable weights (e.g. DRAM rows without usable
    // aggressors) keep the baseline — the attacker cannot do better
    // without the channel.
    if (!channel.canRead(layer, index)) {
        res.readable = false;
        return res;
    }

    if (plan.action == WeightPlan::kFullRead) {
        res.fullValue = channel.readFullWeight(layer, index);
    } else if (plan.action == WeightPlan::kBits) {
        for (int j = 0; j < plan.nbits; ++j) {
            if (channel.readBit(layer, index,
                                fractionPosToWordBit(plan.k0 + j)))
                res.bits |= 1u << j;
        }
    }
    return res;
}

/** Pure decode of one probed weight; also tallies the stats. */
float
decodeWeight(float base, const WeightPlan &plan,
             const ProbeResult &probe, ExtractionStats &stats)
{
    ++stats.totalWeights;
    if (plan.action == WeightPlan::kSkip) {
        ++stats.weightsSkipped;
        return base;
    }
    if (!probe.readable) {
        ++stats.unreadableWeights;
        ++stats.baselineFallbackWeights;
        return base;
    }
    ++stats.weightsChecked;
    if (plan.action == WeightPlan::kDegenerate)
        return base;
    if (plan.action == WeightPlan::kFullRead) {
        ++stats.fullWeightsRead;
        return probe.fullValue;
    }
    stats.bitsChecked += static_cast<std::size_t>(plan.nbits);
    if (plan.nbits == 0)
        return base;

    double observed = 0.0;
    double base_window = 0.0;
    for (int j = 0; j < plan.nbits; ++j) {
        const double pv = fractionBitPlaceValue(base, plan.k0 + j);
        if (probe.bits & (1u << j))
            observed += pv;
        if (fractionBit(base, plan.k0 + j))
            base_window += pv;
    }

    // Decode: the victim's value is congruent to the observed window
    // modulo the place value just above it; among the representatives
    // of that residue class, the one nearest the baseline is the
    // victim (valid whenever the true update stays within half the
    // modulus — the calibrated expectation). This handles fraction
    // carries that naive bit splicing would corrupt.
    const double modulus = plan.k0 == 1
                               ? leadingPlaceValue(base)
                               : fractionBitPlaceValue(base, plan.k0 - 1);
    double delta = observed - base_window;
    delta -= modulus * std::round(delta / modulus);
    // The delta applies to the magnitude; the sign field is assumed
    // stable (99% of weights keep their sign, Sec. 6.1.1).
    const double magnitude = std::fabs(static_cast<double>(base)) + delta;
    return static_cast<float>(
        std::copysign(magnitude, static_cast<double>(base)));
}

/** Deterministic chunking for per-chunk stats accumulation. */
constexpr std::size_t kStatsGrain = 1024;

} // anonymous namespace

float
SelectiveWeightExtractor::extractWeight(float base,
                                        BitProbeChannel &channel,
                                        std::size_t layer,
                                        std::size_t index,
                                        ExtractionStats &stats) const
{
    const WeightPlan plan = planWeight(policy_, base);
    const ProbeResult probe = probeWeight(plan, channel, layer, index);
    return decodeWeight(base, plan, probe, stats);
}

std::vector<float>
SelectiveWeightExtractor::extractLayer(const std::vector<float> &base,
                                       BitProbeChannel &channel,
                                       std::size_t layer,
                                       ExtractionStats &stats) const
{
    obs::StageTimer stage_timer("extract");
    const std::size_t n = base.size();

    // Plan: pure per-weight classification, parallel.
    std::vector<WeightPlan> plans(n);
    sched::parallelFor(n, 0, [&](std::size_t i) {
        plans[i] = planWeight(policy_, base[i]);
    });

    // Probe: serial, in index order — exactly the channel-call
    // sequence of a serial extractWeight() loop, so the channel's
    // internal state (and thus every read) is thread-count-invariant.
    std::vector<ProbeResult> probes(n);
    for (std::size_t i = 0; i < n; ++i)
        probes[i] = probeWeight(plans[i], channel, layer, i);

    // Decode: pure per-weight arithmetic, parallel over fixed-size
    // chunks; each chunk tallies into its own ExtractionStats, merged
    // in chunk order so the totals are scheduling-independent.
    std::vector<float> out(n);
    const std::size_t nchunks = (n + kStatsGrain - 1) / kStatsGrain;
    std::vector<ExtractionStats> partial(nchunks);
    sched::parallelFor(nchunks, 1, [&](std::size_t c) {
        const std::size_t lo = c * kStatsGrain;
        const std::size_t hi = std::min(n, lo + kStatsGrain);
        for (std::size_t i = lo; i < hi; ++i)
            out[i] = decodeWeight(base[i], plans[i], probes[i],
                                  partial[c]);
    });
    for (const auto &p : partial)
        stats.merge(p);
    return out;
}

std::vector<float>
SelectiveWeightExtractor::extractHead(BitProbeChannel &channel,
                                      std::size_t head_layer,
                                      std::size_t count,
                                      ExtractionStats &stats) const
{
    std::vector<float> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        ++stats.totalWeights;
        if (!channel.canRead(head_layer, i)) {
            // No baseline exists for the head; an unreachable head
            // weight stays zero (a dead output connection).
            ++stats.unreadableWeights;
            out.push_back(0.0f);
            continue;
        }
        out.push_back(channel.readFullWeight(head_layer, i));
        ++stats.fullWeightsRead;
    }
    return out;
}

zoo::WeightStore
quantizeStore(const zoo::WeightStore &store, const FloatFormat &fmt)
{
    zoo::WeightStore out = store;
    for (auto &layer : out.layers)
        for (auto &w : layer.w)
            w = quantizeTo(w, fmt);
    for (auto &w : out.head.w)
        w = quantizeTo(w, fmt);
    return out;
}

void
SelectiveWeightExtractor::auditAccuracy(const std::vector<float> &extracted,
                                        const std::vector<float> &actual,
                                        const std::vector<float> &base,
                                        ExtractionStats &stats) const
{
    assert(extracted.size() == actual.size());
    assert(base.size() == actual.size());
    const std::size_t n = extracted.size();
    const std::size_t nchunks = (n + kStatsGrain - 1) / kStatsGrain;
    std::vector<ExtractionStats> partial(nchunks);
    sched::parallelFor(nchunks, 1, [&](std::size_t c) {
        ExtractionStats &local = partial[c];
        const std::size_t lo = c * kStatsGrain;
        const std::size_t hi = std::min(n, lo + kStatsGrain);
        for (std::size_t i = lo; i < hi; ++i) {
            ++local.auditedWeights;
            const double residual =
                std::fabs(static_cast<double>(extracted[i]) - actual[i]);
            // The estimated distance is a typical-update scale;
            // updates up to ~3x of it are still "expected" (paper:
            // gaps larger than the expected amount count as incorrect
            // extractions).
            const double budget = std::max(
                policy_.errorTolerance,
                3.0 * policy_.estimatedDist(std::fabs(
                          static_cast<double>(base[i]))));
            const bool sign_flip =
                std::signbit(base[i]) != std::signbit(actual[i]) &&
                std::fabs(static_cast<double>(actual[i])) >
                    kSkipThreshold;
            if (sign_flip)
                ++local.signFlips;
            if (residual > budget || sign_flip)
                ++local.extractionErrors;
        }
    });
    for (const auto &p : partial)
        stats.merge(p);
}

} // namespace decepticon::extraction
