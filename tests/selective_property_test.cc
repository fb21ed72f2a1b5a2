/**
 * @file
 * Property-based tests of Algorithm 1 (selective weight extraction):
 * decode correctness under controlled fine-tuning deltas, cost
 * monotonicity in the policy knobs, storage-format invariances, the
 * full-read fallback boundary, and graceful degradation under a noisy
 * (bit-flipping) rowhammer channel.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "extraction/bitprobe.hh"
#include "extraction/ieee.hh"
#include "extraction/selective.hh"
#include "fault/fault.hh"
#include "util/rng.hh"
#include "zoo/finetune_sim.hh"
#include "zoo/weight_store.hh"

namespace de = decepticon::extraction;
namespace dfa = decepticon::fault;
namespace dz = decepticon::zoo;
namespace du = decepticon::util;

namespace {

/** Single-weight store + a channel over it. */
struct OneWeight
{
    dz::WeightStore store;
    std::unique_ptr<de::BitProbeChannel> channel;

    explicit OneWeight(float actual)
    {
        store.layers.push_back({"l0", {actual}});
        channel = std::make_unique<de::BitProbeChannel>(store);
    }
};

} // namespace

/**
 * Decode correctness: for any base weight and any delta smaller than
 * half the decode modulus, the extracted value lands within the
 * window resolution of the truth.
 */
class DecodeCorrectness : public ::testing::TestWithParam<int>
{
};

TEST_P(DecodeCorrectness, RecoversWithinResolution)
{
    du::Rng rng(static_cast<std::uint64_t>(GetParam()));
    de::ExtractionPolicy policy;
    policy.baseDist = 0.004;
    policy.uShapeAlpha = 0.0;
    policy.significance = 1e-5;
    policy.maxBitsPerWeight = 6;
    de::SelectiveWeightExtractor ex(policy);

    for (int trial = 0; trial < 200; ++trial) {
        // Bases well away from zero so no fallback triggers.
        const float base = static_cast<float>(
            (rng.bernoulli(0.5) ? 1.0 : -1.0) * rng.uniform(0.05, 0.9));
        // Deltas within the decode contract: the residue modulus is at
        // least the estimated distance, so |delta| < est/2 always
        // decodes unambiguously.
        const float delta =
            static_cast<float>(rng.gaussian(0.0, policy.baseDist / 8.0));
        if (std::fabs(delta) >= 0.45 * policy.baseDist)
            continue;
        const float actual = base + delta;
        if (de::unbiasedExponent(actual) != de::unbiasedExponent(base))
            continue; // binade crossing is out of contract

        OneWeight w(actual);
        de::ExtractionStats stats;
        const float clone =
            ex.extractWeight(base, *w.channel, 0, 0, stats);
        ASSERT_EQ(stats.weightsChecked, 1u);
        // Window spans ~baseDist down to baseDist / 2^5; unread bits
        // below it bound the residual.
        EXPECT_LT(std::fabs(clone - actual), policy.baseDist / 8.0)
            << "base=" << base << " actual=" << actual;
        // Extraction must never be worse than keeping the baseline.
        EXPECT_LE(std::fabs(clone - actual),
                  std::fabs(base - actual) + policy.baseDist / 16.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeCorrectness, ::testing::Range(1, 9));

/** Cost monotonicity: more bits per weight never reads fewer bits. */
TEST(SelectiveProperty, BitCostMonotoneInMaxBits)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 1;
    arch.hidden = 256;
    const auto pre = dz::WeightStore::makePretrained(arch, 3, 4000);
    dz::FineTuneOptions fopts;
    const auto victim = dz::FineTuneSimulator::fineTune(pre, fopts, 4);

    std::size_t prev = 0;
    for (int bits = 1; bits <= 8; ++bits) {
        de::BitProbeChannel channel(victim);
        de::ExtractionPolicy policy;
        policy.maxBitsPerWeight = bits;
        de::SelectiveWeightExtractor ex(policy);
        de::ExtractionStats stats;
        ex.extractLayer(pre.layers[0].w, channel, 0, stats);
        EXPECT_GE(channel.stats().bitsRead, prev);
        prev = channel.stats().bitsRead;
    }
}

/** Tighter significance thresholds check at least as many weights. */
TEST(SelectiveProperty, CheckedCountMonotoneInSignificance)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 1;
    arch.hidden = 256;
    const auto pre = dz::WeightStore::makePretrained(arch, 5, 4000);
    dz::FineTuneOptions fopts;
    const auto victim = dz::FineTuneSimulator::fineTune(pre, fopts, 6);

    std::size_t prev_checked = arch.hidden * 100000;
    for (double sig : {0.0005, 0.001, 0.002, 0.004, 0.008}) {
        de::BitProbeChannel channel(victim);
        de::ExtractionPolicy policy;
        policy.significance = sig;
        de::SelectiveWeightExtractor ex(policy);
        de::ExtractionStats stats;
        ex.extractLayer(pre.layers[0].w, channel, 0, stats);
        EXPECT_LE(stats.weightsChecked, prev_checked);
        prev_checked = stats.weightsChecked;
    }
}

/** Fallback boundary: estimates comparable to the weight trigger a
 *  full read, which is then exact. */
TEST(SelectiveProperty, FallbackFullReadIsExact)
{
    de::ExtractionPolicy policy;
    policy.baseDist = 0.01;
    policy.uShapeAlpha = 0.0;
    policy.significance = 1e-5;
    de::SelectiveWeightExtractor ex(policy);

    // |base| = 0.012 < 2 * est -> fallback; victim crossed a binade.
    const float base = 0.012f;
    const float actual = -0.0049f; // sign flip, different exponent
    OneWeight w(actual);
    de::ExtractionStats stats;
    const float clone = ex.extractWeight(base, *w.channel, 0, 0, stats);
    EXPECT_EQ(clone, actual);
    EXPECT_EQ(stats.fullWeightsRead, 1u);
    EXPECT_EQ(w.channel->stats().bitsRead, 32u);
}

TEST(SelectiveProperty, NoFallbackForLargeWeights)
{
    de::ExtractionPolicy policy;
    policy.baseDist = 0.01;
    policy.uShapeAlpha = 0.0;
    policy.significance = 1e-5;
    policy.maxBitsPerWeight = 2;
    de::SelectiveWeightExtractor ex(policy);

    OneWeight w(0.505f);
    de::ExtractionStats stats;
    ex.extractWeight(0.5f, *w.channel, 0, 0, stats);
    EXPECT_EQ(stats.fullWeightsRead, 0u);
    EXPECT_LE(w.channel->stats().bitsRead, 2u);
}

/** Storage formats: bfloat16 checks the same leading fraction bits as
 *  float32 (same exponent width — the paper's Sec. 8 point). */
TEST(SelectiveProperty, Bfloat16ChecksSameWindowAsFloat32)
{
    const float base = 0.018f;
    const float actual = 0.01908f;

    auto run = [&](const de::FloatFormat &fmt, float victim_value) {
        OneWeight w(victim_value);
        de::ExtractionPolicy policy;
        policy.baseDist = 0.002;
        policy.uShapeAlpha = 0.0;
        policy.significance = 0.0002;
        policy.storageFormat = fmt;
        de::SelectiveWeightExtractor ex(policy);
        de::ExtractionStats stats;
        const float clone =
            ex.extractWeight(base, *w.channel, 0, 0, stats);
        return std::make_pair(clone, stats.bitsChecked);
    };

    const auto [clone32, bits32] = run(de::kFloat32, actual);
    const auto [clone16, bits16] = run(
        de::kBfloat16, de::quantizeTo(actual, de::kBfloat16));
    EXPECT_EQ(bits32, bits16); // same window positions
    EXPECT_NEAR(clone32, clone16, 0.0002);
}

/** float16 victims: the window clamp prevents probing absent bits. */
TEST(SelectiveProperty, Float16WindowClamped)
{
    OneWeight w(de::quantizeTo(0.505f, de::kFloat16));
    de::ExtractionPolicy policy;
    policy.baseDist = 1e-6; // would target fraction bits beyond 10
    policy.uShapeAlpha = 0.0;
    policy.significance = 1e-9;
    policy.maxBitsPerWeight = 8;
    policy.storageFormat = de::kFloat16;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    ex.extractWeight(0.5f, *w.channel, 0, 0, stats);
    // No bit beyond fraction position 10 may be probed; with the
    // window entirely below the clamp nothing is read at all.
    EXPECT_EQ(stats.bitsChecked, 0u);
}

/** Quantized store round trip: quantizeStore touches every weight. */
TEST(SelectiveProperty, QuantizeStoreAppliesFormat)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 64;
    auto store = dz::WeightStore::makePretrained(arch, 7, 200);
    store.head.w = {0.12345678f, -0.987654f};
    const auto q = de::quantizeStore(store, de::kBfloat16);
    for (std::size_t l = 0; l < q.layers.size(); ++l) {
        for (std::size_t i = 0; i < q.layers[l].w.size(); ++i) {
            EXPECT_EQ(q.layers[l].w[i],
                      de::quantizeTo(store.layers[l].w[i],
                                     de::kBfloat16));
        }
    }
    EXPECT_EQ(q.head.w.size(), 2u);
    EXPECT_EQ(q.head.w[0],
              de::quantizeTo(store.head.w[0], de::kBfloat16));
}

/** Bit-error injection: extraction error rises smoothly with the
 *  injected transient flip rate, not catastrophically. */
class NoisyChannelSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(NoisyChannelSweep, ErrorRateDegradesGracefully)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 1;
    arch.hidden = 256;
    const auto pre = dz::WeightStore::makePretrained(
        arch, 10 + GetParam(), 4000);
    dz::FineTuneOptions fopts;
    const auto victim = dz::FineTuneSimulator::fineTune(
        pre, fopts, 20 + GetParam());

    auto correct_at = [&](double ber) {
        de::BitProbeChannel channel(victim);
        dfa::FaultSpec spec;
        spec.probeFlipRate = ber;
        spec.seed = static_cast<std::uint64_t>(GetParam());
        dfa::FaultInjector injector(spec);
        channel.attachFaultInjector(&injector);
        de::ExtractionPolicy policy;
        de::SelectiveWeightExtractor ex(policy);
        de::ExtractionStats stats;
        const auto clone =
            ex.extractLayer(pre.layers[0].w, channel, 0, stats);
        ex.auditAccuracy(clone, victim.layers[0].w, pre.layers[0].w,
                         stats);
        return stats.correctFraction();
    };

    const double clean = correct_at(0.0);
    const double mild = correct_at(0.02);
    const double heavy = correct_at(0.2);
    EXPECT_GT(clean, 0.85);
    EXPECT_GE(clean + 1e-9, mild - 0.05);
    // Even a very unreliable channel only corrupts checked weights;
    // the skipped majority is untouched.
    EXPECT_GT(heavy, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoisyChannelSweep, ::testing::Range(1, 5));

/** Hammer-rounds accounting scales linearly with roundsPerBit. */
TEST(SelectiveProperty, HammerRoundsScale)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 1;
    arch.hidden = 64;
    const auto pre = dz::WeightStore::makePretrained(arch, 30, 500);
    dz::FineTuneOptions fopts;
    const auto victim = dz::FineTuneSimulator::fineTune(pre, fopts, 31);

    de::ExtractionPolicy policy;
    de::SelectiveWeightExtractor ex(policy);

    de::BitProbeChannel c1(victim, 1);
    de::BitProbeChannel c5(victim, 5);
    de::ExtractionStats s1, s5;
    ex.extractLayer(pre.layers[0].w, c1, 0, s1);
    ex.extractLayer(pre.layers[0].w, c5, 0, s5);
    EXPECT_EQ(c1.stats().bitsRead, c5.stats().bitsRead);
    EXPECT_EQ(c5.stats().hammerRounds, 5 * c1.stats().hammerRounds);
}
