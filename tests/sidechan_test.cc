/**
 * @file
 * Unit tests for the multi-modal side-channel layer: the gpusim
 * emitters (power / thermal / profiler counters), the per-channel
 * fault models, the feature extractors, the channel classifiers, and
 * the confidence-weighted fusion engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "fault/channel.hh"
#include "gpusim/emission.hh"
#include "gpusim/trace_generator.hh"
#include "sidechan/classifier.hh"
#include "sidechan/features.hh"
#include "sidechan/fusion.hh"
#include "util/rng.hh"

namespace dg = decepticon::gpusim;
namespace dfl = decepticon::fault;
namespace dsc = decepticon::sidechan;

namespace {

dg::ArchParams
smallArch(std::size_t layers = 4)
{
    dg::ArchParams arch;
    arch.numLayers = layers;
    arch.hidden = 256;
    arch.numHeads = 4;
    arch.seqLen = 64;
    return arch;
}

dg::KernelTrace
sampleTrace(std::uint64_t seed = 1, std::size_t layers = 4)
{
    dg::SoftwareSignature sig;
    const dg::TraceGenerator gen(sig);
    return gen.generate(smallArch(layers), seed);
}

} // namespace

// ---------------------------------------------------------------
// Emitters
// ---------------------------------------------------------------

TEST(Emission, PowerTraceDeterministicAndBounded)
{
    const auto trace = sampleTrace(7);
    const auto a = dg::emitPowerTrace(trace, 42);
    const auto b = dg::emitPowerTrace(trace, 42);
    ASSERT_FALSE(a.empty());
    ASSERT_LE(a.size(), dg::kEmissionMaxSamples);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i], b[i]);
        EXPECT_GE(a[i], 0.0);
    }
    // A different run seed only perturbs the sensor noise.
    const auto c = dg::emitPowerTrace(trace, 43);
    ASSERT_EQ(c.size(), a.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        differing += a[i] != c[i];
    EXPECT_GT(differing, a.size() / 2);
}

TEST(Emission, PowerRisesAboveIdleDuringCompute)
{
    const auto trace = sampleTrace(8);
    const auto series = dg::emitPowerTrace(trace, 1);
    double mean = 0.0;
    for (double v : series)
        mean += v;
    mean /= static_cast<double>(series.size());
    EXPECT_GT(mean, dg::kIdlePowerWatts);
}

TEST(Emission, ThermalStartsAtAmbientAndRises)
{
    const auto trace = sampleTrace(9, 6);
    const auto series = dg::emitThermalTrace(trace, 5);
    ASSERT_GT(series.size(), 4u);
    EXPECT_NEAR(series.front(), dg::kThermalAmbientC, 2.0);
    double peak = series.front();
    for (double v : series)
        peak = std::max(peak, v);
    EXPECT_GT(peak, dg::kThermalAmbientC + 1.0);
    // Determinism.
    const auto replay = dg::emitThermalTrace(trace, 5);
    ASSERT_EQ(replay.size(), series.size());
    for (std::size_t i = 0; i < series.size(); ++i)
        EXPECT_DOUBLE_EQ(series[i], replay[i]);
}

TEST(Emission, ProfilerCountsAreExactAndDeterministic)
{
    const auto trace = sampleTrace(10);
    const auto ctr = dg::emitProfilerCounters(trace, 11);
    ASSERT_EQ(ctr.size(), dg::kProfilerCounterCount);
    // Launch counts are exact (no jitter): per-class counts sum to
    // the record total, which is itself exact.
    double class_sum = 0.0;
    for (std::size_t k = 0; k < dg::kProfilerClassCount; ++k)
        class_sum += ctr[dg::kCtrClassCountBase + k];
    EXPECT_DOUBLE_EQ(class_sum, ctr[dg::kCtrTotalRecords]);
    EXPECT_DOUBLE_EQ(ctr[dg::kCtrTotalRecords],
                     static_cast<double>(trace.records.size()));
    EXPECT_DOUBLE_EQ(ctr[dg::kCtrUniqueKernels],
                     static_cast<double>(trace.uniqueKernelCount()));
    const auto replay = dg::emitProfilerCounters(trace, 11);
    for (std::size_t i = 0; i < ctr.size(); ++i)
        EXPECT_DOUBLE_EQ(ctr[i], replay[i]);
}

// ---------------------------------------------------------------
// Channel fault models
// ---------------------------------------------------------------

namespace {

std::vector<double>
rampSeries(std::size_t n)
{
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i)
        s[i] = 50.0 + static_cast<double>(i % 37);
    return s;
}

} // namespace

TEST(ChannelFault, JammedChannelDeliversNothing)
{
    dfl::ChannelFaultSpec spec;
    spec.jammed = true;
    dfl::ChannelFaultModel model(dfl::Channel::Power, spec, 3);
    const auto out = model.corruptSeries(rampSeries(64), 0);
    EXPECT_TRUE(out.empty());
}

TEST(ChannelFault, DropoutShrinksSeriesDeterministically)
{
    dfl::ChannelFaultSpec spec;
    spec.dropoutRate = 0.5;
    dfl::ChannelFaultModel model(dfl::Channel::Power, spec, 4);
    const auto in = rampSeries(400);
    const auto a = model.corruptSeries(in, 9);
    EXPECT_LT(a.size(), in.size());
    EXPECT_GT(a.size(), in.size() / 8);
    // Same capture seed replays identically (fresh model: the stream
    // is derived, not consumed).
    dfl::ChannelFaultModel replay(dfl::Channel::Power, spec, 4);
    EXPECT_EQ(replay.corruptSeries(in, 9), a);
    // A different capture seed draws a different pattern.
    dfl::ChannelFaultModel other(dfl::Channel::Power, spec, 4);
    EXPECT_NE(other.corruptSeries(in, 10), a);
}

TEST(ChannelFault, ProfilerDropoutZeroesSlotsKeepsLength)
{
    dfl::ChannelFaultSpec spec;
    spec.dropoutRate = 0.5;
    dfl::ChannelFaultModel model(dfl::Channel::Profiler, spec, 5);
    const auto in = rampSeries(32);
    const auto out = model.corruptSeries(in, 1);
    ASSERT_EQ(out.size(), in.size());
    std::size_t zeroed = 0, kept = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] == 0.0)
            ++zeroed;
        else if (out[i] == in[i])
            ++kept;
    }
    EXPECT_EQ(zeroed + kept, out.size());
    EXPECT_GT(zeroed, 0u);
    EXPECT_GT(kept, 0u);
}

TEST(ChannelFault, TruncationRespectsMaxFraction)
{
    dfl::ChannelFaultSpec spec;
    spec.truncateProbability = 1.0;
    dfl::ChannelFaultModel model(dfl::Channel::Thermal, spec, 6);
    const auto in = rampSeries(200);
    for (std::uint64_t cap = 0; cap < 16; ++cap) {
        const auto out = model.corruptSeries(in, cap);
        EXPECT_GE(out.size(), 140u); // >= (1 - 0.3) * 200
        EXPECT_LE(out.size(), in.size());
        // Truncation is a pure prefix.
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_DOUBLE_EQ(out[i], in[i]);
    }
}

TEST(ChannelFault, QuantizationSnapsToGrid)
{
    dfl::ChannelFaultSpec spec;
    spec.quantStep = 0.1;
    dfl::ChannelFaultModel model(dfl::Channel::Power, spec, 7);
    const auto in = rampSeries(64);
    double scale = 0.0;
    for (double v : in)
        scale += std::abs(v);
    scale /= static_cast<double>(in.size());
    const double step = spec.quantStep * scale;
    const auto out = model.corruptSeries(in, 0);
    ASSERT_EQ(out.size(), in.size());
    for (double v : out) {
        const double q = v / step;
        EXPECT_NEAR(q, std::round(q), 1e-6);
    }
}

TEST(ChannelFault, ChannelsAreIndependentStreams)
{
    // Corrupting one channel never perturbs another channel's fault
    // stream: thermal output is identical whether or not power was
    // corrupted first.
    dfl::MultiChannelFaultSpec spec;
    spec.seed = 77;
    for (std::size_t c = 0; c < dfl::kNumChannels; ++c) {
        spec.channels[c].dropoutRate = 0.3;
        spec.channels[c].noiseSigma = 0.05;
    }
    const auto in = rampSeries(256);

    dfl::MultiChannelFaultModel a(spec);
    (void)a.corrupt(dfl::Channel::Power, in, 0);
    (void)a.corrupt(dfl::Channel::Power, in, 1);
    const auto thermal_after = a.corrupt(dfl::Channel::Thermal, in, 0);

    dfl::MultiChannelFaultModel b(spec);
    const auto thermal_fresh = b.corrupt(dfl::Channel::Thermal, in, 0);
    EXPECT_EQ(thermal_after, thermal_fresh);
}

// ---------------------------------------------------------------
// Features
// ---------------------------------------------------------------

TEST(ChannelFeatures, DimsMatchAndEmptyMapsToZero)
{
    EXPECT_EQ(dsc::featureDim(dfl::Channel::Power),
              dsc::kPowerFeatureDim);
    EXPECT_EQ(dsc::featureDim(dfl::Channel::Thermal),
              dsc::kThermalFeatureDim);
    EXPECT_EQ(dsc::featureDim(dfl::Channel::Profiler),
              dsc::kProfilerFeatureDim);
    EXPECT_EQ(dsc::featureDim(dfl::Channel::Timestamp), 0u);

    for (auto channel : {dfl::Channel::Power, dfl::Channel::Thermal,
                         dfl::Channel::Profiler}) {
        const auto zero = dsc::channelFeatures(channel, {});
        ASSERT_EQ(zero.size(), dsc::featureDim(channel));
        for (float v : zero)
            EXPECT_EQ(v, 0.0f);
    }
}

TEST(ChannelFeatures, PureFunctionOfSeries)
{
    const auto trace = sampleTrace(12);
    const auto series = dg::emitPowerTrace(trace, 3);
    const auto a = dsc::powerFeatures(series);
    const auto b = dsc::powerFeatures(series);
    ASSERT_EQ(a.size(), dsc::kPowerFeatureDim);
    EXPECT_EQ(a, b);
    for (float v : a)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(ChannelFeatures, DistinctArchitecturesSeparate)
{
    // Power features of a 2-layer and an 8-layer model must differ —
    // otherwise the channel carries no architectural signal.
    const auto small_f = dsc::powerFeatures(
        dg::emitPowerTrace(sampleTrace(1, 2), 1));
    const auto large_f = dsc::powerFeatures(
        dg::emitPowerTrace(sampleTrace(1, 8), 1));
    EXPECT_NE(small_f, large_f);
}

// ---------------------------------------------------------------
// Channel classifier
// ---------------------------------------------------------------

TEST(ChannelClassifier, LearnsSeparableClusters)
{
    constexpr std::size_t kDim = 6;
    constexpr std::size_t kClasses = 3;
    decepticon::util::Rng rng(21);
    std::vector<std::vector<float>> features;
    std::vector<int> labels;
    for (int c = 0; c < static_cast<int>(kClasses); ++c) {
        for (int i = 0; i < 24; ++i) {
            std::vector<float> f(kDim);
            for (std::size_t d = 0; d < kDim; ++d) {
                const float center =
                    d == static_cast<std::size_t>(c) ? 4.0f : 0.0f;
                f[d] = center +
                       static_cast<float>(rng.gaussian()) * 0.4f;
            }
            features.push_back(std::move(f));
            labels.push_back(c);
        }
    }
    dsc::ChannelClassifier clf(dfl::Channel::Power, kDim, kClasses, 5);
    clf.train(features, labels);
    EXPECT_GT(clf.evaluate(features, labels), 0.9);
    const auto probs = clf.classProbabilities(features.front());
    ASSERT_EQ(probs.size(), kClasses);
    double sum = 0.0;
    for (double p : probs)
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-5);
}

// ---------------------------------------------------------------
// Fusion engine
// ---------------------------------------------------------------

namespace {

dsc::ChannelEvidence
evidenceFor(dfl::Channel channel, std::vector<double> probs,
            double quality = 1.0)
{
    dsc::ChannelEvidence ev;
    ev.channel = channel;
    ev.available = true;
    ev.probs = std::move(probs);
    ev.quality = quality;
    return ev;
}

} // namespace

TEST(Fusion, EmptyEvidenceIsInsufficient)
{
    dsc::FusionEngine engine(3);
    engine.setReliabilityPrior(dfl::Channel::Power, 0.9);
    const auto decision = engine.fuse({});
    EXPECT_EQ(decision.verdict,
              dsc::FusionVerdict::InsufficientEvidence);
    EXPECT_EQ(decision.label, -1);
    EXPECT_DOUBLE_EQ(decision.confidence, 0.0);
}

TEST(Fusion, UnregisteredChannelCarriesNoWeight)
{
    dsc::FusionEngine engine(3);
    engine.setReliabilityPrior(dfl::Channel::Power, 0.9);
    // Thermal was never trained: its evidence must be ignored.
    const auto decision = engine.fuse(
        {evidenceFor(dfl::Channel::Thermal, {0.0, 0.0, 1.0})});
    EXPECT_EQ(decision.verdict,
              dsc::FusionVerdict::InsufficientEvidence);
}

TEST(Fusion, SingleChannelIdentifiesWithReducedConfidence)
{
    dsc::FusionEngine engine(3);
    engine.setReliabilityPrior(dfl::Channel::Power, 0.9);
    engine.setReliabilityPrior(dfl::Channel::Thermal, 0.9);
    const std::vector<double> probs{0.1, 0.8, 0.1};
    const auto one =
        engine.fuse({evidenceFor(dfl::Channel::Power, probs)});
    ASSERT_EQ(one.verdict, dsc::FusionVerdict::Identified);
    EXPECT_EQ(one.label, 1);
    EXPECT_LT(one.coverage, 1.0);

    const auto both =
        engine.fuse({evidenceFor(dfl::Channel::Power, probs),
                     evidenceFor(dfl::Channel::Thermal, probs)});
    ASSERT_EQ(both.verdict, dsc::FusionVerdict::Identified);
    EXPECT_EQ(both.label, 1);
    EXPECT_NEAR(both.coverage, 1.0, 1e-9);
    // Same posteriors, more of the expected evidence present: the
    // calibrated confidence must not go down.
    EXPECT_GT(both.confidence, one.confidence);
}

TEST(Fusion, HigherPriorChannelWinsConflicts)
{
    dsc::FusionEngine engine(2);
    engine.setReliabilityPrior(dfl::Channel::Power, 0.95);
    engine.setReliabilityPrior(dfl::Channel::Thermal, 0.55);
    const auto decision = engine.fuse(
        {evidenceFor(dfl::Channel::Power, {0.8, 0.2}),
         evidenceFor(dfl::Channel::Thermal, {0.25, 0.75})});
    ASSERT_EQ(decision.verdict, dsc::FusionVerdict::Identified);
    EXPECT_EQ(decision.label, 0);
}

TEST(Fusion, QualityZeroEvidenceIsIgnored)
{
    dsc::FusionEngine engine(2);
    engine.setReliabilityPrior(dfl::Channel::Power, 0.9);
    engine.setReliabilityPrior(dfl::Channel::Thermal, 0.9);
    const auto decision = engine.fuse(
        {evidenceFor(dfl::Channel::Power, {0.9, 0.1}),
         evidenceFor(dfl::Channel::Thermal, {0.1, 0.9}, 0.0)});
    ASSERT_EQ(decision.verdict, dsc::FusionVerdict::Identified);
    EXPECT_EQ(decision.label, 0);
    EXPECT_EQ(decision.channelsAvailable, 1u);
}
