/**
 * @file
 * Tests for the extraction library: IEEE-754 bit utilities, the
 * rowhammer bit-probe channel, Algorithm 1 selective extraction
 * (including the paper's Fig. 13 worked example), and the end-to-end
 * model cloner.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "extraction/bitprobe.hh"
#include "extraction/cloner.hh"
#include "extraction/ieee.hh"
#include "extraction/selective.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "transformer/trainer.hh"
#include "util/rng.hh"
#include "zoo/finetune_sim.hh"

namespace de = decepticon::extraction;
namespace dfa = decepticon::fault;
namespace dz = decepticon::zoo;
namespace dtr = decepticon::transformer;
namespace dob = decepticon::obs;

TEST(Ieee, BitsRoundTrip)
{
    for (float v : {0.0f, 1.0f, -1.0f, 0.018f, 3.14159f, -1e-8f})
        EXPECT_EQ(de::bitsFromFloat(de::floatToBits(v)), v);
}

TEST(Ieee, SignBit)
{
    EXPECT_FALSE(de::signBit(1.0f));
    EXPECT_TRUE(de::signBit(-1.0f));
    EXPECT_TRUE(de::signBit(-0.0f));
}

TEST(Ieee, ExponentFields)
{
    EXPECT_EQ(de::exponentField(1.0f), 127);
    EXPECT_EQ(de::unbiasedExponent(1.0f), 0);
    EXPECT_EQ(de::unbiasedExponent(2.0f), 1);
    EXPECT_EQ(de::unbiasedExponent(0.5f), -1);
    // 0.018 is in [2^-6, 2^-5): unbiased exponent -6.
    EXPECT_EQ(de::unbiasedExponent(0.018f), -6);
}

TEST(Ieee, FractionBitRead)
{
    const float v = 1.5f; // fraction = 0b100...0, bit 1 set
    EXPECT_TRUE(de::fractionBit(v, 1));
    EXPECT_FALSE(de::fractionBit(v, 2));
    EXPECT_TRUE(de::fractionBit(1.75f, 2));
}

TEST(Ieee, PlaceValues)
{
    EXPECT_DOUBLE_EQ(de::leadingPlaceValue(1.0f), 1.0);
    EXPECT_DOUBLE_EQ(de::fractionBitPlaceValue(1.0f, 1), 0.5);
    EXPECT_DOUBLE_EQ(de::fractionBitPlaceValue(1.0f, 3), 0.125);
    // The paper's Fig. 13 example: for w = 0.018 (exp -6), fraction
    // position 4 has place value 2^-10 ~ 0.00098 and position 5 has
    // 2^-11 ~ 0.00049 — exactly the bits Algorithm 1 checks for a
    // ~0.002 gap.
    EXPECT_NEAR(de::fractionBitPlaceValue(0.018f, 4), 0.0009765625,
                1e-12);
    EXPECT_NEAR(de::fractionBitPlaceValue(0.018f, 5), 0.00048828125,
                1e-12);
}

TEST(Ieee, FractionPosToWordBit)
{
    EXPECT_EQ(de::fractionPosToWordBit(1), 22);
    EXPECT_EQ(de::fractionPosToWordBit(23), 0);
}

TEST(Ieee, QuantizeBfloat16KeepsExponent)
{
    const float v = 0.018f;
    const float q = de::quantizeTo(v, de::kBfloat16);
    EXPECT_EQ(de::unbiasedExponent(q), de::unbiasedExponent(v));
    EXPECT_NEAR(q, v, std::ldexp(1.0, de::unbiasedExponent(v) - 7));
}

TEST(Ieee, QuantizeFloat16Precision)
{
    const float v = 1.2345f;
    const float q = de::quantizeTo(v, de::kFloat16);
    EXPECT_NEAR(q, v, 1e-3f);
    // Values beyond float16's exponent range flush.
    EXPECT_TRUE(std::isinf(de::quantizeTo(1e30f, de::kFloat16)));
    EXPECT_EQ(de::quantizeTo(1e-30f, de::kFloat16), 0.0f);
}

TEST(Ieee, QuantizeIsIdempotent)
{
    decepticon::util::Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const float v = static_cast<float>(rng.gaussian(0.0, 0.2));
        const float q = de::quantizeTo(v, de::kBfloat16);
        EXPECT_EQ(de::quantizeTo(q, de::kBfloat16), q);
    }
}

namespace {

/** Small pre-trained + fine-tuned weight store fixture. */
struct StoreFixture
{
    decepticon::gpusim::ArchParams arch;
    dz::WeightStore pre;
    dz::WeightStore victim;

    StoreFixture()
    {
        arch.numLayers = 3;
        arch.hidden = 128;
        pre = dz::WeightStore::makePretrained(arch, 21, 3000);
        dz::FineTuneOptions opts;
        opts.headWeights = 40;
        victim = dz::FineTuneSimulator::fineTune(pre, opts, 22);
    }
};

} // anonymous namespace

TEST(BitProbe, CountsReads)
{
    StoreFixture fx;
    de::BitProbeChannel chan(fx.victim, 3);
    chan.readBit(0, 0, 31);
    chan.readBit(0, 1, 22);
    EXPECT_EQ(chan.stats().bitsRead, 2u);
    EXPECT_EQ(chan.stats().hammerRounds, 6u);
}

TEST(BitProbe, FullWeightReadIsExact)
{
    StoreFixture fx;
    de::BitProbeChannel chan(fx.victim);
    const float v = chan.readFullWeight(1, 5);
    EXPECT_EQ(v, fx.victim.layers[1].w[5]);
    EXPECT_EQ(chan.stats().bitsRead, 32u);
}

TEST(BitProbe, SignBitMatches)
{
    StoreFixture fx;
    de::BitProbeChannel chan(fx.victim);
    for (std::size_t i = 0; i < 50; ++i) {
        const bool sign = chan.readBit(0, i, 31);
        EXPECT_EQ(sign, std::signbit(fx.victim.layers[0].w[i]));
    }
}

TEST(BitProbe, ErrorRateFlipsSomeBits)
{
    StoreFixture fx;
    de::BitProbeChannel noisy(fx.victim);
    dfa::FaultSpec spec;
    spec.probeFlipRate = 0.5;
    spec.seed = 7;
    dfa::FaultInjector injector(spec);
    noisy.attachFaultInjector(&injector);
    std::size_t flips = 0;
    for (std::size_t i = 0; i < 200; ++i) {
        const bool truth = std::signbit(fx.victim.layers[0].w[i]);
        if (noisy.readBit(0, i, 31) != truth)
            ++flips;
    }
    EXPECT_GT(flips, 50u);
    EXPECT_LT(flips, 150u);
}

TEST(BitProbe, HeadLayerAddressable)
{
    StoreFixture fx;
    EXPECT_EQ(fx.victim.layers.size(), 3u);
    EXPECT_EQ(fx.victim.slotSize(3), 40u);
    de::BitProbeChannel chan(fx.victim);
    EXPECT_EQ(chan.readFullWeight(3, 0), fx.victim.head.w[0]);
}

TEST(Policy, EstimatedDistUShaped)
{
    de::ExtractionPolicy p;
    EXPECT_NEAR(p.estimatedDist(0.0), p.baseDist, 1e-12);
    EXPECT_GT(p.estimatedDist(0.25), 3.0 * p.baseDist);
    EXPECT_GT(p.estimatedDist(0.5), p.estimatedDist(0.25));
}

TEST(Selective, Fig13WorkedExample)
{
    // Paper Fig. 13: pre-trained weight 0.018, fine-tuned to 0.01908.
    // Splicing the two fraction bits at place values 2^-10 and 2^-11
    // must bring the clone within ~0.0005 of the true value.
    const float base = 0.018f;
    const float actual = 0.01908f;

    dz::WeightStore store;
    store.layers.push_back({"l0", {actual}});
    de::BitProbeChannel chan(store);

    de::ExtractionPolicy policy;
    policy.baseDist = 0.002;
    policy.uShapeAlpha = 0.0; // flat estimate, like the example
    policy.significance = 0.0002;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    const float clone = ex.extractWeight(base, chan, 0, 0, stats);

    EXPECT_EQ(stats.bitsChecked, 2u);
    EXPECT_NEAR(clone, actual, 0.001);
    EXPECT_LT(std::fabs(clone - actual), std::fabs(base - actual));
}

TEST(Selective, TinyWeightsSkipped)
{
    dz::WeightStore store;
    store.layers.push_back({"l0", {0.0005f}});
    de::BitProbeChannel chan(store);
    de::ExtractionPolicy policy;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    const float clone = ex.extractWeight(0.0004f, chan, 0, 0, stats);
    EXPECT_EQ(clone, 0.0004f);
    EXPECT_EQ(stats.weightsSkipped, 1u);
    EXPECT_EQ(chan.stats().bitsRead, 0u);
}

TEST(Selective, InsignificantUpdateSkipped)
{
    // A mid-size weight whose estimated update is below significance
    // is also skipped (the attacker's step-1 pruning).
    dz::WeightStore store;
    store.layers.push_back({"l0", {0.05f}});
    de::BitProbeChannel chan(store);
    de::ExtractionPolicy policy;
    policy.baseDist = 0.0005;
    policy.significance = 0.002;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    ex.extractWeight(0.05f, chan, 0, 0, stats);
    EXPECT_EQ(stats.weightsSkipped, 1u);
}

TEST(Selective, ChecksAtMostMaxBits)
{
    dz::WeightStore store;
    store.layers.push_back({"l0", {0.52f}});
    de::BitProbeChannel chan(store);
    de::ExtractionPolicy policy;
    policy.maxBitsPerWeight = 2;
    policy.significance = 1e-6;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    ex.extractWeight(0.5f, chan, 0, 0, stats);
    EXPECT_LE(stats.bitsChecked, 2u);
    EXPECT_LE(chan.stats().bitsRead, 2u);
}

TEST(Selective, LayerExtractionEfficiency)
{
    StoreFixture fx;
    de::BitProbeChannel chan(fx.victim);
    de::ExtractionPolicy policy;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;

    const auto clone0 =
        ex.extractLayer(fx.pre.layers[0].w, chan, 0, stats);
    ASSERT_EQ(clone0.size(), fx.pre.layers[0].w.size());
    // Most weights should be excluded from checking (paper Fig. 16).
    EXPECT_GT(stats.weightsSkippedFraction(), 0.6);
    EXPECT_GT(stats.bitsExcludedFraction(), 0.85);

    ex.auditAccuracy(clone0, fx.victim.layers[0].w, fx.pre.layers[0].w,
                     stats);
    EXPECT_GT(stats.correctFraction(), 0.8);
}

TEST(Selective, HeadExtractionIsExact)
{
    StoreFixture fx;
    de::BitProbeChannel chan(fx.victim);
    de::ExtractionPolicy policy;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    const auto head = ex.extractHead(chan, 3, 40, stats);
    ASSERT_EQ(head.size(), 40u);
    for (std::size_t i = 0; i < head.size(); ++i)
        EXPECT_EQ(head[i], fx.victim.head.w[i]);
    EXPECT_EQ(stats.fullWeightsRead, 40u);
}

TEST(Selective, AuditFlagsSignFlips)
{
    de::ExtractionPolicy policy;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    ex.auditAccuracy({0.02f}, {-0.02f}, {0.02f}, stats);
    EXPECT_EQ(stats.signFlips, 1u);
    EXPECT_EQ(stats.extractionErrors, 1u);
}

TEST(Selective, AuditPassesSmallResiduals)
{
    de::ExtractionPolicy policy;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    ex.auditAccuracy({0.02f, 0.1f}, {0.0205f, 0.1008f}, {0.02f, 0.1f},
                     stats);
    EXPECT_EQ(stats.extractionErrors, 0u);
    EXPECT_EQ(stats.auditedWeights, 2u);
}

TEST(Selective, StatsMerge)
{
    de::ExtractionStats a, b;
    a.totalWeights = 10;
    a.bitsChecked = 5;
    b.totalWeights = 20;
    b.extractionErrors = 2;
    b.auditedWeights = 20;
    a.merge(b);
    EXPECT_EQ(a.totalWeights, 30u);
    EXPECT_EQ(a.bitsChecked, 5u);
    EXPECT_EQ(a.extractionErrors, 2u);
}

TEST(Cloner, GroupRoundTrip)
{
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 8;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 16;
    dtr::TransformerClassifier model(cfg, 31);
    auto groups = de::victimParamGroups(model);
    ASSERT_EQ(groups.size(), 4u); // emb + 2 encoders + head
    auto w = de::groupWeights(groups[1]);
    for (auto &v : w)
        v += 1.0f;
    de::setGroupWeights(groups[1], w);
    EXPECT_EQ(de::groupWeights(groups[1]), w);
}

TEST(Cloner, SnapshotMatchesGroups)
{
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 8;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 16;
    dtr::TransformerClassifier model(cfg, 32);
    const auto groups = de::victimParamGroups(model);
    // Group 0 is the backbone minus its encoders, in backbone order.
    auto backbone = groups[0];
    for (std::size_t l = 1; l + 1 < groups.size(); ++l)
        backbone.insert(backbone.end(), groups[l].begin(), groups[l].end());
    EXPECT_EQ(backbone, model.backboneParams());

    const dz::WeightStore memory = de::snapshotGroups(groups);
    EXPECT_EQ(memory.layers.size(), 3u); // emb counts as a "layer" slot
    for (std::size_t g = 0; g + 1 < groups.size(); ++g)
        EXPECT_EQ(memory.layers[g].w, de::groupWeights(groups[g]));
    EXPECT_EQ(memory.head.w, de::groupWeights(groups.back()));
    const auto w1 = de::groupWeights(groups[1]);
    for (std::size_t i = 0; i < w1.size(); i += 37)
        EXPECT_EQ(memory.slotWeight(1, i), w1[i]);
}

TEST(Cloner, ClonesFineTunedVictim)
{
    // Real end-to-end level-2 extraction on a tiny trained victim.
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 16;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 32;
    cfg.numClasses = 4;

    // Pre-train a backbone.
    dtr::TransformerClassifier pretrained(cfg, 41);
    dtr::MarkovTask pretask(16, 4, 8, 400, 4.0);
    dtr::TrainOptions popts;
    popts.epochs = 4;
    popts.lr = 2e-3f;
    dtr::Trainer::train(pretrained, pretask.sample(120, 1), popts);

    // Victim: fine-tune from the pre-trained backbone with a small
    // backbone rate (the transfer-learning regime).
    dtr::TransformerClassifier victim(pretrained);
    victim.resetHead(2, 77);
    dtr::MarkovTask task(16, 2, 8, 500, 4.0);
    dtr::TrainOptions fopts;
    fopts.epochs = 3;
    fopts.lr = 2e-4f;
    fopts.headLrMultiplier = 30.0f;
    dtr::Trainer::fineTune(victim, task.sample(120, 2), fopts);

    // Extract.
    de::ClonerOptions copts;
    copts.policy.baseDist = 0.01;
    copts.policy.significance = 0.0005;
    copts.policy.maxBitsPerWeight = 4;
    copts.agreementTarget = 0.95;
    const auto query = task.sample(60, 3).examples;
    auto result = de::ModelCloner::extract(victim, pretrained, query,
                                           copts);
    ASSERT_NE(result.clone, nullptr);
    ASSERT_FALSE(result.agreementTrajectory.empty());
    const double final_agreement = result.agreementTrajectory.back();
    EXPECT_GT(final_agreement, 0.85);
    // Agreement should improve (or at least not regress) as layers
    // are extracted.
    EXPECT_GE(final_agreement,
              result.agreementTrajectory.front() - 0.05);
    // The probe cost must be far below full extraction (32 bits for
    // every weight in the model).
    const std::size_t full_cost =
        32 * decepticon::nn::totalParamCount(victim.params());
    EXPECT_LT(result.probeStats.bitsRead, full_cost / 2);
}

TEST(Cloner, ExtractStageCountsOneSamplePerLayer)
{
    // stage.extract is a per-layer stage (SelectiveWeightExtractor::
    // extractLayer); the whole clone is covered by the level2.clone
    // span, so the cloner must not open the stage itself.
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 8;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 16;
    cfg.numClasses = 2;
    const dtr::TransformerClassifier pre(cfg, 71);
    dtr::TransformerClassifier victim(pre);
    victim.resetHead(2, 5);
    const dtr::MarkovTask task(16, 2, 8, 711, 4.0);

    de::ClonerOptions copts;
    copts.agreementTarget = 1.1; // extract every layer and embeddings

    dob::ObsConfig on;
    on.metricsEnabled = true;
    dob::configure(on);
    const auto result = de::ModelCloner::extract(
        victim, pre, task.sample(12, 3).examples, copts);
    const auto extracts = dob::metrics().latency("stage.extract.micros");
    dob::shutdown();

    // The trajectory holds one point for the head plus one per
    // extractLayer call (encoders, then embeddings).
    ASSERT_EQ(result.agreementTrajectory.size(), cfg.numLayers + 2);
    ASSERT_TRUE(extracts.has_value());
    EXPECT_EQ(extracts->total(), result.agreementTrajectory.size() - 1);
}

/** Quantization formats preserve selective extraction's key bits. */
class FormatSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FormatSweep, QuantizedValueStaysClose)
{
    decepticon::util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    const de::FloatFormat fmt =
        GetParam() % 2 == 0 ? de::kBfloat16 : de::kFloat16;
    for (int i = 0; i < 100; ++i) {
        const float v = static_cast<float>(rng.gaussian(0.0, 0.3));
        const float q = de::quantizeTo(v, fmt);
        const double ulp =
            std::ldexp(1.0, de::unbiasedExponent(v) - fmt.fractionBits);
        EXPECT_NEAR(q, v, ulp);
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, FormatSweep, ::testing::Range(1, 7));

TEST(Cloner, DramConstrainedChannel)
{
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 16;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 32;
    cfg.numClasses = 2;
    dtr::TransformerClassifier pre(cfg, 61);
    dtr::MarkovTask pretask(16, 2, 8, 610, 4.0);
    dtr::TrainOptions popts;
    popts.epochs = 3;
    popts.lr = 2e-3f;
    dtr::Trainer::train(pre, pretask.sample(100, 1), popts);

    dtr::TransformerClassifier victim(pre);
    victim.resetHead(2, 3);
    dtr::MarkovTask task(16, 2, 8, 611, 4.0);
    dtr::TrainOptions fopts;
    fopts.epochs = 2;
    fopts.lr = 2e-4f;
    fopts.headLrMultiplier = 30.0f;
    dtr::Trainer::fineTune(victim, task.sample(80, 2), fopts);

    de::ClonerOptions copts;
    copts.policy.baseDist = 0.02;
    copts.policy.significance = 0.0001;
    copts.policy.maxBitsPerWeight = 6;
    copts.agreementTarget = 1.1; // extract everything
    de::DramGeometry geom;
    // Small rows so this tiny model spans many of them and the
    // hammerability mask actually bites.
    geom.rowBytes = 256;
    geom.hammerableRowFraction = 0.6;
    copts.dramGeometry = geom;
    copts.dramSeed = 5;

    auto result = de::ModelCloner::extract(
        victim, pre, task.sample(40, 3).examples, copts);
    ASSERT_NE(result.clone, nullptr);
    // DRAM cold/warm pricing shows in the hammer-round accounting.
    EXPECT_GE(result.probeStats.hammerRounds,
              de::kRoundsPerBitWarm * result.probeStats.bitsRead);
    EXPECT_GT(result.extractionStats.unreadableWeights, 0u);
    // The clone is still produced and evaluated; quality depends on
    // which rows (possibly including the baseline-less head) were
    // reachable, so only structural properties are asserted here —
    // clone fidelity under full reachability is covered by
    // Cloner.ClonesFineTunedVictim.
    ASSERT_FALSE(result.agreementTrajectory.empty());
    EXPECT_GE(result.agreementTrajectory.back(), 0.0);
}
