/**
 * @file
 * Tests for the model zoo: population structure, fingerprint/vocab
 * inheritance, weight stores, and the statistical fine-tuning
 * simulator's paper-calibrated update laws.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "util/stats.hh"
#include "zoo/finetune_sim.hh"
#include "zoo/vocab.hh"
#include "zoo/weight_store.hh"
#include "zoo/zoo.hh"

namespace dz = decepticon::zoo;
namespace du = decepticon::util;

TEST(Vocab, LanguageMismatchFailsProbe)
{
    dz::VocabularyProfile fr;
    fr.language = dz::Language::French;
    dz::QueryProbe en{"hello", dz::Language::English, false, 1};
    dz::QueryProbe frq{"bonjour", dz::Language::French, false, 1};
    EXPECT_FALSE(dz::respondsCorrectly(fr, en));
    EXPECT_TRUE(dz::respondsCorrectly(fr, frq));
}

TEST(Vocab, CasingRequirement)
{
    dz::VocabularyProfile uncased;
    dz::VocabularyProfile cased;
    cased.cased = true;
    dz::QueryProbe probe{"Apple", dz::Language::English, true, 1};
    EXPECT_FALSE(dz::respondsCorrectly(uncased, probe));
    EXPECT_TRUE(dz::respondsCorrectly(cased, probe));
}

TEST(Vocab, RichnessGate)
{
    dz::VocabularyProfile bert;  // richness 1
    dz::VocabularyProfile roberta;
    roberta.richness = 2;
    dz::QueryProbe rare{"define: hijab", dz::Language::English, false, 2};
    EXPECT_FALSE(dz::respondsCorrectly(bert, rare));
    EXPECT_TRUE(dz::respondsCorrectly(roberta, rare));
}

TEST(Vocab, StandardProbeSetDistinguishesPaperVariants)
{
    const auto probes = dz::standardProbeSet();
    EXPECT_GE(probes.size(), 10u);

    dz::VocabularyProfile bert_uncased;
    dz::VocabularyProfile bert_cased;
    bert_cased.cased = true;
    dz::VocabularyProfile camembert;
    camembert.language = dz::Language::French;
    dz::VocabularyProfile rubert;
    rubert.language = dz::Language::Russian;
    dz::VocabularyProfile roberta;
    roberta.richness = 2;

    const auto rs = {dz::responseVector(bert_uncased, probes),
                     dz::responseVector(bert_cased, probes),
                     dz::responseVector(camembert, probes),
                     dz::responseVector(rubert, probes),
                     dz::responseVector(roberta, probes)};
    // All five variants must produce pairwise distinct vectors.
    std::vector<std::vector<bool>> all(rs);
    for (std::size_t i = 0; i < all.size(); ++i)
        for (std::size_t j = i + 1; j < all.size(); ++j)
            EXPECT_GT(dz::responseDistance(all[i], all[j]), 0u)
                << "variants " << i << " and " << j;
}

TEST(Vocab, ResponseDistanceIsHamming)
{
    EXPECT_EQ(dz::responseDistance({true, false, true},
                                   {true, true, false}), 2u);
    EXPECT_EQ(dz::responseDistance({}, {}), 0u);
}

TEST(Zoo, DefaultPopulationCounts)
{
    const auto zoo = dz::ModelZoo::buildDefault(1);
    EXPECT_EQ(zoo.pretrained().size(), 70u);
    EXPECT_EQ(zoo.finetuned().size(), 170u);
    EXPECT_EQ(zoo.models().size(), 240u);
}

TEST(Zoo, NamesAreUnique)
{
    const auto zoo = dz::ModelZoo::buildDefault(2);
    std::set<std::string> names;
    for (const auto &m : zoo.models())
        names.insert(m.name);
    EXPECT_EQ(names.size(), zoo.models().size());
}

TEST(Zoo, FinetunedInheritsLineageProperties)
{
    const auto zoo = dz::ModelZoo::buildDefault(3);
    for (const auto *ft : zoo.finetuned()) {
        const auto *parent = zoo.byName(ft->pretrainedName);
        ASSERT_NE(parent, nullptr);
        EXPECT_TRUE(parent->isPretrained);
        // Fingerprint (signature) and architecture inherited.
        EXPECT_EQ(ft->signature, parent->signature);
        EXPECT_EQ(ft->arch.numLayers, parent->arch.numLayers);
        EXPECT_EQ(ft->arch.hidden, parent->arch.hidden);
        EXPECT_EQ(ft->vocabProfile, parent->vocabProfile);
        EXPECT_FALSE(ft->task.empty());
    }
}

TEST(Zoo, PretrainedSignaturesAreDistinct)
{
    const auto zoo = dz::ModelZoo::buildDefault(4);
    std::set<std::string> sigs;
    for (const auto *p : zoo.pretrained())
        sigs.insert(p->signature.toString());
    EXPECT_EQ(sigs.size(), zoo.pretrained().size());
}

TEST(Zoo, ByNameLookup)
{
    const auto zoo = dz::ModelZoo::buildDefault(5);
    const auto &first = zoo.models().front();
    EXPECT_EQ(zoo.byName(first.name), &first);
    EXPECT_EQ(zoo.byName("no-such-model"), nullptr);
}

TEST(Zoo, LineageNamesMatchPretrained)
{
    const auto zoo = dz::ModelZoo::buildDefault(6);
    EXPECT_EQ(zoo.lineageNames().size(), zoo.pretrained().size());
}

TEST(Zoo, CustomCounts)
{
    const auto zoo = dz::ModelZoo::buildDefault(7, 10, 25);
    EXPECT_EQ(zoo.pretrained().size(), 10u);
    EXPECT_EQ(zoo.finetuned().size(), 25u);
}

TEST(WeightStore, AnalyticCounts)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 12;
    arch.hidden = 768;
    const std::size_t per_layer = dz::analyticEncoderWeightCount(arch);
    // 4*768^2 + 4*768 + 2*768*3072 + 3072 + 768 + 4*768 = ~7.1M.
    EXPECT_GT(per_layer, 7'000'000u);
    EXPECT_LT(per_layer, 7'200'000u);
}

TEST(WeightStore, HeadFractionTinyForBase)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 12;
    arch.hidden = 768;
    arch.numClasses = 2;
    const auto ws = dz::WeightStore::makePretrained(arch, 1, 1000);
    // Paper Fig. 16: last layer is at most 0.009% of total weights.
    EXPECT_LT(ws.headWeightFraction(), 0.0001);
    EXPECT_GT(ws.headWeightFraction(), 0.0);
}

TEST(WeightStore, MaterializedSampling)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 4;
    arch.hidden = 128;
    const auto ws = dz::WeightStore::makePretrained(arch, 2, 500);
    EXPECT_EQ(ws.layers.size(), 4u);
    for (const auto &l : ws.layers)
        EXPECT_EQ(l.w.size(), 500u);
}

TEST(WeightStore, SlotsAddressLayersThenHead)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 3;
    arch.hidden = 64;
    auto ws = dz::WeightStore::makePretrained(arch, 3, 50);
    const std::size_t head_slot = ws.layers.size();
    // A pre-trained store has no head yet: its slot exists and is empty.
    EXPECT_EQ(ws.slotSize(head_slot), 0u);
    for (std::size_t l = 0; l < ws.layers.size(); ++l) {
        ASSERT_EQ(ws.slotSize(l), 50u);
        for (std::size_t i = 0; i < 50; i += 7)
            EXPECT_EQ(ws.slotWeight(l, i), ws.layers[l].w[i]);
    }
    ws.head.w = {0.25f, -1.5f};
    EXPECT_EQ(ws.slotSize(head_slot), 2u);
    EXPECT_EQ(ws.slotWeight(head_slot, 1), -1.5f);
    // Both accessors check their bounds.
    EXPECT_THROW(ws.slotSize(head_slot + 1), std::out_of_range);
    EXPECT_THROW(ws.slotWeight(head_slot + 1, 0), std::out_of_range);
    EXPECT_THROW(ws.slotWeight(0, 50), std::out_of_range);
    EXPECT_THROW(ws.slotWeight(head_slot, 2), std::out_of_range);
}

TEST(WeightStore, DifferentSeedsDifferentWeights)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 64;
    const auto a = dz::WeightStore::makePretrained(arch, 1, 100);
    const auto b = dz::WeightStore::makePretrained(arch, 2, 100);
    const auto deltas = a.weightDeltas(b);
    double max_d = 0.0;
    for (double d : deltas)
        max_d = std::max(max_d, std::fabs(d));
    EXPECT_GT(max_d, 0.01);
}

TEST(FineTuneSim, EpochSigmaScheduleShape)
{
    // Rises to the peak at epoch 9...
    EXPECT_LT(dz::FineTuneSimulator::epochSigma(0),
              dz::FineTuneSimulator::epochSigma(8));
    EXPECT_NEAR(dz::FineTuneSimulator::epochSigma(8),
                dz::kPeakSigma, 1e-9);
    // ...then decays toward the floor (paper Fig. 6).
    EXPECT_GT(dz::FineTuneSimulator::epochSigma(8),
              dz::FineTuneSimulator::epochSigma(20));
    EXPECT_NEAR(dz::FineTuneSimulator::epochSigma(40),
                dz::kFloorSigma, 1e-9);
}

TEST(FineTuneSim, WeightGapSmallAndLongTailed)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 4;
    arch.hidden = 256;
    const auto pre = dz::WeightStore::makePretrained(arch, 3, 5000);
    dz::FineTuneOptions opts;
    const auto ft = dz::FineTuneSimulator::fineTune(pre, opts, 4);

    const auto deltas = ft.weightDeltas(pre);
    // Paper Fig. 3 (XP-XF): ~50% of weights within +/-0.002.
    const double frac_tiny =
        du::Histogram::fractionWithinAbs(deltas, 0.002);
    EXPECT_GT(frac_tiny, 0.4);
    // Long tail exists: some deltas well beyond 3x the typical one.
    double max_d = 0.0;
    for (double d : deltas)
        max_d = std::max(max_d, std::fabs(d));
    EXPECT_GT(max_d, 0.01);
}

TEST(FineTuneSim, CrossLineageGapTwentyTimesWider)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 4;
    arch.hidden = 256;
    const auto pre_x = dz::WeightStore::makePretrained(arch, 5, 4000);
    const auto pre_y = dz::WeightStore::makePretrained(arch, 6, 4000);
    dz::FineTuneOptions opts;
    const auto ft_x = dz::FineTuneSimulator::fineTune(pre_x, opts, 7);

    const auto same = ft_x.weightDeltas(pre_x);
    const auto cross = ft_x.weightDeltas(pre_y);
    std::vector<double> abs_same, abs_cross;
    for (double d : same)
        abs_same.push_back(std::fabs(d));
    for (double d : cross)
        abs_cross.push_back(std::fabs(d));
    // Paper Observation 1: XP-XF at least 20x closer than XP-YF.
    EXPECT_GT(du::mean(abs_cross), 20.0 * du::mean(abs_same));
}

TEST(FineTuneSim, UShapeUpdateLaw)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 256;
    const auto pre = dz::WeightStore::makePretrained(arch, 8, 20000);
    dz::FineTuneOptions opts;
    opts.outlierProb = 0.0; // isolate the U-shape term
    const auto ft = dz::FineTuneSimulator::fineTune(pre, opts, 9);

    // Bin |delta| by pre-trained weight value.
    std::vector<double> inner, outer;
    for (std::size_t l = 0; l < pre.layers.size(); ++l) {
        for (std::size_t i = 0; i < pre.layers[l].w.size(); ++i) {
            const double w = pre.layers[l].w[i];
            const double d =
                std::fabs(static_cast<double>(ft.layers[l].w[i]) -
                          pre.layers[l].w[i]);
            if (std::fabs(w) < 0.05)
                inner.push_back(d);
            else if (std::fabs(w) > 0.25)
                outer.push_back(d);
        }
    }
    ASSERT_FALSE(inner.empty());
    ASSERT_FALSE(outer.empty());
    // Paper Fig. 4: outermost weights change ~3x more.
    EXPECT_GT(du::mean(outer), 2.0 * du::mean(inner));
}

TEST(FineTuneSim, SignsOverwhelminglyPreserved)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 256;
    const auto pre = dz::WeightStore::makePretrained(arch, 10, 10000);
    dz::FineTuneOptions opts;
    const auto ft = dz::FineTuneSimulator::fineTune(pre, opts, 11);

    std::size_t kept = 0, total = 0;
    for (std::size_t l = 0; l < pre.layers.size(); ++l) {
        for (std::size_t i = 0; i < pre.layers[l].w.size(); ++i) {
            ++total;
            if (std::signbit(pre.layers[l].w[i]) ==
                std::signbit(ft.layers[l].w[i]))
                ++kept;
        }
    }
    // Paper Sec. 6.1.1: ~99% of weights keep their sign.
    EXPECT_GT(static_cast<double>(kept) / static_cast<double>(total),
              0.97);
}

TEST(FineTuneSim, HeadIsFreshlyInitialized)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 128;
    const auto pre = dz::WeightStore::makePretrained(arch, 12, 1000);
    dz::FineTuneOptions opts;
    opts.headWeights = 32;
    const auto ft = dz::FineTuneSimulator::fineTune(pre, opts, 13);
    EXPECT_TRUE(pre.head.w.empty());
    EXPECT_EQ(ft.head.w.size(), 32u);
}

TEST(FineTuneSim, TrajectoryInterEpochGapRisesThenFalls)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 256;
    const auto pre = dz::WeightStore::makePretrained(arch, 14, 8000);
    dz::FineTuneOptions opts;
    opts.epochs = 30;
    opts.outlierProb = 0.0;
    const auto traj =
        dz::FineTuneSimulator::fineTuneTrajectory(pre, opts, 15);
    ASSERT_EQ(traj.size(), 30u);

    auto inter_gap = [&](std::size_t e) {
        const auto deltas = traj[e].weightDeltas(traj[e - 1]);
        std::vector<double> abs;
        for (double d : deltas)
            abs.push_back(std::fabs(d));
        return du::mean(abs);
    };
    // Paper Fig. 6: gap at the peak epoch clearly above the endpoints.
    EXPECT_GT(inter_gap(8), inter_gap(1));
    EXPECT_GT(inter_gap(8), inter_gap(29));
}

TEST(FineTuneSim, HeadConvergesExponentially)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 128;
    const auto pre = dz::WeightStore::makePretrained(arch, 16, 500);
    dz::FineTuneOptions opts;
    opts.epochs = 20;
    const auto traj =
        dz::FineTuneSimulator::fineTuneTrajectory(pre, opts, 17);

    auto head_gap = [&](std::size_t e) {
        double s = 0.0;
        for (std::size_t i = 0; i < traj[e].head.w.size(); ++i)
            s += std::fabs(static_cast<double>(traj[e].head.w[i]) -
                           traj[e - 1].head.w[i]);
        return s / static_cast<double>(traj[e].head.w.size());
    };
    // Early head movement dwarfs late movement (saturation).
    EXPECT_GT(head_gap(1), 3.0 * head_gap(19));
}

/** Task-invariance property (Fig. 5): two fine-tunes of one
 *  pre-trained model stay close to each other in every encoder. */
class TaskInvariance : public ::testing::TestWithParam<int>
{
};

TEST_P(TaskInvariance, TwoFineTunesOfSameParentStayClose)
{
    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 4;
    arch.hidden = 256;
    const auto pre = dz::WeightStore::makePretrained(
        arch, static_cast<std::uint64_t>(GetParam()), 3000);
    dz::FineTuneOptions opts;
    const auto ft_a = dz::FineTuneSimulator::fineTune(
        pre, opts, static_cast<std::uint64_t>(GetParam()) * 100 + 1);
    const auto ft_b = dz::FineTuneSimulator::fineTune(
        pre, opts, static_cast<std::uint64_t>(GetParam()) * 100 + 2);
    const auto per_layer = ft_a.perLayerMeanAbsDiff(ft_b);
    // Encoder layers stay within ~2x the paper's 0.002 bound ...
    for (std::size_t l = 0; l < pre.layers.size(); ++l)
        EXPECT_LT(per_layer[l], 0.02);
    // ... while the task heads (trained for different tasks) diverge.
    ASSERT_EQ(per_layer.size(), pre.layers.size() + 1);
    EXPECT_GT(per_layer.back(), 2.0 * per_layer.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaskInvariance, ::testing::Values(1, 2, 3));

TEST(ProbeBuilder, SeparatesAllDistinguishablePairs)
{
    std::vector<dz::VocabularyProfile> profiles(4);
    profiles[0].language = dz::Language::English;
    profiles[1].language = dz::Language::French;
    profiles[2].language = dz::Language::English;
    profiles[2].cased = true;
    profiles[3].language = dz::Language::English;
    profiles[3].richness = 2;

    const auto probes = dz::buildDiscriminativeProbeSet(profiles);
    EXPECT_FALSE(probes.empty());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        for (std::size_t j = i + 1; j < profiles.size(); ++j) {
            const auto ri = dz::responseVector(profiles[i], probes);
            const auto rj = dz::responseVector(profiles[j], probes);
            EXPECT_GT(dz::responseDistance(ri, rj), 0u)
                << "pair " << i << "," << j;
        }
    }
}

TEST(ProbeBuilder, SmallerThanUniverse)
{
    std::vector<dz::VocabularyProfile> profiles(3);
    profiles[1].language = dz::Language::French;
    profiles[2].cased = true;
    const auto probes = dz::buildDiscriminativeProbeSet(profiles);
    EXPECT_LT(probes.size(), dz::standardProbeSet().size());
    EXPECT_LE(probes.size(), 3u); // 3 pairwise splits need <= 3 probes
}

TEST(ProbeBuilder, IdenticalTwinsIgnored)
{
    std::vector<dz::VocabularyProfile> profiles(2); // identical
    const auto probes = dz::buildDiscriminativeProbeSet(profiles);
    EXPECT_TRUE(probes.empty());
}

TEST(ProbeBuilder, SingleProfileNeedsNothing)
{
    std::vector<dz::VocabularyProfile> profiles(1);
    EXPECT_TRUE(dz::buildDiscriminativeProbeSet(profiles).empty());
}
