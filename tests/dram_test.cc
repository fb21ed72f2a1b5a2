/**
 * @file
 * Tests for the DRAM geometry model behind the rowhammer channel:
 * address layout, hammerability masking, warm/cold cost accounting,
 * and selective extraction under physical reachability limits.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "extraction/dram.hh"
#include "extraction/selective.hh"
#include "zoo/finetune_sim.hh"
#include "zoo/weight_store.hh"

namespace de = decepticon::extraction;
namespace dz = decepticon::zoo;

namespace {

struct Fixture
{
    decepticon::gpusim::ArchParams arch;
    dz::WeightStore pre;
    dz::WeightStore victim;

    explicit Fixture(std::size_t per_layer = 4000)
    {
        arch.numLayers = 2;
        arch.hidden = 128;
        pre = dz::WeightStore::makePretrained(arch, 61, per_layer);
        dz::FineTuneOptions opts;
        opts.headWeights = 32;
        victim = dz::FineTuneSimulator::fineTune(pre, opts, 62);
    }
};

} // namespace

TEST(DramLayout, AddressesAreSequential)
{
    Fixture fx;
    de::DramGeometry geom;
    de::DramWeightLayout layout(fx.victim, geom, 1);

    // A row holds exactly rowBytes / 4 consecutive float32 weights.
    const std::size_t per_row = geom.rowBytes / 4;
    const std::size_t r0 = layout.rowOf(0, 0);
    EXPECT_EQ(layout.rowOf(0, 1), r0);
    EXPECT_EQ(layout.rowOf(0, per_row - 1), r0);
    EXPECT_EQ(layout.rowOf(0, per_row), r0 + 1);
    EXPECT_EQ(layout.rowOf(0, 2 * per_row), r0 + 2);
}

TEST(DramLayout, LayersDoNotOverlap)
{
    Fixture fx;
    de::DramGeometry geom;
    de::DramWeightLayout layout(fx.victim, geom, 2);

    // Layer 1 starts right after layer 0's last weight: it shares that
    // row and crosses into the next one exactly where a gapless layout
    // puts the row boundary.
    const std::size_t n0 = fx.victim.layers[0].w.size();
    const std::size_t last_row = layout.rowOf(0, n0 - 1);
    const std::size_t used = (4 * n0) % geom.rowBytes;
    ASSERT_NE(used, 0u) << "fixture must end layer 0 mid-row";
    const std::size_t crossing = (geom.rowBytes - used) / 4;
    EXPECT_EQ(layout.rowOf(1, 0), last_row);
    EXPECT_EQ(layout.rowOf(1, crossing - 1), last_row);
    EXPECT_EQ(layout.rowOf(1, crossing), last_row + 1);
}

TEST(DramLayout, FullHammerabilityByDefault)
{
    Fixture fx;
    de::DramGeometry geom; // fraction = 1.0
    de::DramWeightLayout layout(fx.victim, geom, 4);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_TRUE(layout.hammerable(0, i));
}

TEST(DramLayout, PartialHammerabilityMasksRows)
{
    Fixture fx(20000);
    de::DramGeometry geom;
    geom.hammerableRowFraction = 0.5;
    de::DramWeightLayout layout(fx.victim, geom, 5);
    std::size_t hammerable = 0, weights = 0;
    for (std::size_t l = 0; l < 2; ++l)
        for (std::size_t i = 0; i < fx.victim.layers[l].w.size(); ++i, ++weights)
            hammerable += layout.hammerable(l, i) ? 1 : 0;
    const double frac =
        static_cast<double>(hammerable) / static_cast<double>(weights);
    EXPECT_GT(frac, 0.3);
    EXPECT_LT(frac, 0.7);
    // Hammerability is a per-row property: weights in one row agree.
    const std::size_t per_row = geom.rowBytes / 4;
    for (std::size_t r = 0; r < 5; ++r) {
        const bool first = layout.hammerable(0, r * per_row);
        EXPECT_EQ(layout.hammerable(0, r * per_row + 1), first);
    }
}

TEST(DramChannel, WarmRowsAreCheaper)
{
    Fixture fx;
    de::DramGeometry geom;
    de::DramWeightLayout layout(fx.victim, geom, 6);
    de::DramBitProbeChannel chan(fx.victim, layout);

    // Two reads in the same row: cold then warm.
    chan.readBit(0, 0, 22);
    const std::size_t after_cold = chan.stats().hammerRounds;
    chan.readBit(0, 1, 22);
    const std::size_t warm_cost =
        chan.stats().hammerRounds - after_cold;
    EXPECT_EQ(after_cold, de::kRoundsPerBitCold);
    EXPECT_EQ(warm_cost, de::kRoundsPerBitWarm);

    // Jumping to a far row is cold again.
    const std::size_t far = geom.rowBytes; // definitely another row
    chan.readBit(0, far / 4, 22);
    EXPECT_EQ(chan.stats().hammerRounds,
              after_cold + warm_cost + de::kRoundsPerBitCold);
}

TEST(DramChannel, ReadsMatchPlainChannel)
{
    Fixture fx;
    de::DramGeometry geom;
    de::DramWeightLayout layout(fx.victim, geom, 7);
    de::DramBitProbeChannel dram_chan(fx.victim, layout);
    de::BitProbeChannel plain_chan(fx.victim);
    for (std::size_t i = 0; i < 200; ++i) {
        for (int b : {31, 22, 10}) {
            EXPECT_EQ(dram_chan.readBit(0, i, b),
                      plain_chan.readBit(0, i, b));
        }
    }
}

TEST(DramExtraction, UnreadableWeightsKeepBaseline)
{
    Fixture fx(20000);
    de::DramGeometry geom;
    geom.hammerableRowFraction = 0.5;
    de::DramWeightLayout layout(fx.victim, geom, 8);
    de::DramBitProbeChannel chan(fx.victim, layout);

    de::ExtractionPolicy policy;
    policy.significance = 1e-5; // check almost everything
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    const auto clone =
        ex.extractLayer(fx.pre.layers[0].w, chan, 0, stats);

    EXPECT_GT(stats.unreadableWeights, 0u);
    // Every unreadable weight equals the baseline exactly.
    std::size_t verified = 0;
    for (std::size_t i = 0; i < clone.size(); ++i) {
        if (!chan.canRead(0, i)) {
            EXPECT_EQ(clone[i], fx.pre.layers[0].w[i]);
            ++verified;
        }
    }
    EXPECT_EQ(verified, stats.unreadableWeights +
                            [&] {
                                // skipped weights in unreadable rows
                                // were never attempted; count them.
                                std::size_t n = 0;
                                for (std::size_t i = 0;
                                     i < clone.size(); ++i) {
                                    const double est =
                                        policy.estimatedDist(std::fabs(
                                            fx.pre.layers[0].w[i]));
                                    const bool skipped =
                                        std::fabs(
                                            fx.pre.layers[0].w[i]) <
                                            de::kSkipThreshold ||
                                        est < policy.significance;
                                    if (skipped && !chan.canRead(0, i))
                                        ++n;
                                }
                                return n;
                            }());
}

TEST(DramExtraction, HeadUnreadableBecomesZero)
{
    Fixture fx;
    de::DramGeometry geom;
    geom.hammerableRowFraction = 0.0; // nothing reachable
    de::DramWeightLayout layout(fx.victim, geom, 9);
    de::DramBitProbeChannel chan(fx.victim, layout);

    de::ExtractionPolicy policy;
    de::SelectiveWeightExtractor ex(policy);
    de::ExtractionStats stats;
    const auto head = ex.extractHead(chan, 2, fx.victim.head.w.size(),
                                     stats);
    for (float v : head)
        EXPECT_EQ(v, 0.0f);
    EXPECT_EQ(stats.unreadableWeights, fx.victim.head.w.size());
    EXPECT_EQ(chan.stats().bitsRead, 0u);
}

/** Coverage degradation sweep: correctness decays gently as rows
 *  become unreachable (unreachable weights keep the baseline, which
 *  is usually close). */
class HammerabilitySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(HammerabilitySweep, CorrectnessDecaysGently)
{
    Fixture fx(10000);
    de::ExtractionPolicy policy;
    de::SelectiveWeightExtractor ex(policy);

    double prev = 1.1;
    for (double frac : {1.0, 0.7, 0.4}) {
        de::DramGeometry geom;
        geom.hammerableRowFraction = frac;
        de::DramWeightLayout layout(
            fx.victim, geom, static_cast<std::uint64_t>(GetParam()));
        de::DramBitProbeChannel chan(fx.victim, layout);
        de::ExtractionStats stats;
        const auto clone =
            ex.extractLayer(fx.pre.layers[0].w, chan, 0, stats);
        ex.auditAccuracy(clone, fx.victim.layers[0].w,
                         fx.pre.layers[0].w, stats);
        const double correct = stats.correctFraction();
        EXPECT_LE(correct, prev + 0.02);
        EXPECT_GT(correct, 0.7);
        prev = correct;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HammerabilitySweep,
                         ::testing::Values(1, 2, 3));
