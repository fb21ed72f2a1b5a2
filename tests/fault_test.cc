/**
 * @file
 * Tests for the unreliable-channel model: the fault injector's
 * determinism, the retrying/majority-voting prober's correctness
 * properties, the baseline fallback on budget exhaustion, and the
 * multi-capture trace repair pipeline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "extraction/ieee.hh"
#include "extraction/resilient.hh"
#include "fault/fault.hh"
#include "trace/repair.hh"
#include "util/rng.hh"

namespace dex = decepticon::extraction;
namespace dfa = decepticon::fault;
namespace dg = decepticon::gpusim;
namespace dtc = decepticon::trace;

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/** A one-encoder + head victim with reproducible weights. */
dex::SnapshotOracle
makeOracle(std::uint64_t seed, std::size_t layer_size = 24,
           std::size_t head_size = 8)
{
    decepticon::util::Rng rng(seed);
    std::vector<std::vector<float>> groups(2);
    for (std::size_t i = 0; i < layer_size; ++i)
        groups[0].push_back(
            static_cast<float>(rng.gaussian(0.0, 0.2)));
    for (std::size_t i = 0; i < head_size; ++i)
        groups[1].push_back(
            static_cast<float>(rng.gaussian(0.0, 0.5)));
    return dex::SnapshotOracle(std::move(groups));
}

/** Channel that flips exactly one chosen attempt (by global count). */
class FlipOnAttemptChannel : public dex::BitProbeChannel
{
  public:
    FlipOnAttemptChannel(const dex::VictimWeightOracle &oracle,
                         int flip_attempt)
        : BitProbeChannel(oracle), flipAttempt_(flip_attempt)
    {
    }

    dex::ProbeAttempt
    tryReadBit(std::size_t layer, std::size_t index,
               int word_bit) override
    {
        dex::ProbeAttempt a =
            BitProbeChannel::tryReadBit(layer, index, word_bit);
        if (attempt_++ == flipAttempt_)
            a.bit = !a.bit;
        return a;
    }

  private:
    int flipAttempt_;
    int attempt_ = 0;
};

/** A small synthetic kernel trace with distinctive ids/durations. */
dg::KernelTrace
syntheticTrace(std::size_t records = 40)
{
    dg::KernelTrace t;
    t.kernelNames = std::make_shared<const std::vector<std::string>>(
        std::vector<std::string>{"gemm", "softmax", "norm", "copy"});
    double clock = 0.0;
    for (std::size_t i = 0; i < records; ++i) {
        dg::KernelRecord r;
        r.kernelId = static_cast<int>(i % 4);
        r.tStart = clock + 0.5;
        // Duration is a function of the kernel id, so even an
        // alignment that matches a record to the wrong cycle of the
        // periodic schedule sees the correct duration.
        r.tEnd = r.tStart + 2.0 + static_cast<double>(r.kernelId);
        clock = r.tEnd;
        t.records.push_back(r);
    }
    return t;
}

} // anonymous namespace

// ---- RetryingProber properties ----

TEST(RetryingProber, FaultFreeIsBitIdenticalToRawChannel)
{
    const auto oracle = makeOracle(7);
    dex::BitProbeChannel raw(oracle);
    dex::BitProbeChannel inner(oracle);
    dex::RetryingProber prober(inner);

    std::size_t bits = 0;
    for (std::size_t layer = 0; layer < 2; ++layer) {
        for (std::size_t i = 0; i < oracle.layerSize(layer); ++i) {
            for (int b = 0; b < 32; ++b) {
                EXPECT_EQ(prober.readBit(layer, i, b),
                          raw.readBit(layer, i, b))
                    << "layer " << layer << " index " << i << " bit "
                    << b;
                ++bits;
            }
        }
    }
    const auto &rel = prober.reliability();
    EXPECT_EQ(rel.logicalBits, bits);
    // votes = 3 with early exit: a clean channel pays exactly the
    // majority (2 reads) per bit, and nothing else.
    EXPECT_EQ(rel.physicalReads, 2 * bits);
    EXPECT_EQ(inner.stats().bitsRead, 2 * bits);
    EXPECT_EQ(rel.retries, 0u);
    EXPECT_EQ(rel.probeFailures, 0u);
    EXPECT_EQ(rel.fallbackBits, 0u);
    EXPECT_EQ(rel.exhaustedBits, 0u);
    EXPECT_DOUBLE_EQ(rel.amplification(), 2.0);
}

TEST(RetryingProber, MajorityCorrectsAnySingleFlip)
{
    const auto oracle = makeOracle(9);
    dex::BitProbeChannel truth(oracle);
    // Whichever single attempt the flip lands on, 3-vote majority
    // still recovers the true bit.
    for (int flip_attempt = 0; flip_attempt < 3; ++flip_attempt) {
        FlipOnAttemptChannel flaky(oracle, flip_attempt);
        dex::RetryingProber prober(flaky);
        for (int b = 0; b < 8; ++b) {
            // Only the first read of this loop sees the flip; the
            // point is that no single flipped attempt survives.
            EXPECT_EQ(prober.readBit(0, 0, b), truth.readBit(0, 0, b))
                << "flip at attempt " << flip_attempt << " bit " << b;
        }
    }
}

TEST(RetryingProber, StuckCellAnswersConsistentlyWrongOrRight)
{
    const auto oracle = makeOracle(11);
    dfa::FaultSpec spec;
    spec.stuckBitRate = 0.999;
    spec.seed = 5;
    dfa::FaultInjector injector(spec);
    dex::BitProbeChannel inner(oracle);
    inner.attachFaultInjector(&injector);
    dex::RetryingProber prober(inner);

    // A stuck cell defeats voting: repeated reads agree with each
    // other (the cell's stuck value), never dither.
    for (int b = 0; b < 32; ++b) {
        const bool first = prober.readBit(0, 3, b);
        EXPECT_EQ(prober.readBit(0, 3, b), first);
        EXPECT_EQ(prober.readBit(0, 3, b), first);
    }
    EXPECT_GT(injector.counters().stuckReads, 0u);
    inner.attachFaultInjector(nullptr);
}

TEST(RetryingProber, ExhaustedBudgetFallsBackToBaselineBits)
{
    const auto victim = makeOracle(13);
    // A baseline that disagrees with the victim everywhere, so any
    // bit answered from it is provably a fallback.
    std::vector<std::vector<float>> base_groups(2);
    for (std::size_t i = 0; i < victim.layerSize(0); ++i)
        base_groups[0].push_back(-2.5f);
    for (std::size_t i = 0; i < victim.layerSize(1); ++i)
        base_groups[1].push_back(-2.5f);
    const dex::SnapshotOracle baseline(base_groups);

    dfa::FaultSpec spec;
    spec.transientFailureRate = 0.999999; // nothing ever lands
    spec.seed = 17;
    dfa::FaultInjector injector(spec);
    dex::BitProbeChannel inner(victim);
    inner.attachFaultInjector(&injector);
    dex::RetryingProber prober(inner, &baseline);

    const float got = prober.readFullWeight(0, 1);
    EXPECT_FLOAT_EQ(got, -2.5f);

    const auto &rel = prober.reliability();
    EXPECT_EQ(rel.exhaustedBits, 32u);
    EXPECT_EQ(rel.fallbackBits, 32u);
    EXPECT_GT(rel.probeFailures, 0u);
    EXPECT_GT(rel.backoffRounds, 0u);
    // Failed attempts and backoff are still charged on the physical
    // channel's ledger.
    EXPECT_GT(inner.stats().hammerRounds, 32u);
    inner.attachFaultInjector(nullptr);
}

// ---- FaultInjector determinism ----

TEST(FaultInjector, IdenticalSeedsReplayIdentically)
{
    const auto oracle = makeOracle(19);
    dfa::FaultSpec spec;
    spec.probeFlipRate = 0.2;
    spec.transientFailureRate = 0.1;
    spec.stuckBitRate = 0.05;
    spec.burstRowFraction = 0.3;
    spec.seed = 99;

    dfa::FaultInjector a(spec), b(spec);
    for (std::size_t i = 0; i < oracle.layerSize(0); ++i) {
        for (int bit = 0; bit < 32; ++bit) {
            for (int attempt = 0; attempt < 3; ++attempt) {
                const auto oa = a.perturbProbe(0, i, bit, true);
                const auto ob = b.perturbProbe(0, i, bit, true);
                EXPECT_EQ(oa.ok, ob.ok);
                EXPECT_EQ(oa.bit, ob.bit);
            }
        }
    }
    EXPECT_EQ(a.counters().bitFlips, b.counters().bitFlips);
    EXPECT_EQ(a.counters().probeFailures, b.counters().probeFailures);
    EXPECT_EQ(a.counters().stuckReads, b.counters().stuckReads);
    EXPECT_GT(a.counters().bitFlips + a.counters().stuckReads, 0u);
}

TEST(FaultInjector, CorruptTraceIsDeterministicPerCaptureSeed)
{
    const auto trace = syntheticTrace();
    dfa::FaultSpec spec;
    spec.recordDropRate = 0.2;
    spec.recordDuplicateRate = 0.1;
    spec.truncateProbability = 0.5;
    spec.seed = 23;

    dfa::FaultInjector a(spec), b(spec);
    const auto ca = a.corruptTrace(trace, 4);
    const auto cb = b.corruptTrace(trace, 4);
    ASSERT_EQ(ca.records.size(), cb.records.size());
    for (std::size_t i = 0; i < ca.records.size(); ++i) {
        EXPECT_EQ(ca.records[i].kernelId, cb.records[i].kernelId);
        EXPECT_DOUBLE_EQ(ca.records[i].tStart, cb.records[i].tStart);
    }

    // A different capture seed draws a different fault pattern.
    const auto cc = a.corruptTrace(trace, 5);
    bool differs = cc.records.size() != ca.records.size();
    for (std::size_t i = 0;
         !differs && i < std::min(ca.records.size(), cc.records.size());
         ++i)
        differs = ca.records[i].kernelId != cc.records[i].kernelId;
    EXPECT_TRUE(differs);
}

TEST(FaultInjector, CorruptTraceNeverEmptiesANonEmptyTrace)
{
    const auto trace = syntheticTrace(6);
    dfa::FaultSpec spec;
    spec.recordDropRate = 0.999;
    spec.truncateProbability = 0.999;
    spec.truncateMaxFraction = 0.99;
    spec.seed = 31;
    dfa::FaultInjector injector(spec);
    for (std::uint64_t cap = 0; cap < 16; ++cap)
        EXPECT_GE(injector.corruptTrace(trace, cap).records.size(), 1u);
}

// ---- trace repair ----

TEST(TraceRepair, DedupeCollapsesExactDuplicates)
{
    auto trace = syntheticTrace(8);
    auto doubled = trace;
    doubled.records.clear();
    for (const auto &r : trace.records) {
        doubled.records.push_back(r);
        doubled.records.push_back(r); // capture artifact
    }
    std::size_t removed = 0;
    const auto clean = dtc::dedupeRecords(doubled, &removed);
    EXPECT_EQ(clean.records.size(), trace.records.size());
    EXPECT_EQ(removed, trace.records.size());
}

TEST(TraceRepair, AlignmentMarksDroppedRecords)
{
    const std::vector<int> reference{1, 2, 3, 4, 5};
    const std::vector<int> capture{1, 2, 4, 5};
    const auto matched = dtc::alignToReference(reference, capture);
    ASSERT_EQ(matched.size(), 5u);
    EXPECT_EQ(matched[0], 0u);
    EXPECT_EQ(matched[1], 1u);
    EXPECT_EQ(matched[2], kNpos); // the dropped record
    EXPECT_EQ(matched[3], 2u);
    EXPECT_EQ(matched[4], 3u);
}

TEST(TraceRepair, ConsensusRecoversDroppedAndDuplicatedRecords)
{
    const auto truth = syntheticTrace();
    dfa::FaultSpec spec;
    spec.recordDropRate = 0.1;
    spec.recordDuplicateRate = 0.05;
    spec.seed = 37;
    dfa::FaultInjector injector(spec);

    std::vector<dg::KernelTrace> captures;
    for (std::uint64_t cap = 0; cap < 7; ++cap)
        captures.push_back(injector.corruptTrace(truth, cap));

    dtc::RepairReport report;
    const auto repaired = dtc::repairTraces(captures, &report);
    EXPECT_EQ(report.captures, 7u);
    EXPECT_GT(report.meanAlignedFraction, 0.8);

    // The consensus must track the true schedule far better than a
    // typical single capture: >= 90% of true records recovered in
    // order, with near-true durations at matched positions.
    const auto matched = dtc::alignToReference(
        truth.kernelIdSequence(), repaired.kernelIdSequence());
    std::size_t hits = 0;
    double max_dur_err = 0.0;
    for (std::size_t p = 0; p < matched.size(); ++p) {
        if (matched[p] == kNpos)
            continue;
        ++hits;
        max_dur_err = std::max(
            max_dur_err,
            std::fabs(repaired.records[matched[p]].duration() -
                      truth.records[p].duration()));
    }
    EXPECT_GE(static_cast<double>(hits) /
                  static_cast<double>(truth.records.size()),
              0.9);
    EXPECT_LT(max_dur_err, 1e-6); // medians reject the fault noise
}
