/**
 * @file
 * Tests for the unreliable-channel model: the fault injector's
 * determinism, the retrying/majority-voting prober's correctness
 * properties, the baseline fallback on budget exhaustion, and the
 * multi-capture trace repair pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "extraction/ieee.hh"
#include "extraction/resilient.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "trace/repair.hh"
#include "util/rng.hh"
#include "zoo/weight_store.hh"

namespace dex = decepticon::extraction;
namespace dfa = decepticon::fault;
namespace dg = decepticon::gpusim;
namespace dtc = decepticon::trace;
namespace dz = decepticon::zoo;

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/** A one-encoder + head victim with reproducible weights. */
dz::WeightStore
makeVictim(std::uint64_t seed, std::size_t layer_size = 24,
           std::size_t head_size = 8)
{
    decepticon::util::Rng rng(seed);
    dz::WeightStore victim;
    victim.layers.resize(1);
    for (std::size_t i = 0; i < layer_size; ++i)
        victim.layers[0].w.push_back(
            static_cast<float>(rng.gaussian(0.0, 0.2)));
    for (std::size_t i = 0; i < head_size; ++i)
        victim.head.w.push_back(
            static_cast<float>(rng.gaussian(0.0, 0.5)));
    return victim;
}

/** Channel that flips exactly one chosen attempt (by global count). */
class FlipOnAttemptChannel : public dex::BitProbeChannel
{
  public:
    FlipOnAttemptChannel(const dz::WeightStore &victim, int flip_attempt)
        : BitProbeChannel(victim), flipAttempt_(flip_attempt)
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
    auto names = std::make_shared<dg::KernelNameTable>();
    for (const char *name : {"gemm", "softmax", "norm", "copy"})
        names->push({name});
    t.kernelNames = std::move(names);
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
    const auto victim = makeVictim(7);
    dex::BitProbeChannel raw(victim);
    dex::BitProbeChannel inner(victim);
    dex::RetryingProber prober(inner);

    std::size_t bits = 0;
    for (std::size_t layer = 0; layer < 2; ++layer) {
        for (std::size_t i = 0; i < victim.slotSize(layer); ++i) {
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
    const auto victim = makeVictim(9);
    dex::BitProbeChannel truth(victim);
    // Whichever single attempt the flip lands on, 3-vote majority
    // still recovers the true bit.
    for (int flip_attempt = 0; flip_attempt < 3; ++flip_attempt) {
        FlipOnAttemptChannel flaky(victim, flip_attempt);
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
    const auto victim = makeVictim(11);
    dfa::FaultSpec spec;
    spec.stuckBitRate = 0.999;
    spec.seed = 5;
    dfa::FaultInjector injector(spec);
    dex::BitProbeChannel inner(victim);
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
    const auto victim = makeVictim(13);
    // A baseline that disagrees with the victim everywhere, so any
    // bit answered from it is provably a fallback.
    dz::WeightStore baseline;
    baseline.layers.resize(1);
    baseline.layers[0].w.assign(victim.slotSize(0), -2.5f);
    baseline.head.w.assign(victim.slotSize(1), -2.5f);

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
    const auto victim = makeVictim(19);
    dfa::FaultSpec spec;
    spec.probeFlipRate = 0.2;
    spec.transientFailureRate = 0.1;
    spec.stuckBitRate = 0.05;
    spec.seed = 99;

    dfa::FaultInjector a(spec), b(spec);
    for (std::size_t i = 0; i < victim.slotSize(0); ++i) {
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
    spec.seed = 31;
    dfa::FaultInjector injector(spec);
    for (std::uint64_t cap = 0; cap < 16; ++cap)
        EXPECT_GE(injector.corruptTrace(trace, cap).records.size(), 1u);
}

TEST(FaultInjector, CapturesCorruptedCountsOnlyCapturesAFaultHit)
{
    // A duplicate rate far too small to fire on an 8-record trace: every
    // capture is an attempt, none comes back altered, so none counts as
    // corrupted. A rate that fires on every capture counts every one.
    decepticon::obs::ObsConfig cfg;
    cfg.metricsEnabled = true;
    const auto trace = syntheticTrace(8);
    constexpr std::uint64_t kCaptures = 16;
    for (const double rate : {1e-9, 0.9}) {
        decepticon::obs::configure(cfg);
        dfa::FaultSpec spec;
        spec.recordDuplicateRate = rate;
        spec.seed = 41;
        dfa::FaultInjector injector(spec);
        std::size_t altered = 0;
        for (std::uint64_t cap = 0; cap < kCaptures; ++cap)
            altered += injector.corruptTrace(trace, cap).records.size() !=
                       trace.records.size();
        const auto &registry = decepticon::obs::metrics();
        EXPECT_EQ(registry.counter("fault.capture_attempts"), kCaptures);
        EXPECT_EQ(registry.counter("fault.captures_corrupted"), altered)
            << "duplicate rate " << rate;
        EXPECT_EQ(altered, rate < 0.5 ? 0u : kCaptures);
        decepticon::obs::shutdown();
    }
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
    dtc::RepairReport report;
    const auto clean = dtc::repairTraces({doubled}, &report);
    EXPECT_EQ(clean.records.size(), trace.records.size());
    EXPECT_EQ(report.duplicatesRemoved, trace.records.size());
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

TEST(TraceRepair, NoCapturedRecordsYieldsEmptyConsensus)
{
    dtc::RepairReport report;
    report.captures = 9;
    report.referenceRecords = 9;
    report.duplicatesRemoved = 9;
    report.meanAlignedFraction = 0.5;
    const auto none = dtc::repairTraces({}, &report);
    EXPECT_TRUE(none.records.empty());
    EXPECT_EQ(none.kernelNames, nullptr);
    EXPECT_EQ(report.captures, 0u);
    EXPECT_EQ(report.referenceRecords, 0u);
    EXPECT_EQ(report.duplicatesRemoved, 0u);
    EXPECT_EQ(report.meanAlignedFraction, 0.0);

    auto empty = syntheticTrace(0);
    report.captures = 9;
    const auto blank = dtc::repairTraces({empty, empty, empty}, &report);
    EXPECT_TRUE(blank.records.empty());
    EXPECT_EQ(report.captures, 0u);
    EXPECT_EQ(report.referenceRecords, 0u);
    EXPECT_EQ(report.meanAlignedFraction, 0.0);
    EXPECT_TRUE(dtc::repairTraces({empty}).records.empty());
}

namespace {

/** FNV-1a over raw bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One name table shared by every jitteredTrace(). */
const std::shared_ptr<const dg::KernelNameTable> &
sharedNames()
{
    static const auto table = syntheticTrace(1).kernelNames;
    return table;
}

/** syntheticTrace() with per-capture timing jitter on every record. */
dg::KernelTrace
jitteredTrace(std::uint64_t seed, std::size_t records = 40)
{
    dg::KernelTrace t = syntheticTrace(records);
    t.kernelNames = sharedNames();
    decepticon::util::Rng rng(seed);
    double clock = 0.0;
    for (auto &r : t.records) {
        const double gap = 0.5 + rng.uniform(0.0, 0.4);
        const double dur = r.duration() * (1.0 + rng.gaussian(0.0, 0.05));
        r.tStart = clock + gap;
        r.tEnd = r.tStart + dur;
        clock = r.tEnd;
    }
    return t;
}

/**
 * FNV-1a digest of repairTraces() over R = 1, 2, 3, 4 and 7 faulty
 * jittered captures (even R exercises the two-middle median), plus
 * three edge sets: duplicates at index 0, a tail truncated to one
 * record, and two captures that tie for longest after dedupe. Covers
 * every consensus record field and every RepairReport field. Pinned
 * across commits: a repair rewrite must reproduce every bit.
 */
constexpr std::uint64_t kRepairDigest = 0x06dd76bbf1a52f26ULL;

} // anonymous namespace

namespace {

/** The nth_element median repair used for every capture count before
 *  1-3 captures took min/max: the reference the fast path must match. */
double
nthElementMedian(std::vector<double> values)
{
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                     values.end());
    double m = values[mid];
    if (values.size() % 2 == 0) {
        const auto lower = std::max_element(
            values.begin(), values.begin() + static_cast<long>(mid));
        m = 0.5 * (m + *lower);
    }
    return m;
}

} // anonymous namespace

TEST(TraceRepair, FewCaptureMedianMatchesNthElement)
{
    // Captures of one 3-record schedule with no drops, so every record
    // aligns in every capture and each consensus duration and gap is
    // the median across captures. Durations and gaps include ties.
    const std::vector<std::vector<double>> durations = {
        {4.0, 2.5, 3.0}, {4.0, 1.5, 3.0}, {2.0, 2.5, 3.0}};
    const std::vector<std::vector<double>> gaps = {
        {1.0, 0.5, 0.25}, {1.0, 0.75, 0.25}, {3.0, 0.5, 0.25}};
    std::vector<dg::KernelTrace> all;
    for (std::size_t c = 0; c < 3; ++c) {
        dg::KernelTrace t = syntheticTrace(3);
        double clock = 0.0;
        for (std::size_t k = 0; k < 3; ++k) {
            t.records[k].tStart = clock + gaps[c][k];
            t.records[k].tEnd = t.records[k].tStart + durations[c][k];
            clock = t.records[k].tEnd;
        }
        all.push_back(t);
    }
    // Capture subsets of size 1-3, in several orders.
    const std::vector<std::vector<std::size_t>> subsets = {
        {0}, {1}, {2}, {0, 1}, {1, 0}, {0, 2}, {2, 1},
        {0, 1, 2}, {2, 0, 1}, {1, 2, 0}};
    for (const auto &subset : subsets) {
        std::vector<dg::KernelTrace> captures;
        for (std::size_t c : subset)
            captures.push_back(all[c]);
        const dg::KernelTrace out = dtc::repairTraces(captures);
        ASSERT_EQ(out.records.size(), 3u);
        double clock = 0.0;
        for (std::size_t k = 0; k < 3; ++k) {
            std::vector<double> d, g;
            for (const dg::KernelTrace &cap : captures) {
                const dg::KernelRecord &rec = cap.records[k];
                d.push_back(rec.duration());
                g.push_back(k == 0 ? rec.tStart
                                   : rec.tStart - cap.records[k - 1].tEnd);
            }
            const double start = clock + nthElementMedian(g);
            const double end = start + nthElementMedian(d);
            EXPECT_EQ(out.records[k].tStart, start) << "record " << k;
            EXPECT_EQ(out.records[k].tEnd, end) << "record " << k;
            clock = end;
        }
    }
}

TEST(TraceRepair, ConsensusDigestPinnedAcrossCommits)
{
    dfa::FaultSpec spec;
    spec.recordDropRate = 0.15;
    spec.recordDuplicateRate = 0.1;
    spec.truncateProbability = 0.3;
    spec.seed = 61;

    std::vector<std::vector<dg::KernelTrace>> sets;
    for (std::size_t r : {1u, 2u, 3u, 4u, 7u}) {
        dfa::FaultInjector injector(spec);
        std::vector<dg::KernelTrace> captures;
        for (std::uint64_t c = 0; c < r; ++c)
            captures.push_back(
                injector.corruptTrace(jitteredTrace(100 * r + c), c));
        sets.push_back(std::move(captures));
    }

    // Duplicates at index 0: the first record delivered three times.
    {
        std::vector<dg::KernelTrace> captures;
        for (std::uint64_t c = 0; c < 3; ++c)
            captures.push_back(jitteredTrace(900 + c));
        for (int k = 0; k < 2; ++k)
            captures[1].records.insert(captures[1].records.begin(),
                                       captures[1].records.front());
        captures[2].records.insert(captures[2].records.begin(),
                                   captures[2].records.front());
        sets.push_back(std::move(captures));
    }
    // A tail truncated to a single record.
    {
        std::vector<dg::KernelTrace> captures;
        for (std::uint64_t c = 0; c < 4; ++c)
            captures.push_back(jitteredTrace(950 + c));
        captures[2].records.resize(1);
        captures[0].records.erase(captures[0].records.begin() + 7);
        sets.push_back(std::move(captures));
    }
    // Two captures tie for longest after dedupe; the raw-longest one
    // only wins by its duplicates.
    {
        std::vector<dg::KernelTrace> captures;
        for (std::uint64_t c = 0; c < 4; ++c)
            captures.push_back(jitteredTrace(980 + c));
        captures[0].records.erase(captures[0].records.begin() + 30);
        captures[0].records.erase(captures[0].records.begin() + 3);
        captures[1].records.erase(captures[1].records.begin() + 11);
        captures[2].records.erase(captures[2].records.begin() + 20);
        captures[2].records.insert(captures[2].records.begin() + 5,
                                   captures[2].records[5]);
        captures[3].records.resize(30);
        sets.push_back(std::move(captures));
    }

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const auto &captures : sets) {
        dtc::RepairReport report;
        const dg::KernelTrace out = dtc::repairTraces(captures, &report);
        EXPECT_EQ(out.kernelNames, sharedNames());
        for (const dg::KernelRecord &rec : out.records) {
            const auto phase = static_cast<int>(rec.phase);
            const auto klass = static_cast<int>(rec.klass);
            digest = fnv1a(digest, &rec.kernelId, sizeof rec.kernelId);
            digest = fnv1a(digest, &rec.tStart, sizeof rec.tStart);
            digest = fnv1a(digest, &rec.tEnd, sizeof rec.tEnd);
            digest = fnv1a(digest, &phase, sizeof phase);
            digest = fnv1a(digest, &klass, sizeof klass);
            digest = fnv1a(digest, &rec.layerIndex, sizeof rec.layerIndex);
        }
        const std::uint64_t fields[] = {report.captures,
                                        report.referenceRecords,
                                        report.duplicatesRemoved};
        digest = fnv1a(digest, fields, sizeof fields);
        digest = fnv1a(digest, &report.meanAlignedFraction,
                       sizeof report.meanAlignedFraction);
    }
    EXPECT_EQ(digest, kRepairDigest) << "0x" << std::hex << digest;
}
