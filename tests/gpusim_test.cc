/**
 * @file
 * Tests for the GPU kernel-trace simulator: catalogs, signatures,
 * trace structure (repetition, scaling, XLA, head pruning), generator
 * reuse across seeds and lanes, the shared kernel-name table, and
 * measurement-noise injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hh"
#include "fingerprint/boundary.hh"
#include "gpusim/catalog.hh"
#include "gpusim/kernel.hh"
#include "gpusim/noise.hh"
#include "gpusim/signature.hh"
#include "gpusim/trace_generator.hh"
#include "sched/sched.hh"
#include "trace/image.hh"
#include "trace/repair.hh"

namespace dg = decepticon::gpusim;

namespace {

/** The trace's Encoder-phase records (the generator's ground truth). */
std::vector<dg::KernelRecord>
encoderRecords(const dg::KernelTrace &t)
{
    std::vector<dg::KernelRecord> out;
    for (const auto &r : t.records)
        if (r.phase == dg::Phase::Encoder)
            out.push_back(r);
    return out;
}

dg::SoftwareSignature
pytorchSig(int dialect = 0)
{
    dg::SoftwareSignature sig;
    sig.framework = dg::Framework::PyTorch;
    sig.developer = dg::Developer::HuggingFace;
    sig.kernelDialect = dialect;
    return sig;
}

dg::SoftwareSignature
tfSig(bool xla = false)
{
    dg::SoftwareSignature sig;
    sig.framework = dg::Framework::TensorFlow;
    sig.developer = dg::Developer::Google;
    sig.useXla = xla;
    sig.kernelDialect = 1;
    return sig;
}

/** The catalog a TraceGenerator builds for @p sig. */
dg::KernelCatalog
catalogOf(const dg::SoftwareSignature &sig)
{
    return dg::KernelCatalog(sig, sig.seed());
}

dg::ArchParams
bertBase()
{
    dg::ArchParams arch;
    arch.numLayers = 12;
    arch.hidden = 768;
    arch.numHeads = 12;
    arch.seqLen = 128;
    return arch;
}

dg::ArchParams
bertLarge()
{
    dg::ArchParams arch;
    arch.numLayers = 24;
    arch.hidden = 1024;
    arch.numHeads = 16;
    arch.seqLen = 128;
    return arch;
}

/** Record-for-record, bit-for-bit equality of two traces. */
testing::AssertionResult
sameRecords(const dg::KernelTrace &a, const dg::KernelTrace &b)
{
    if (a.records.size() != b.records.size())
        return testing::AssertionFailure()
               << a.records.size() << " vs " << b.records.size()
               << " records";
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const dg::KernelRecord &x = a.records[i];
        const dg::KernelRecord &y = b.records[i];
        if (x.kernelId != y.kernelId || x.tStart != y.tStart ||
            x.tEnd != y.tEnd || x.phase != y.phase ||
            x.klass != y.klass || x.layerIndex != y.layerIndex)
            return testing::AssertionFailure() << "record " << i
                                               << " differs";
    }
    return testing::AssertionSuccess();
}

} // anonymous namespace

TEST(Signature, SeedStableAndDistinct)
{
    const auto a = pytorchSig(0);
    const auto b = pytorchSig(1);
    EXPECT_EQ(a.seed(), pytorchSig(0).seed());
    EXPECT_NE(a.seed(), b.seed());
    EXPECT_NE(a.seed(), tfSig().seed());
}

TEST(Signature, ToStringEncodesFields)
{
    const auto s = tfSig(true).toString();
    EXPECT_NE(s.find("tensorflow"), std::string::npos);
    EXPECT_NE(s.find("google"), std::string::npos);
    EXPECT_NE(s.find("xla1"), std::string::npos);
}

TEST(Signature, EnumNames)
{
    EXPECT_EQ(dg::toString(dg::Framework::PyTorch), "pytorch");
    EXPECT_EQ(dg::toString(dg::Framework::Mxnet), "mxnet");
    EXPECT_EQ(dg::toString(dg::Developer::Meta), "meta");
}

TEST(Catalog, TensorFlowFarLargerThanPyTorch)
{
    const dg::KernelCatalog pt = catalogOf(pytorchSig());
    const dg::KernelCatalog tf = catalogOf(tfSig());
    // Paper Fig. 9: TF releases expose ~40x more unique kernels.
    EXPECT_GT(tf.size(), 8 * pt.size());
    EXPECT_LT(pt.size(), 40u);
    EXPECT_GT(tf.size(), 150u);
}

TEST(Catalog, DeterministicForSignature)
{
    const dg::KernelCatalog a = catalogOf(pytorchSig(3));
    const dg::KernelCatalog b = catalogOf(pytorchSig(3));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.name(static_cast<int>(i)), b.name(static_cast<int>(i)));
}

TEST(Catalog, DialectsProduceDifferentCatalogs)
{
    const dg::KernelCatalog a = catalogOf(pytorchSig(1));
    const dg::KernelCatalog b = catalogOf(pytorchSig(2));
    std::set<std::string_view> na, nb;
    for (std::size_t i = 0; i < a.size(); ++i)
        na.insert(a.name(static_cast<int>(i)));
    for (std::size_t i = 0; i < b.size(); ++i)
        nb.insert(b.name(static_cast<int>(i)));
    EXPECT_NE(na, nb);
}

TEST(Catalog, HasAllCoreKernelClasses)
{
    const dg::KernelCatalog c = catalogOf(pytorchSig());
    EXPECT_FALSE(c.entriesOfClass(dg::KernelClass::Gemm).empty());
    EXPECT_FALSE(c.entriesOfClass(dg::KernelClass::AttnGemm).empty());
    EXPECT_FALSE(c.entriesOfClass(dg::KernelClass::Softmax).empty());
    EXPECT_FALSE(c.entriesOfClass(dg::KernelClass::LayerNorm).empty());
    EXPECT_FALSE(c.entriesOfClass(dg::KernelClass::Memory).empty());
}

TEST(Catalog, NvidiaUsesTensorCoreKernels)
{
    dg::SoftwareSignature sig;
    sig.developer = dg::Developer::Nvidia;
    sig.useTensorCores = true;
    const dg::KernelCatalog c = catalogOf(sig);
    bool has_fp16 = false;
    for (std::size_t i = 0; i < c.size(); ++i)
        has_fp16 |= c.name(static_cast<int>(i)).find("fp16") !=
                    std::string_view::npos;
    EXPECT_TRUE(has_fp16);
}

TEST(Catalog, MetaHasManyReductionKernels)
{
    dg::SoftwareSignature meta;
    meta.developer = dg::Developer::Meta;
    const dg::KernelCatalog cm = catalogOf(meta);
    const dg::KernelCatalog ch = catalogOf(pytorchSig());
    EXPECT_GT(cm.entriesOfClass(dg::KernelClass::Reduction).size(),
              ch.entriesOfClass(dg::KernelClass::Reduction).size());
}

TEST(TraceGenerator, EncoderRepetitionMatchesLayerCount)
{
    const dg::TraceGenerator gen(pytorchSig());
    const dg::KernelTrace trace = gen.generate(bertBase(), 1);
    // Encoder records should form exactly numLayers groups of the
    // template size.
    const auto enc = encoderRecords(trace);
    EXPECT_EQ(enc.size(), 12 * gen.groupSize());
    std::set<int> layer_ids;
    for (const auto &r : enc)
        layer_ids.insert(r.layerIndex);
    EXPECT_EQ(layer_ids.size(), 12u);
}

TEST(TraceGenerator, TimestampsMonotone)
{
    const dg::TraceGenerator gen(pytorchSig());
    const dg::KernelTrace trace = gen.generate(bertBase(), 2);
    double prev_end = 0.0;
    for (const auto &r : trace.records) {
        EXPECT_GE(r.tStart, prev_end);
        EXPECT_GT(r.tEnd, r.tStart);
        prev_end = r.tEnd;
    }
}

TEST(TraceGenerator, SameSeedSameTrace)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto a = gen.generate(bertBase(), 7);
    const auto b = gen.generate(bertBase(), 7);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].kernelId, b.records[i].kernelId);
        EXPECT_DOUBLE_EQ(a.records[i].tStart, b.records[i].tStart);
    }
}

TEST(TraceGenerator, DifferentRunSeedsJitterOnly)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto a = gen.generate(bertBase(), 1);
    const auto b = gen.generate(bertBase(), 2);
    // Same kernel schedule (fingerprint is inherited) ...
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i)
        EXPECT_EQ(a.records[i].kernelId, b.records[i].kernelId);
    // ... but different timings.
    bool timing_differs = false;
    for (std::size_t i = 0; i < a.records.size(); ++i)
        timing_differs |= a.records[i].tEnd != b.records[i].tEnd;
    EXPECT_TRUE(timing_differs);
}

TEST(TraceGenerator, PeakDurationScalesWithHiddenSize)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto base = gen.generate(bertBase(), 3);
    const auto large = gen.generate(bertLarge(), 3);
    // Paper Fig. 10: BERT-large's peak kernel is longer (1024 vs 768
    // hidden states).
    EXPECT_GT(large.peakDuration(), 1.3 * base.peakDuration());
}

TEST(TraceGenerator, TensorFlowRunsManyMoreKernels)
{
    const dg::TraceGenerator pt(pytorchSig());
    const dg::TraceGenerator tf(tfSig());
    const auto a = pt.generate(bertBase(), 4);
    const auto b = tf.generate(bertBase(), 4);
    EXPECT_GT(b.records.size(), 3 * a.records.size());
    EXPECT_GT(b.uniqueKernelCount(), 4 * a.uniqueKernelCount());
}

TEST(TraceGenerator, XlaInsertsIrregularRegion)
{
    const dg::TraceGenerator gen(tfSig(true));
    const auto trace = gen.generate(bertLarge(), 5);
    std::size_t xla_records = 0;
    for (const auto &r : trace.records)
        xla_records += r.phase == dg::Phase::XlaRegion ? 1 : 0;
    EXPECT_GT(xla_records, 10u);
    // The burst sits strictly inside the encoder region.
    std::size_t first_enc = trace.records.size(), first_xla = 0,
                last_enc = 0;
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        if (trace.records[i].phase == dg::Phase::Encoder) {
            first_enc = std::min(first_enc, i);
            last_enc = i;
        } else if (trace.records[i].phase == dg::Phase::XlaRegion &&
                   first_xla == 0) {
            first_xla = i;
        }
    }
    EXPECT_GT(first_xla, first_enc);
    EXPECT_LT(first_xla, last_enc);
}

TEST(TraceGenerator, NoXlaRegionWithoutXla)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(bertBase(), 6);
    for (const auto &r : trace.records)
        EXPECT_NE(r.phase, dg::Phase::XlaRegion);
}

TEST(TraceGenerator, HeadPruningShortensShortKernels)
{
    const dg::TraceGenerator gen(pytorchSig());
    dg::ArchParams dense = bertBase();
    dg::ArchParams pruned = dense;
    pruned.prunedHeads = 6;

    auto short_mean = [](const dg::KernelTrace &t) {
        double s = 0.0;
        std::size_t n = 0;
        for (const auto &r : t.records) {
            if (r.klass == dg::KernelClass::Softmax ||
                r.klass == dg::KernelClass::AttnGemm) {
                s += r.duration();
                ++n;
            }
        }
        return s / static_cast<double>(n);
    };
    const double d = short_mean(gen.generate(dense, 7));
    const double p = short_mean(gen.generate(pruned, 7));
    EXPECT_LT(p, 0.8 * d);
}

TEST(TraceGenerator, GemmDurationsUnaffectedByPruning)
{
    const dg::TraceGenerator gen(pytorchSig());
    dg::ArchParams dense = bertBase();
    dg::ArchParams pruned = dense;
    pruned.prunedHeads = 6;
    const auto a = gen.generate(dense, 8);
    const auto b = gen.generate(pruned, 8);
    // FFN GEMMs do not depend on head count: peak (an FFN GEMM)
    // unchanged.
    EXPECT_NEAR(a.peakDuration(), b.peakDuration(),
                0.05 * a.peakDuration());
}

TEST(TraceGenerator, EpiloguePresent)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(bertBase(), 9);
    EXPECT_EQ(trace.records.back().phase, dg::Phase::OutputLayer);
    EXPECT_EQ(trace.records.front().phase, dg::Phase::Prologue);
}

TEST(KernelTrace, HelperAccessors)
{
    dg::KernelTrace t;
    auto names = std::make_shared<dg::KernelNameTable>();
    names->push({"a"});
    names->push({"b"});
    t.kernelNames = std::move(names);
    t.records.push_back({0, 0.0, 2.0, dg::Phase::Encoder,
                         dg::KernelClass::Gemm, 0});
    t.records.push_back({1, 3.0, 4.0, dg::Phase::Encoder,
                         dg::KernelClass::Softmax, 0});
    t.records.push_back({0, 5.0, 9.0, dg::Phase::OutputLayer,
                         dg::KernelClass::Gemm, -1});
    EXPECT_DOUBLE_EQ(t.totalTime(), 9.0);
    EXPECT_DOUBLE_EQ(t.peakDuration(), 4.0);
    EXPECT_EQ(t.uniqueKernelCount(), 2u);
    EXPECT_EQ(encoderRecords(t).size(), 2u);
    EXPECT_EQ(t.kernelIdSequence(), (std::vector<int>{0, 1, 0}));
    EXPECT_EQ(t.durations(), (std::vector<double>{2.0, 1.0, 4.0}));
}

TEST(KernelTrace, UniqueKernelCountIgnoresRepeatsAndGaps)
{
    dg::KernelTrace t;
    auto names = std::make_shared<dg::KernelNameTable>();
    for (int k = 0; k < 41; ++k)
        names->push({"k"});
    t.kernelNames = std::move(names);
    double clock = 0.0;
    for (int id : {7, 2, 7, 40, 2, 2, 0, 40, 7}) {
        t.records.push_back({id, clock, clock + 1.0, dg::Phase::Encoder,
                             dg::KernelClass::Elementwise, 0});
        clock += 2.0;
    }
    EXPECT_EQ(t.uniqueKernelCount(), 4u); // {0, 2, 7, 40}
    EXPECT_EQ(dg::KernelTrace{}.uniqueKernelCount(), 0u);
}

TEST(KernelCatalog, ClassPoolsPartitionTheCatalog)
{
    for (const auto &sig : {pytorchSig(), tfSig(true)}) {
        const dg::KernelCatalog c = catalogOf(sig);
        std::size_t total = 0;
        for (int k = 0; k <= static_cast<int>(dg::KernelClass::Fusion);
             ++k) {
            const auto klass = static_cast<dg::KernelClass>(k);
            const std::span<const int> pool = c.entriesOfClass(klass);
            total += pool.size();
            for (std::size_t i = 0; i < pool.size(); ++i) {
                EXPECT_EQ(c.klass(pool[i]), klass);
                if (i > 0) {
                    EXPECT_LT(pool[i - 1], pool[i]); // catalog order
                }
            }
            // Built once: every call hands back the same pool.
            EXPECT_EQ(c.entriesOfClass(klass).data(), pool.data());
        }
        EXPECT_EQ(total, c.size());
    }
}

TEST(TraceGenerator, ReusedAcrossSeedsAndLanesMatchesFreshPerSeed)
{
    struct LaneGuard
    {
        ~LaneGuard() { decepticon::sched::setThreads(0); }
    } guard;
    decepticon::sched::setThreads(2);

    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 16; ++i)
        seeds.push_back(1000 + 7919 * i);
    for (const auto &sig : {pytorchSig(), tfSig(true)}) {
        const dg::TraceGenerator shared(sig);
        std::vector<dg::KernelTrace> got(seeds.size());
        decepticon::sched::parallelFor(seeds.size(), 1, [&](std::size_t i) {
            got[i] = shared.generate(bertBase(), seeds[i]);
        });
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            const dg::TraceGenerator fresh(sig);
            const dg::KernelTrace want = fresh.generate(bertBase(), seeds[i]);
            EXPECT_TRUE(sameRecords(got[i], want)) << "seed " << seeds[i];
            EXPECT_EQ(*got[i].kernelNames, *want.kernelNames);
            EXPECT_EQ(got[i].kernelNames, got[0].kernelNames); // shared
        }
    }
}

TEST(TraceGenerator, NameTableSharedThroughFaultRepairAndCrop)
{
    const dg::TraceGenerator gen(tfSig());
    const dg::KernelTrace truth = gen.generate(bertBase(), 11);
    ASSERT_NE(truth.kernelNames, nullptr);
    const dg::KernelNameTable *table = truth.kernelNames.get();
    EXPECT_EQ(gen.generate(bertLarge(), 12).kernelNames.get(), table);

    decepticon::fault::FaultSpec fs;
    fs.recordDropRate = 0.2;
    fs.recordDuplicateRate = 0.1;
    fs.truncateProbability = 0.3;
    fs.seed = 5;
    decepticon::fault::FaultInjector injector(fs);
    std::vector<dg::KernelTrace> captures;
    for (std::uint64_t c = 0; c < 3; ++c) {
        captures.push_back(injector.corruptTrace(truth, 100 + c));
        EXPECT_EQ(captures.back().kernelNames.get(), table);
    }
    const dg::KernelTrace repaired =
        decepticon::trace::repairTraces(captures);
    EXPECT_EQ(repaired.kernelNames.get(), table);
    EXPECT_EQ(decepticon::trace::cropRecords(repaired, 0,
                                             repaired.records.size() / 2)
                  .kernelNames.get(),
              table);
    EXPECT_EQ(decepticon::fingerprint::cropToEncoderRegion(repaired)
                  .kernelNames.get(),
              table);
}

namespace {

/** The plain definition the bitmap count must reproduce. */
std::size_t
sortUniqueCount(const dg::KernelTrace &t)
{
    std::vector<int> ids = t.kernelIdSequence();
    std::sort(ids.begin(), ids.end());
    return static_cast<std::size_t>(
        std::unique(ids.begin(), ids.end()) - ids.begin());
}

} // anonymous namespace

TEST(KernelTrace, UniqueKernelCountMatchesSortUniqueOnEveryFramework)
{
    dg::SoftwareSignature mxnet;
    mxnet.framework = dg::Framework::Mxnet;
    mxnet.developer = dg::Developer::Amazon;
    mxnet.kernelDialect = 2;
    for (const auto &sig : {pytorchSig(), tfSig(), mxnet, tfSig(true)}) {
        const dg::TraceGenerator gen(sig);
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            const dg::KernelTrace t =
                gen.generate(seed % 2 == 0 ? bertBase() : bertLarge(),
                             seed);
            ASSERT_NE(t.kernelNames, nullptr);
            EXPECT_GT(t.uniqueKernelCount(), 1u);
            EXPECT_EQ(t.uniqueKernelCount(), sortUniqueCount(t))
                << sig.toString() << " seed " << seed;
        }
    }
}

TEST(KernelTrace, UniqueKernelCountMatchesSortUniqueOnRepairedAndCropped)
{
    const dg::TraceGenerator gen(tfSig(true));
    const dg::KernelTrace truth = gen.generate(bertBase(), 21);
    decepticon::fault::FaultSpec fs;
    fs.recordDropRate = 0.3;
    fs.recordDuplicateRate = 0.2;
    fs.truncateProbability = 0.5;
    fs.seed = 9;
    decepticon::fault::FaultInjector injector(fs);
    std::vector<dg::KernelTrace> captures;
    for (std::uint64_t c = 0; c < 3; ++c) {
        captures.push_back(injector.corruptTrace(truth, 200 + c));
        EXPECT_EQ(captures.back().uniqueKernelCount(),
                  sortUniqueCount(captures.back()));
    }
    const dg::KernelTrace repaired =
        decepticon::trace::repairTraces(captures);
    EXPECT_EQ(repaired.uniqueKernelCount(), sortUniqueCount(repaired));
    const dg::KernelTrace cropped = decepticon::trace::cropRecords(
        repaired, repaired.records.size() / 4,
        repaired.records.size() / 2);
    EXPECT_EQ(cropped.uniqueKernelCount(), sortUniqueCount(cropped));
    const dg::KernelTrace encoder =
        decepticon::fingerprint::cropToEncoderRegion(repaired);
    EXPECT_EQ(encoder.uniqueKernelCount(), sortUniqueCount(encoder));
}

TEST(KernelTrace, UniqueKernelCountFallsBackWithoutAUsableTable)
{
    const dg::KernelTrace generated =
        dg::TraceGenerator(pytorchSig()).generate(bertBase(), 5);
    const std::size_t expected = sortUniqueCount(generated);

    dg::KernelTrace no_table = generated;
    no_table.kernelNames.reset();
    EXPECT_EQ(no_table.uniqueKernelCount(), expected);

    // An id past the table's end, or a negative one, takes the sort and
    // counts it as one more distinct id — no assert, no out-of-bounds
    // write.
    const int table = static_cast<int>(generated.kernelNames->size());
    for (int bad : {table, table + 1000, -1, -7}) {
        dg::KernelTrace t = generated;
        t.records.push_back(t.records.back());
        t.records.back().kernelId = bad;
        EXPECT_EQ(t.uniqueKernelCount(), expected + 1) << "id " << bad;
        EXPECT_EQ(t.uniqueKernelCount(), sortUniqueCount(t));
    }
}

TEST(Noise, PerturbsRequestedKernelCount)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(bertBase(), 10);
    const auto noisy = dg::applyTimingNoise(trace, 16, 20.0, 99);
    ASSERT_EQ(noisy.records.size(), trace.records.size());
    std::size_t changed = 0;
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const double d0 = trace.records[i].duration();
        const double d1 = noisy.records[i].duration();
        if (std::abs(d0 - d1) > 1e-9)
            ++changed;
    }
    EXPECT_EQ(changed, 16u);
}

TEST(Noise, MagnitudeApplied)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(bertBase(), 11);
    const auto noisy = dg::applyTimingNoise(trace, 8, 20.0, 5);
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const double delta = std::abs(noisy.records[i].duration() -
                                      trace.records[i].duration());
        if (delta > 1e-9) {
            // Either +/-20us exactly, or clamped at the 0.5us floor.
            const bool exact = std::abs(delta - 20.0) < 1e-6;
            const bool clamped =
                noisy.records[i].duration() == 0.5;
            EXPECT_TRUE(exact || clamped);
        }
    }
}

TEST(Noise, ZeroKernelsIsIdentity)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(bertBase(), 12);
    const auto same = dg::applyTimingNoise(trace, 0, 20.0, 5);
    for (std::size_t i = 0; i < trace.records.size(); ++i)
        EXPECT_DOUBLE_EQ(same.records[i].tEnd, trace.records[i].tEnd);
}

TEST(Noise, EmptyTraceIsNoOp)
{
    const dg::KernelTrace empty;
    const auto out = dg::applyTimingNoise(empty, 8, 20.0, 5);
    EXPECT_TRUE(out.records.empty());
}

TEST(Noise, ZeroMagnitudeIsIdentity)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(bertBase(), 12);
    const auto same = dg::applyTimingNoise(trace, 16, 0.0, 5);
    ASSERT_EQ(same.records.size(), trace.records.size());
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(same.records[i].tStart,
                         trace.records[i].tStart);
        EXPECT_DOUBLE_EQ(same.records[i].tEnd, trace.records[i].tEnd);
    }
}

TEST(Noise, OversizedKernelCountIsClamped)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(bertBase(), 12);
    // Asking for far more kernels than the trace holds perturbs every
    // record once and must not crash or grow the trace.
    const auto noisy = dg::applyTimingNoise(
        trace, trace.records.size() * 10, 20.0, 7);
    ASSERT_EQ(noisy.records.size(), trace.records.size());
    std::size_t changed = 0;
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        if (std::abs(noisy.records[i].duration() -
                     trace.records[i].duration()) > 1e-9)
            ++changed;
    }
    EXPECT_EQ(changed, trace.records.size());
}

TEST(Noise, KeepsTimestampsConsistent)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(bertBase(), 13);
    const auto noisy = dg::applyTimingNoise(trace, 32, 45.0, 17);
    double prev_end = 0.0;
    for (const auto &r : noisy.records) {
        EXPECT_GE(r.tStart, prev_end - 1e-9);
        EXPECT_GT(r.tEnd, r.tStart);
        prev_end = r.tEnd;
    }
}

/** Every (framework, developer) pair produces a usable generator. */
class SignatureSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SignatureSweep, GeneratesStructuredTrace)
{
    const auto [f, d] = GetParam();
    dg::SoftwareSignature sig;
    sig.framework = static_cast<dg::Framework>(f);
    sig.developer = static_cast<dg::Developer>(d);
    sig.kernelDialect = f * 10 + d;
    const dg::TraceGenerator gen(sig);
    dg::ArchParams arch = bertBase();
    arch.numLayers = 4;
    const auto trace = gen.generate(arch, 1);
    EXPECT_EQ(encoderRecords(trace).size(), 4 * gen.groupSize());
    EXPECT_GT(trace.totalTime(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSources, SignatureSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 1, 2, 3,
                                                              4, 5)));

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

/**
 * FNV-1a digest of TraceGenerator output: PyTorch, TF with XLA, MXNet
 * and Meta releases, dense and head-pruned architectures, through
 * generate() and generateDefended() at strengths 0, 0.3 and 1.0.
 * Covers every record field and the kernel-name table. Pinned across
 * commits: a generator rewrite must reproduce every bit.
 */
constexpr std::uint64_t kGeneratorDigest = 0x2ecb674774e51aadULL;

} // anonymous namespace

TEST(TraceGenerator, TraceDigestPinnedAcrossCommits)
{
    dg::SoftwareSignature mxnet;
    mxnet.framework = dg::Framework::Mxnet;
    mxnet.developer = dg::Developer::Amazon;
    mxnet.kernelDialect = 2;
    dg::SoftwareSignature meta;
    meta.developer = dg::Developer::Meta;
    meta.fusionLevel = 1;
    meta.kernelDialect = 4;
    dg::ArchParams pruned = bertBase();
    pruned.prunedHeads = 4;
    pruned.numLayers = 6;

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    auto absorb = [&](const dg::KernelTrace &t) {
        ASSERT_NE(t.kernelNames, nullptr);
        const dg::KernelNameTable &names = *t.kernelNames;
        for (std::size_t i = 0; i < names.size(); ++i)
            digest = fnv1a(digest, names[i].data(), names[i].size() + 1);
        for (const dg::KernelRecord &rec : t.records) {
            const auto phase = static_cast<int>(rec.phase);
            const auto klass = static_cast<int>(rec.klass);
            digest = fnv1a(digest, &rec.kernelId, sizeof rec.kernelId);
            digest = fnv1a(digest, &rec.tStart, sizeof rec.tStart);
            digest = fnv1a(digest, &rec.tEnd, sizeof rec.tEnd);
            digest = fnv1a(digest, &phase, sizeof phase);
            digest = fnv1a(digest, &klass, sizeof klass);
            digest = fnv1a(digest, &rec.layerIndex, sizeof rec.layerIndex);
        }
    };
    for (const auto &sig : {pytorchSig(), tfSig(true), mxnet, meta}) {
        const dg::TraceGenerator gen(sig);
        std::uint64_t seed = 0x5eed;
        for (const auto &arch : {bertBase(), bertLarge(), pruned}) {
            absorb(gen.generate(arch, ++seed));
            for (double strength : {0.0, 0.3, 1.0})
                absorb(gen.generateDefended(arch, ++seed, strength));
        }
    }
    EXPECT_EQ(digest, kGeneratorDigest) << "0x" << std::hex << digest;
}
