/**
 * @file
 * Tests for the fingerprint library: layer-boundary detection, dataset
 * construction, the CNN extractor, and the DeepSniffer LER baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fingerprint/boundary.hh"
#include "fingerprint/cnn.hh"
#include "fingerprint/dataset.hh"
#include "fingerprint/seq_predictor.hh"
#include "gpusim/noise.hh"
#include "gpusim/trace_generator.hh"
#include "zoo/zoo.hh"

namespace df = decepticon::fingerprint;
namespace dg = decepticon::gpusim;
namespace dz = decepticon::zoo;

namespace {

dg::SoftwareSignature
pytorchSig(int dialect = 0)
{
    dg::SoftwareSignature sig;
    sig.kernelDialect = dialect;
    return sig;
}

dg::ArchParams
arch(std::size_t layers, std::size_t hidden)
{
    dg::ArchParams a;
    a.numLayers = layers;
    a.hidden = hidden;
    a.numHeads = std::max<std::size_t>(2, hidden / 64);
    a.seqLen = 128;
    return a;
}

} // anonymous namespace

TEST(Boundary, DetectsBertBaseLayerCount)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(arch(12, 768), 1);
    const auto res = df::detectLayerBoundaries(trace);
    ASSERT_TRUE(res.found());
    EXPECT_EQ(res.repetitions, 12u);
    EXPECT_EQ(res.period, gen.groupSize());
}

TEST(Boundary, DetectsBertLargeLayerCount)
{
    const dg::TraceGenerator gen(pytorchSig(1));
    const auto trace = gen.generate(arch(24, 1024), 2);
    const auto res = df::detectLayerBoundaries(trace);
    ASSERT_TRUE(res.found());
    EXPECT_EQ(res.repetitions, 24u);
}

TEST(Boundary, PeakDurationOrdersBaseBelowLarge)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto base = df::detectLayerBoundaries(gen.generate(
        arch(12, 768), 3));
    const auto large = df::detectLayerBoundaries(gen.generate(
        arch(24, 1024), 3));
    // Paper Fig. 10: layer size read from the peak kernel duration.
    EXPECT_GT(large.peakDurationUs, base.peakDurationUs);
}

TEST(Boundary, HandlesXlaTraceBySummingRegions)
{
    dg::SoftwareSignature sig;
    sig.framework = dg::Framework::TensorFlow;
    sig.developer = dg::Developer::Google;
    sig.useXla = true;
    const dg::TraceGenerator gen(sig);
    const auto trace = gen.generate(arch(24, 1024), 4);
    const auto res = df::detectLayerBoundaries(trace);
    ASSERT_TRUE(res.found());
    // Both encoder regions found around the XLA burst (Fig. 12).
    EXPECT_GE(res.regions.size(), 2u);
    EXPECT_EQ(res.repetitions, 24u);
}

TEST(Boundary, NoPeriodicityInRandomTrace)
{
    dg::KernelTrace t;
    auto names = std::make_shared<dg::KernelNameTable>();
    for (int k = 0; k < 64; ++k)
        names->push({"k"});
    t.kernelNames = std::move(names);
    double time = 0.0;
    decepticon::util::Rng rng(5);
    for (int i = 0; i < 40; ++i) {
        dg::KernelRecord r;
        // All-distinct kernel ids: no period can self-match.
        r.kernelId = i % 64;
        r.tStart = time;
        r.tEnd = time + 1.0 + rng.uniform();
        time = r.tEnd + 1.0;
        t.records.push_back(r);
    }
    const auto res = df::detectLayerBoundaries(t);
    EXPECT_FALSE(res.found());
}

TEST(Boundary, CropKeepsOnlyPeriodicRegion)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(arch(8, 512), 6);
    const auto cropped = df::cropToEncoderRegion(trace);
    EXPECT_LE(cropped.records.size(), trace.records.size());
    const auto encoder = std::count_if(
        trace.records.begin(), trace.records.end(),
        [](const dg::KernelRecord &r) {
            return r.phase == dg::Phase::Encoder;
        });
    EXPECT_GT(cropped.records.size(),
              static_cast<std::size_t>(encoder) * 8 / 10);
    EXPECT_DOUBLE_EQ(cropped.records.front().tStart, 0.0);
}

TEST(Boundary, RegionsAndCoverageConsistent)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(arch(12, 768), 7);
    const auto res = df::detectLayerBoundaries(trace);
    ASSERT_TRUE(res.found());

    // Regions are non-empty, in-bounds, ordered, and their record
    // count reproduces the reported coverage fraction.
    ASSERT_FALSE(res.regions.empty());
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (const auto &[begin, end] : res.regions) {
        EXPECT_LT(begin, end);
        EXPECT_LE(end, trace.records.size());
        EXPECT_GE(begin, prev_end);
        covered += end - begin;
        prev_end = end;
    }
    EXPECT_DOUBLE_EQ(res.coverage,
                     static_cast<double>(covered) /
                         static_cast<double>(trace.records.size()));
    EXPECT_GT(res.coverage, 0.5); // encoders dominate a BERT trace
    EXPECT_LE(res.coverage, 1.0);
}

TEST(Boundary, FoundRequiresAtLeastTwoRepetitions)
{
    // A default-constructed result is not a detection; neither is a
    // period with a single repetition (one "layer" is no periodicity).
    df::BoundaryResult res;
    EXPECT_FALSE(res.found());
    res.period = 5;
    res.repetitions = 1;
    EXPECT_FALSE(res.found());
    res.repetitions = 2;
    EXPECT_TRUE(res.found());
}

TEST(Boundary, CropIsIdentityWithoutPeriodicity)
{
    // The random, never-repeating trace from NoPeriodicityInRandomTrace:
    // cropToEncoderRegion must pass it through unchanged.
    dg::KernelTrace t;
    auto names = std::make_shared<dg::KernelNameTable>();
    for (int k = 0; k < 64; ++k)
        names->push({"k"});
    t.kernelNames = std::move(names);
    double time = 0.0;
    decepticon::util::Rng rng(5);
    for (int i = 0; i < 40; ++i) {
        dg::KernelRecord r;
        r.kernelId = i % 64;
        r.tStart = time;
        r.tEnd = time + 1.0 + rng.uniform();
        time = r.tEnd + 1.0;
        t.records.push_back(r);
    }
    const auto cropped = df::cropToEncoderRegion(t);
    ASSERT_EQ(cropped.records.size(), t.records.size());
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        EXPECT_EQ(cropped.records[i].kernelId, t.records[i].kernelId);
        EXPECT_DOUBLE_EQ(cropped.records[i].tStart, t.records[i].tStart);
    }
}

TEST(Boundary, EmptyTraceYieldsNoDetection)
{
    const dg::KernelTrace empty;
    const auto res = df::detectLayerBoundaries(empty);
    EXPECT_FALSE(res.found());
    EXPECT_EQ(res.repetitions, 0u);
    EXPECT_TRUE(res.regions.empty());
    EXPECT_DOUBLE_EQ(res.coverage, 0.0);
    const auto cropped = df::cropToEncoderRegion(empty);
    EXPECT_TRUE(cropped.records.empty());
}

TEST(Dataset, BuildLabelsByLineage)
{
    const auto zoo = dz::ModelZoo::buildDefault(1, 4, 8);
    df::DatasetOptions opts;
    opts.imagesPerModel = 2;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    EXPECT_EQ(ds.classNames.size(), 4u);
    EXPECT_EQ(ds.samples.size(), (4u + 8u) * 2u);
    for (const auto &s : ds.samples) {
        EXPECT_GE(s.label, 0);
        EXPECT_LT(s.label, 4);
        EXPECT_EQ(s.image.dim(0), 32u);
    }
}

TEST(Dataset, LineageLimitRestrictsClasses)
{
    const auto zoo = dz::ModelZoo::buildDefault(2, 6, 12);
    df::DatasetOptions opts;
    opts.imagesPerModel = 1;
    opts.resolution = 32;
    opts.lineageLimit = 3;
    const auto ds = df::buildDataset(zoo, opts);
    EXPECT_EQ(ds.classNames.size(), 3u);
    for (const auto &s : ds.samples)
        EXPECT_LT(s.label, 3);
}

TEST(Dataset, SplitPreservesSamplesAndClassNames)
{
    const auto zoo = dz::ModelZoo::buildDefault(3, 4, 4);
    df::DatasetOptions opts;
    opts.imagesPerModel = 3;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    const auto [train, test] = ds.split(0.75, 9);
    EXPECT_EQ(train.samples.size() + test.samples.size(),
              ds.samples.size());
    EXPECT_EQ(train.classNames, ds.classNames);
    EXPECT_EQ(train.samples.size(), ds.samples.size() * 3 / 4);
}

TEST(Dataset, FingerprintImageDeterministic)
{
    const auto zoo = dz::ModelZoo::buildDefault(4, 2, 0);
    const auto &m = zoo.models().front();
    const auto a = df::fingerprintImage(m, 32, 7);
    const auto b = df::fingerprintImage(m, 32, 7);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(Cnn, ShapesAndDeterminism)
{
    df::FingerprintCnn cnn(32, 5, 1);
    decepticon::tensor::Tensor img({32, 32}, 0.1f);
    const auto probs = cnn.classProbabilities(img);
    ASSERT_EQ(probs.size(), 5u);
    double s = 0.0;
    for (double p : probs)
        s += p;
    EXPECT_NEAR(s, 1.0, 1e-5);
    EXPECT_EQ(cnn.predict(img), cnn.predict(img));
}

TEST(Cnn, TopKOrderedByProbability)
{
    df::FingerprintCnn cnn(32, 6, 2);
    decepticon::tensor::Tensor img({32, 32}, 0.3f);
    const auto probs = cnn.classProbabilities(img);
    const auto top = cnn.topK(img, 3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_GE(probs[static_cast<std::size_t>(top[0])],
              probs[static_cast<std::size_t>(top[1])]);
    EXPECT_GE(probs[static_cast<std::size_t>(top[1])],
              probs[static_cast<std::size_t>(top[2])]);
}

TEST(Cnn, LearnsToSeparateLineages)
{
    // Small but real end-to-end CNN training on zoo fingerprints.
    const auto zoo = dz::ModelZoo::buildDefault(5, 5, 10);
    df::DatasetOptions opts;
    opts.imagesPerModel = 4;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    const auto [train, test] = ds.split(0.8, 11);

    df::FingerprintCnn cnn(32, ds.numClasses(), 3);
    df::CnnTrainOptions topts; // defaults: 30 epochs, lr 2e-3
    cnn.train(train, topts);
    const double acc = cnn.evaluate(test);
    EXPECT_GT(acc, 0.7) << "CNN should identify lineages well above "
                           "chance (" << 1.0 / ds.numClasses() << ")";
}

TEST(SeqPredictor, GroundTruthFiltersNoise)
{
    const dg::TraceGenerator gen(pytorchSig());
    const auto trace = gen.generate(arch(4, 256), 1);
    const auto truth = df::groundTruthOpSequence(trace);
    EXPECT_FALSE(truth.empty());
    EXPECT_LT(truth.size(), trace.records.size());
    for (int op : truth)
        EXPECT_NE(op, static_cast<int>(df::LayerOp::NoOp));
}

TEST(SeqPredictor, InSourceLerIsLow)
{
    // Train on several dialects from one source, test on another
    // dialect of the same source.
    std::vector<dg::KernelTrace> train_traces;
    for (int d = 0; d < 4; ++d) {
        const dg::TraceGenerator gen(pytorchSig(d));
        train_traces.push_back(gen.generate(arch(12, 768), 1));
    }
    df::KernelSequencePredictor pred;
    pred.train(train_traces);

    const dg::TraceGenerator victim_gen(pytorchSig(9));
    const auto victim = victim_gen.generate(arch(12, 768), 2);
    // Paper Table 2: a new release of the same stack costs some LER
    // (0.567 for "DeepSniffer PyTorch Model") but stays usable,
    // unlike foreign stacks (LER > 1).
    EXPECT_LT(pred.layerErrorRate(victim), 0.6);
}

TEST(SeqPredictor, CrossFrameworkLerCollapses)
{
    std::vector<dg::KernelTrace> train_traces;
    for (int d = 0; d < 4; ++d) {
        const dg::TraceGenerator gen(pytorchSig(d));
        train_traces.push_back(gen.generate(arch(12, 768), 1));
    }
    df::KernelSequencePredictor pred;
    pred.train(train_traces);

    dg::SoftwareSignature tf;
    tf.framework = dg::Framework::TensorFlow;
    tf.developer = dg::Developer::Google;
    tf.kernelDialect = 20;
    const auto victim =
        dg::TraceGenerator(tf).generate(arch(12, 768), 3);
    // Paper Table 2: cross-source LER far beyond usable (> 1).
    EXPECT_GT(pred.layerErrorRate(victim), 1.0);
}

TEST(SeqPredictor, PerfectOnTrainingTrace)
{
    const dg::TraceGenerator gen(pytorchSig(5));
    const auto trace = gen.generate(arch(6, 512), 1);
    df::KernelSequencePredictor pred;
    pred.train({trace});
    EXPECT_DOUBLE_EQ(pred.layerErrorRate(trace), 0.0);
}

TEST(SeqPredictor, TrainingIsOrderAndRunDeterministic)
{
    // Regression for the decepticon-lint R3 sweep: the majority-vote
    // tally used to iterate an unordered_map, so the vote-resolution
    // order depended on the hash layout. The tally is an ordered map
    // now — training on the same profile runs, in any presentation
    // order, must yield bit-identical predictions.
    std::vector<dg::KernelTrace> traces;
    for (int d = 0; d < 4; ++d) {
        const dg::TraceGenerator gen(pytorchSig(d));
        traces.push_back(gen.generate(arch(12, 768), 1));
    }
    const auto victim =
        dg::TraceGenerator(pytorchSig(9)).generate(arch(12, 768), 2);

    df::KernelSequencePredictor forward;
    forward.train(traces);
    const auto expected = forward.predict(victim);

    std::vector<dg::KernelTrace> reversed(traces.rbegin(),
                                          traces.rend());
    df::KernelSequencePredictor backward;
    backward.train(reversed);
    EXPECT_EQ(backward.predict(victim), expected)
        << "prediction depends on training presentation order";

    df::KernelSequencePredictor again;
    again.train(traces);
    EXPECT_EQ(again.predict(victim), expected)
        << "repeat training run diverged";
}

TEST(SeqPredictor, VocabularyGrowsWithTrainingSources)
{
    df::KernelSequencePredictor pred;
    EXPECT_EQ(pred.vocabularySize(), 0u);

    const dg::TraceGenerator gen(pytorchSig(5));
    pred.train({gen.generate(arch(6, 512), 1)});
    const std::size_t one_source = pred.vocabularySize();
    EXPECT_GT(one_source, 0u);

    // A second dialect brings kernel names the first never used.
    std::vector<dg::KernelTrace> both = {
        gen.generate(arch(6, 512), 1),
        dg::TraceGenerator(pytorchSig(11)).generate(arch(6, 512), 2)};
    df::KernelSequencePredictor wide;
    wide.train(both);
    EXPECT_GT(wide.vocabularySize(), one_source);
}

TEST(SeqPredictor, EmptyTraceHandledGracefully)
{
    const dg::TraceGenerator gen(pytorchSig(5));
    df::KernelSequencePredictor pred;
    pred.train({gen.generate(arch(4, 256), 1)});

    const dg::KernelTrace empty;
    EXPECT_TRUE(pred.predict(empty).empty());
    EXPECT_TRUE(df::groundTruthOpSequence(empty).empty());
}

TEST(SeqPredictor, UnseenKernelsDecodeDeterministically)
{
    // Out-of-distribution kernel names decode to noise — but to the
    // SAME noise every time (a hash of the name, not randomness), so
    // cross-source LER measurements are reproducible.
    std::vector<dg::KernelTrace> train_traces;
    for (int d = 0; d < 3; ++d) {
        const dg::TraceGenerator gen(pytorchSig(d));
        train_traces.push_back(gen.generate(arch(6, 512), 1));
    }
    df::KernelSequencePredictor pred;
    pred.train(train_traces);

    dg::SoftwareSignature tf;
    tf.framework = dg::Framework::TensorFlow;
    tf.developer = dg::Developer::Google;
    tf.kernelDialect = 33;
    const auto victim =
        dg::TraceGenerator(tf).generate(arch(6, 512), 9);
    const auto first = pred.predict(victim);
    const auto second = pred.predict(victim);
    EXPECT_EQ(first, second);
    EXPECT_DOUBLE_EQ(pred.layerErrorRate(victim),
                     pred.layerErrorRate(victim));
}

/** Boundary detection sweep over layer counts and sizes. */
class BoundarySweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(BoundarySweep, RepetitionsEqualLayerCount)
{
    const auto [layers, hidden] = GetParam();
    const dg::TraceGenerator gen(pytorchSig(layers));
    const auto trace = gen.generate(
        arch(static_cast<std::size_t>(layers),
             static_cast<std::size_t>(hidden)), 11);
    const auto res = df::detectLayerBoundaries(trace);
    ASSERT_TRUE(res.found());
    EXPECT_EQ(res.repetitions, static_cast<std::size_t>(layers));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BoundarySweep,
    ::testing::Combine(::testing::Values(2, 4, 6, 12, 24),
                       ::testing::Values(384, 768)));

#include "fingerprint/metrics.hh"

TEST(Metrics, ConfusionMatrixBasics)
{
    const auto zoo = dz::ModelZoo::buildDefault(9, 3, 3);
    df::DatasetOptions opts;
    opts.imagesPerModel = 3;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    df::FingerprintCnn cnn(32, ds.numClasses(), 5);
    df::CnnTrainOptions topts;
    topts.epochs = 20;
    cnn.train(ds, topts);

    const auto cm = df::confusionMatrix(cnn, ds);
    EXPECT_EQ(cm.numClasses(), ds.numClasses());
    std::size_t total = 0, diag = 0;
    for (std::size_t t = 0; t < cm.numClasses(); ++t) {
        diag += cm.counts[t][t];
        for (std::size_t p = 0; p < cm.numClasses(); ++p)
            total += cm.counts[t][p];
    }
    EXPECT_EQ(total, ds.samples.size());
    EXPECT_NEAR(static_cast<double>(diag) / static_cast<double>(total),
                cnn.evaluate(ds), 1e-12);
    for (std::size_t c = 0; c < cm.numClasses(); ++c) {
        EXPECT_GE(cm.precision(c), 0.0);
        EXPECT_LE(cm.precision(c), 1.0);
        EXPECT_GE(cm.recall(c), 0.0);
        EXPECT_LE(cm.recall(c), 1.0);
    }
}

TEST(Metrics, TopKAccuracyMonotoneInK)
{
    const auto zoo = dz::ModelZoo::buildDefault(10, 4, 4);
    df::DatasetOptions opts;
    opts.imagesPerModel = 2;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    df::FingerprintCnn cnn(32, ds.numClasses(), 6);

    double prev = 0.0;
    for (std::size_t k = 1; k <= ds.numClasses(); ++k) {
        const double acc = df::topKAccuracy(cnn, ds, k);
        EXPECT_GE(acc, prev);
        prev = acc;
    }
    EXPECT_NEAR(prev, 1.0, 1e-12) << "k == classes must hit 1.0";
}

TEST(Metrics, Top1MatchesAccuracy)
{
    const auto zoo = dz::ModelZoo::buildDefault(11, 3, 0);
    df::DatasetOptions opts;
    opts.imagesPerModel = 2;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    df::FingerprintCnn cnn(32, ds.numClasses(), 7);
    EXPECT_NEAR(df::topKAccuracy(cnn, ds, 1), cnn.evaluate(ds), 1e-12);
}

#include "fingerprint/knn.hh"

TEST(Knn, PerfectOnTrainingTemplates)
{
    const auto zoo = dz::ModelZoo::buildDefault(12, 4, 4);
    df::DatasetOptions opts;
    opts.imagesPerModel = 2;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    df::NearestNeighborClassifier knn(1);
    knn.train(ds);
    EXPECT_DOUBLE_EQ(knn.evaluate(ds), 1.0);
}

TEST(Knn, GeneralizesToFreshTraces)
{
    const auto zoo = dz::ModelZoo::buildDefault(13, 5, 10);
    df::DatasetOptions opts;
    opts.imagesPerModel = 4;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    const auto [train, test] = ds.split(0.8, 3);
    df::NearestNeighborClassifier knn(3);
    knn.train(train);
    EXPECT_GT(knn.evaluate(test), 0.7);
}
