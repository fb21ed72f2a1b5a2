/**
 * @file
 * Tests for the trainable transformer substrate: encoder mechanics,
 * end-to-end gradient correctness, real learning on synthetic tasks,
 * transfer-learning plumbing (head reset, layer freezing, copying),
 * head pruning, and attention confidence.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/param.hh"
#include "transformer/classifier.hh"
#include "transformer/confidence.hh"
#include "transformer/config.hh"
#include "transformer/encoder.hh"
#include "transformer/task.hh"
#include "transformer/trainer.hh"
#include "util/rng.hh"

namespace dtr = decepticon::transformer;
namespace dn = decepticon::nn;
namespace dt = decepticon::tensor;
namespace du = decepticon::util;

namespace {

dtr::TransformerConfig
microConfig()
{
    dtr::TransformerConfig c;
    c.vocab = 24;
    c.maxSeqLen = 8;
    c.hidden = 8;
    c.numLayers = 2;
    c.numHeads = 2;
    c.ffnDim = 16;
    c.numClasses = 3;
    return c;
}

} // anonymous namespace

TEST(TransformerConfig, ValidityChecks)
{
    dtr::TransformerConfig c = microConfig();
    EXPECT_TRUE(c.valid());
    c.numHeads = 3; // 8 % 3 != 0
    EXPECT_FALSE(c.valid());
    c = microConfig();
    c.hidden = 0;
    EXPECT_FALSE(c.valid());
}

TEST(EncoderLayer, ForwardPreservesShape)
{
    du::Rng rng(2);
    dtr::EncoderLayer enc("e", microConfig(), rng);
    dt::Tensor x({5, 8});
    x.fillGaussian(rng, 0.5f);
    dt::Tensor y = enc.forward(x);
    EXPECT_EQ(y.shape(), x.shape());
}

TEST(EncoderLayer, AttentionProbsAreRowStochastic)
{
    du::Rng rng(3);
    dtr::EncoderLayer enc("e", microConfig(), rng);
    dt::Tensor x({6, 8});
    x.fillGaussian(rng, 0.5f);
    enc.forward(x);
    for (std::size_t h = 0; h < enc.numHeads(); ++h) {
        const dt::Tensor &p = enc.attentionProbs(h);
        ASSERT_EQ(p.dim(0), 6u);
        for (std::size_t i = 0; i < 6; ++i) {
            float s = 0.0f;
            for (std::size_t j = 0; j < 6; ++j)
                s += p.at(i, j);
            EXPECT_NEAR(s, 1.0f, 1e-5f);
        }
    }
}

TEST(EncoderLayer, PrunedHeadsChangeOutput)
{
    du::Rng rng(4);
    const auto cfg = microConfig();
    dtr::EncoderLayer enc("e", cfg, rng);
    dt::Tensor x({4, 8});
    x.fillGaussian(rng, 0.5f);
    dt::Tensor dense = enc.forward(x);
    enc.setActiveHeads({true, false});
    dt::Tensor pruned = enc.forward(x);
    double diff = 0.0;
    for (std::size_t i = 0; i < dense.size(); ++i)
        diff += std::fabs(dense[i] - pruned[i]);
    EXPECT_GT(diff, 1e-3);
}

TEST(EncoderLayer, GradientMatchesFiniteDifference)
{
    du::Rng rng(5);
    dtr::EncoderLayer enc("e", microConfig(), rng);
    dt::Tensor x({3, 8});
    x.fillGaussian(rng, 0.5f);
    dt::Tensor lw({3, 8});
    lw.fillGaussian(rng, 1.0f);

    dn::zeroGrads(enc.params());
    enc.forward(x);
    dt::Tensor dx = enc.backward(lw);

    const float eps = 1e-2f;
    for (std::size_t i = 0; i < x.size(); i += 3) {
        dt::Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        dt::Tensor yp = enc.forward(xp);
        dt::Tensor ym = enc.forward(xm);
        double fd = 0.0;
        for (std::size_t j = 0; j < yp.size(); ++j)
            fd += lw[j] * (yp[j] - ym[j]);
        fd /= 2.0 * eps;
        EXPECT_NEAR(dx[i], fd, 0.05 * std::max(1.0, std::fabs(fd)))
            << "at input " << i;
    }
}

TEST(TransformerClassifier, LogitsShape)
{
    dtr::TransformerClassifier model(microConfig(), 7);
    dt::Tensor lg = model.logits({1, 2, 3, 4});
    EXPECT_EQ(lg.dim(0), 1u);
    EXPECT_EQ(lg.dim(1), 3u);
}

TEST(TransformerClassifier, DeterministicForward)
{
    dtr::TransformerClassifier model(microConfig(), 7);
    dt::Tensor a = model.logits({1, 2, 3});
    dt::Tensor b = model.logits({1, 2, 3});
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(TransformerClassifier, FullModelGradientMatchesFiniteDifference)
{
    dtr::TransformerClassifier model(microConfig(), 11);
    const std::vector<int> tokens{3, 1, 4, 1, 5};
    const int label = 2;

    dn::zeroGrads(model.params());
    model.lossAndBackward(tokens, label);

    auto params = model.params();
    du::Rng rng(12);
    dn::SoftmaxCrossEntropy ref_loss;
    const float eps = 1e-2f;
    for (int check = 0; check < 24; ++check) {
        auto *p = params[rng.uniformInt(params.size())];
        const std::size_t i = rng.uniformInt(p->size());
        const float orig = p->value[i];
        p->value[i] = orig + eps;
        const float fp = ref_loss.forward(model.logits(tokens), {label});
        p->value[i] = orig - eps;
        const float fm = ref_loss.forward(model.logits(tokens), {label});
        p->value[i] = orig;
        const double fd = (fp - fm) / (2.0 * eps);
        EXPECT_NEAR(p->grad[i], fd, 0.05 * std::max(0.5, std::fabs(fd)))
            << p->name << "[" << i << "]";
    }
}

TEST(TransformerClassifier, CopyConstructorClonesBehaviour)
{
    dtr::TransformerClassifier model(microConfig(), 13);
    dtr::TransformerClassifier copy(model);
    const std::vector<int> tokens{2, 7, 7, 1};
    dt::Tensor a = model.logits(tokens);
    dt::Tensor b = copy.logits(tokens);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(TransformerClassifier, ResetHeadChangesOnlyHead)
{
    dtr::TransformerClassifier model(microConfig(), 14);
    dtr::TransformerClassifier before(model);
    model.resetHead(5, 99);
    EXPECT_EQ(model.config().numClasses, 5u);
    auto a = model.backboneParams();
    auto b = before.backboneParams();
    for (std::size_t p = 0; p < a.size(); ++p)
        for (std::size_t i = 0; i < a[p]->size(); ++i)
            EXPECT_EQ(a[p]->value[i], b[p]->value[i]);
    dt::Tensor lg = model.logits({1, 2});
    EXPECT_EQ(lg.dim(1), 5u);
}

TEST(TransformerClassifier, CopyBackboneTransfersWeights)
{
    dtr::TransformerClassifier src(microConfig(), 15);
    dtr::TransformerClassifier dst(microConfig(), 16);
    dst.copyBackboneFrom(src);
    auto a = dst.backboneParams();
    auto b = src.backboneParams();
    for (std::size_t p = 0; p < a.size(); ++p)
        for (std::size_t i = 0; i < a[p]->size(); ++i)
            EXPECT_EQ(a[p]->value[i], b[p]->value[i]);
}

TEST(TransformerClassifier, ParamGroupsPartitionAllParams)
{
    dtr::TransformerClassifier model(microConfig(), 17);
    std::size_t encoder_count = 0;
    for (std::size_t l = 0; l < model.numLayers(); ++l)
        encoder_count += dn::totalParamCount(model.encoderParams(l));
    const std::size_t emb_count =
        dn::totalParamCount(model.backboneParams()) - encoder_count;
    const std::size_t head_count = dn::totalParamCount(model.headParams());
    EXPECT_EQ(emb_count + encoder_count + head_count,
              dn::totalParamCount(model.params()));
    EXPECT_GT(emb_count, 0u);
    EXPECT_GT(head_count, 0u);
}

TEST(MarkovTask, BalancedLabels)
{
    dtr::MarkovTask task(24, 3, 8, 100);
    const dtr::Dataset ds = task.sample(90, 1);
    std::vector<int> counts(3, 0);
    for (const auto &ex : ds.examples) {
        ASSERT_GE(ex.label, 0);
        ASSERT_LT(ex.label, 3);
        ++counts[static_cast<std::size_t>(ex.label)];
    }
    EXPECT_EQ(counts[0], 30);
    EXPECT_EQ(counts[1], 30);
    EXPECT_EQ(counts[2], 30);
}

TEST(MarkovTask, TokensWithinVocab)
{
    dtr::MarkovTask task(16, 2, 10, 101);
    const dtr::Dataset ds = task.sample(40, 2);
    for (const auto &ex : ds.examples) {
        EXPECT_EQ(ex.tokens.size(), 10u);
        for (int t : ex.tokens) {
            EXPECT_GE(t, 0);
            EXPECT_LT(t, 16);
        }
    }
}

TEST(MarkovTask, DeterministicSampling)
{
    dtr::MarkovTask task(16, 2, 6, 102);
    const dtr::Dataset a = task.sample(10, 3);
    const dtr::Dataset b = task.sample(10, 3);
    for (std::size_t i = 0; i < a.examples.size(); ++i) {
        EXPECT_EQ(a.examples[i].tokens, b.examples[i].tokens);
        EXPECT_EQ(a.examples[i].label, b.examples[i].label);
    }
}

TEST(MarkovTask, DifferentSeedsGiveDifferentChains)
{
    dtr::MarkovTask t1(16, 2, 12, 1);
    dtr::MarkovTask t2(16, 2, 12, 2);
    const auto a = t1.sample(5, 9).examples;
    const auto b = t2.sample(5, 9).examples;
    bool differ = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differ |= a[i].tokens != b[i].tokens;
    EXPECT_TRUE(differ);
}

TEST(Dataset, FractionTakesLeadingExamples)
{
    dtr::Dataset ds;
    ds.numClasses = 2;
    for (int i = 0; i < 10; ++i)
        ds.examples.push_back({{i}, i % 2});
    const dtr::Dataset half = ds.fraction(0.5);
    EXPECT_EQ(half.size(), 5u);
    EXPECT_EQ(half.examples[0].tokens[0], 0);
    EXPECT_EQ(ds.fraction(0.0001).size(), 1u);
    EXPECT_EQ(ds.fraction(1.0).size(), 10u);
}

TEST(Trainer, LearnsMarkovTask)
{
    dtr::TransformerConfig cfg = microConfig();
    cfg.vocab = 16;
    cfg.numClasses = 2;
    dtr::TransformerClassifier model(cfg, 21);

    dtr::MarkovTask task(16, 2, 8, 200, 4.0);
    const dtr::Dataset train = task.sample(160, 5);
    const dtr::Dataset test = task.sample(60, 6);

    dtr::TrainOptions opts;
    opts.epochs = 6;
    opts.lr = 3e-3f;
    const auto history = dtr::Trainer::train(model, train, opts);
    ASSERT_EQ(history.size(), 6u);
    EXPECT_LT(history.back().meanLoss, history.front().meanLoss);

    const auto eval = dtr::Trainer::evaluate(model, test);
    EXPECT_GT(eval.accuracy, 0.8) << "task should be learnable";
    EXPECT_GT(eval.macroF1, 0.7);
}

TEST(Trainer, HeadLrMultiplierMovesHeadMore)
{
    dtr::TransformerClassifier model(microConfig(), 23);
    dtr::TransformerClassifier before(model);
    dtr::MarkovTask task(24, 3, 8, 202);
    dtr::TrainOptions opts;
    opts.epochs = 1;
    opts.lr = 1e-4f;
    opts.headLrMultiplier = 50.0f;
    dtr::Trainer::fineTune(model, task.sample(40, 8), opts);

    auto head = model.headParams();
    auto head_ref = before.headParams();
    double head_moved = 0.0;
    std::size_t head_n = 0;
    for (std::size_t p = 0; p < head.size(); ++p)
        for (std::size_t i = 0; i < head[p]->size(); ++i, ++head_n)
            head_moved +=
                std::fabs(head[p]->value[i] - head_ref[p]->value[i]);

    auto enc = model.encoderParams(0);
    auto enc_ref = before.encoderParams(0);
    double enc_moved = 0.0;
    std::size_t enc_n = 0;
    for (std::size_t p = 0; p < enc.size(); ++p)
        for (std::size_t i = 0; i < enc[p]->size(); ++i, ++enc_n)
            enc_moved +=
                std::fabs(enc[p]->value[i] - enc_ref[p]->value[i]);

    EXPECT_GT(head_moved / static_cast<double>(head_n),
              5.0 * enc_moved / static_cast<double>(enc_n));
}

TEST(Trainer, DataFractionChangesOutcome)
{
    dtr::TransformerClassifier a(microConfig(), 24);
    dtr::TransformerClassifier b(a);
    dtr::MarkovTask task(24, 3, 8, 203);
    const dtr::Dataset data = task.sample(60, 8);

    dtr::TrainOptions full;
    full.epochs = 1;
    dtr::TrainOptions tiny = full;
    tiny.dataFraction = 0.1;
    dtr::Trainer::fineTune(a, data, full);
    dtr::Trainer::fineTune(b, data, tiny);
    auto pa = a.params();
    auto pb = b.params();
    double diff = 0.0;
    for (std::size_t p = 0; p < pa.size(); ++p)
        for (std::size_t i = 0; i < pa[p]->size(); ++i)
            diff += std::fabs(pa[p]->value[i] - pb[p]->value[i]);
    EXPECT_GT(diff, 0.0);
}

TEST(Trainer, EpochCallbackFires)
{
    dtr::TransformerClassifier model(microConfig(), 25);
    dtr::MarkovTask task(24, 3, 8, 204);
    std::vector<std::size_t> seen;
    dtr::TrainOptions opts;
    opts.epochs = 3;
    opts.epochCallback = [&](std::size_t e) { seen.push_back(e); };
    dtr::Trainer::train(model, task.sample(20, 9), opts);
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Trainer, AgreementMetric)
{
    EXPECT_DOUBLE_EQ(dtr::Trainer::agreement({1, 2, 3}, {1, 2, 3}), 1.0);
    EXPECT_DOUBLE_EQ(dtr::Trainer::agreement({1, 2, 3}, {1, 0, 0}),
                     1.0 / 3.0);
    EXPECT_DOUBLE_EQ(dtr::Trainer::agreement({}, {}), 0.0);
}

TEST(MacroF1, PerfectPrediction)
{
    EXPECT_DOUBLE_EQ(dtr::macroF1({0, 1, 0, 1}, {0, 1, 0, 1}, 2), 1.0);
}

TEST(MacroF1, AllOneClassPrediction)
{
    // Predicting class 0 always: F1(class0) = 2*2/(2*2+2) = 2/3,
    // F1(class1) = 0.
    EXPECT_NEAR(dtr::macroF1({0, 0, 0, 0}, {0, 1, 0, 1}, 2),
                (2.0 / 3.0) / 2.0, 1e-12);
}

TEST(Confidence, ShapeAndRange)
{
    dtr::TransformerClassifier model(microConfig(), 26);
    dtr::MarkovTask task(24, 3, 8, 205);
    const auto samples = task.sample(6, 10).examples;
    const auto conf = dtr::headConfidence(model, samples);
    ASSERT_EQ(conf.size(), model.numLayers());
    for (const auto &row : conf) {
        ASSERT_EQ(row.size(), model.config().numHeads);
        for (double v : row) {
            EXPECT_GT(v, 0.0);
            EXPECT_LE(v, 1.0 + 1e-9);
        }
    }
}

TEST(Confidence, PrunedHeadReportsZero)
{
    dtr::TransformerClassifier model(microConfig(), 27);
    model.encoder(0).setActiveHeads({true, false});
    dtr::MarkovTask task(24, 3, 8, 206);
    const auto samples = task.sample(4, 11).examples;
    const auto conf = dtr::headConfidence(model, samples);
    EXPECT_EQ(conf[0][1], 0.0);
    EXPECT_GT(conf[0][0], 0.0);
}

TEST(Confidence, FlattenPreservesOrder)
{
    const std::vector<std::vector<double>> conf{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(dtr::flattenConfidence(conf),
              (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

/** Sequence-length sweep: model handles any length up to maxSeqLen. */
class SeqLenSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SeqLenSweep, ForwardBackwardRun)
{
    dtr::TransformerClassifier model(microConfig(), 28);
    std::vector<int> tokens(static_cast<std::size_t>(GetParam()), 3);
    const float loss = model.lossAndBackward(tokens, 1);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Lengths, SeqLenSweep,
                         ::testing::Values(1, 2, 4, 7, 8));

