/**
 * @file
 * Unit tests for the nn substrate. Every backward pass is validated
 * against central finite differences — the foundation all training
 * results in the reproduction rest on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/conv.hh"
#include "nn/embedding.hh"
#include "nn/layernorm.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"
#include "nn/param.hh"
#include "util/rng.hh"

namespace dn = decepticon::nn;
namespace dt = decepticon::tensor;
namespace du = decepticon::util;

namespace {

/**
 * Check dL/dx for a scalar loss L = sum(weights .* f(x)) where f is a
 * layer's forward map. `forward` must be re-runnable.
 */
void
checkInputGradient(const std::function<dt::Tensor(const dt::Tensor &)>
                       &forward,
                   const std::function<dt::Tensor(const dt::Tensor &)>
                       &backward,
                   dt::Tensor x, const dt::Tensor &loss_weights,
                   float eps = 1e-3f, float tol = 2e-2f)
{
    dt::Tensor y = forward(x);
    ASSERT_EQ(y.size(), loss_weights.size());
    dt::Tensor dy = loss_weights;
    dt::Tensor dx = backward(dy);
    ASSERT_EQ(dx.size(), x.size());

    for (std::size_t i = 0; i < x.size(); ++i) {
        const float orig = x[i];
        x[i] = orig + eps;
        dt::Tensor yp = forward(x);
        x[i] = orig - eps;
        dt::Tensor ym = forward(x);
        x[i] = orig;
        double fd = 0.0;
        for (std::size_t j = 0; j < yp.size(); ++j)
            fd += loss_weights[j] * (yp[j] - ym[j]);
        fd /= 2.0 * eps;
        EXPECT_NEAR(dx[i], fd, tol * std::max(1.0, std::fabs(fd)))
            << "input grad mismatch at " << i;
    }
}

/** Check accumulated parameter gradients by finite differences. */
void
checkParamGradient(dn::Parameter &param,
                   const std::function<dt::Tensor()> &forward,
                   const dt::Tensor &loss_weights,
                   std::size_t max_checks = 12, float eps = 1e-3f,
                   float tol = 2e-2f)
{
    du::Rng rng(99);
    for (std::size_t c = 0; c < std::min(max_checks, param.size()); ++c) {
        const std::size_t i =
            param.size() <= max_checks ? c : rng.uniformInt(param.size());
        const float orig = param.value[i];
        param.value[i] = orig + eps;
        dt::Tensor yp = forward();
        param.value[i] = orig - eps;
        dt::Tensor ym = forward();
        param.value[i] = orig;
        double fd = 0.0;
        for (std::size_t j = 0; j < yp.size(); ++j)
            fd += loss_weights[j] * (yp[j] - ym[j]);
        fd /= 2.0 * eps;
        EXPECT_NEAR(param.grad[i], fd, tol * std::max(1.0, std::fabs(fd)))
            << "param grad mismatch for " << param.name << "[" << i << "]";
    }
}

dt::Tensor
randomTensor(std::vector<std::size_t> shape, std::uint64_t seed,
             float scale = 1.0f)
{
    du::Rng rng(seed);
    dt::Tensor t(std::move(shape));
    t.fillGaussian(rng, scale);
    return t;
}

} // anonymous namespace

TEST(Parameter, ShapesAndZeroGrad)
{
    dn::Parameter p("w", {2, 3});
    EXPECT_EQ(p.size(), 6u);
    p.grad[0] = 5.0f;
    p.zeroGrad();
    EXPECT_EQ(p.grad[0], 0.0f);
}

TEST(Parameter, TotalParamCount)
{
    dn::Parameter a("a", {2, 2});
    dn::Parameter b("b", {3});
    EXPECT_EQ(dn::totalParamCount({&a, &b}), 7u);
}

TEST(Linear, ForwardKnownValues)
{
    du::Rng rng(1);
    dn::Linear lin("l", 2, 2, rng);
    lin.weight.value.fill(0.0f);
    lin.weight.value.at(0, 0) = 1.0f; // y0 = x0
    lin.weight.value.at(1, 1) = 2.0f; // y1 = 2*x1
    lin.bias.value[0] = 0.5f;

    dt::Tensor x({1, 2});
    x[0] = 3.0f;
    x[1] = 4.0f;
    dt::Tensor y = lin.forward(x);
    EXPECT_FLOAT_EQ(y[0], 3.5f);
    EXPECT_FLOAT_EQ(y[1], 8.0f);

    // Identity weight, zero bias: the output is the fused epilogue
    // applied to the input. ReLU clamps negatives; GELU (tanh form)
    // reads 0, 0.8412 and -0.1588 at 0, 1 and -1.
    struct Case
    {
        dt::kernels::Act act;
        float expect[5];
    };
    const float in[5] = {-1.0f, 0.0f, 1.0f, 2.0f, -0.5f};
    const Case cases[] = {
        {dt::kernels::Act::None, {-1.0f, 0.0f, 1.0f, 2.0f, -0.5f}},
        {dt::kernels::Act::Relu, {0.0f, 0.0f, 1.0f, 2.0f, 0.0f}},
        {dt::kernels::Act::Gelu,
         {-0.1588f, 0.0f, 0.8412f, 1.9546f, -0.1543f}},
    };
    dn::Linear id("id", 5, 5, rng);
    id.weight.value.fill(0.0f);
    for (std::size_t i = 0; i < 5; ++i)
        id.weight.value.at(i, i) = 1.0f;
    id.bias.value.fill(0.0f);
    dt::Tensor xs({1, 5});
    for (std::size_t i = 0; i < 5; ++i)
        xs[i] = in[i];
    for (const Case &c : cases) {
        id.setActivation(c.act);
        const dt::Tensor ys = id.forward(xs);
        for (std::size_t i = 0; i < 5; ++i)
            EXPECT_NEAR(ys[i], c.expect[i], 1e-3f)
                << "act " << static_cast<int>(c.act) << " at " << in[i];
    }
}

TEST(Linear, InputGradientMatchesFiniteDifference)
{
    // The fused epilogue's derivative rides the same backward: ReLU
    // masks the gradient of clamped units, GELU matches the
    // finite difference of its tanh form.
    for (const auto act : {dt::kernels::Act::None, dt::kernels::Act::Relu,
                           dt::kernels::Act::Gelu}) {
        du::Rng rng(2);
        dn::Linear lin("l", 4, 3, rng);
        lin.setActivation(act);
        dt::Tensor x = randomTensor({2, 4}, 3);
        dt::Tensor lw = randomTensor({2, 3}, 4);
        checkInputGradient(
            [&](const dt::Tensor &in) { return lin.forward(in); },
            [&](const dt::Tensor &dy) { return lin.backward(dy); }, x, lw);
    }
}

TEST(Linear, ParamGradientMatchesFiniteDifference)
{
    du::Rng rng(5);
    dn::Linear lin("l", 4, 3, rng);
    dt::Tensor x = randomTensor({2, 4}, 6);
    dt::Tensor lw = randomTensor({2, 3}, 7);

    dn::zeroGrads(lin.params());
    lin.forward(x);
    lin.backward(lw);
    auto fwd = [&]() { return lin.forward(x); };
    checkParamGradient(lin.weight, fwd, lw);
    checkParamGradient(lin.bias, fwd, lw);
}

TEST(Linear, GradAccumulatesAcrossCalls)
{
    du::Rng rng(8);
    dn::Linear lin("l", 2, 2, rng);
    dt::Tensor x = randomTensor({1, 2}, 9);
    dt::Tensor dy({1, 2}, 1.0f);
    dn::zeroGrads(lin.params());
    lin.forward(x);
    lin.backward(dy);
    const float g1 = lin.weight.grad[0];
    lin.forward(x);
    lin.backward(dy);
    EXPECT_NEAR(lin.weight.grad[0], 2.0f * g1, 1e-6f);
}

TEST(LayerNorm, NormalizesRows)
{
    dn::LayerNorm ln("ln", 4);
    dt::Tensor x({2, 4});
    for (std::size_t i = 0; i < 8; ++i)
        x[i] = static_cast<float>(i);
    dt::Tensor y = ln.forward(x);
    for (std::size_t r = 0; r < 2; ++r) {
        float m = 0.0f, v = 0.0f;
        for (std::size_t c = 0; c < 4; ++c)
            m += y.at(r, c);
        m /= 4.0f;
        for (std::size_t c = 0; c < 4; ++c)
            v += (y.at(r, c) - m) * (y.at(r, c) - m);
        v /= 4.0f;
        EXPECT_NEAR(m, 0.0f, 1e-5f);
        EXPECT_NEAR(v, 1.0f, 1e-3f);
    }
}

TEST(LayerNorm, GammaBetaApplied)
{
    dn::LayerNorm ln("ln", 2);
    ln.gamma.value[0] = 2.0f;
    ln.beta.value[1] = 1.0f;
    dt::Tensor x({1, 2});
    x[0] = -1.0f;
    x[1] = 1.0f;
    dt::Tensor y = ln.forward(x);
    EXPECT_NEAR(y[0], -2.0f, 1e-3f);
    EXPECT_NEAR(y[1], 2.0f, 1e-3f);
}

TEST(LayerNorm, InputGradientMatchesFiniteDifference)
{
    dn::LayerNorm ln("ln", 5);
    dt::Tensor x = randomTensor({3, 5}, 13);
    dt::Tensor lw = randomTensor({3, 5}, 14);
    checkInputGradient(
        [&](const dt::Tensor &in) { return ln.forward(in); },
        [&](const dt::Tensor &dy) { return ln.backward(dy); }, x, lw);
}

TEST(LayerNorm, ParamGradientMatchesFiniteDifference)
{
    dn::LayerNorm ln("ln", 5);
    dt::Tensor x = randomTensor({3, 5}, 15);
    dt::Tensor lw = randomTensor({3, 5}, 16);
    dn::zeroGrads(ln.params());
    ln.forward(x);
    ln.backward(lw);
    auto fwd = [&]() { return ln.forward(x); };
    checkParamGradient(ln.gamma, fwd, lw);
    checkParamGradient(ln.beta, fwd, lw);
}

TEST(Embedding, LookupReturnsRows)
{
    du::Rng rng(17);
    dn::Embedding emb("e", 10, 4, rng);
    dt::Tensor out = emb.forward({3, 7, 3});
    EXPECT_EQ(out.dim(0), 3u);
    for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_EQ(out.at(0, j), emb.table.value.at(3, j));
        EXPECT_EQ(out.at(0, j), out.at(2, j));
        EXPECT_EQ(out.at(1, j), emb.table.value.at(7, j));
    }
}

TEST(Embedding, BackwardScatterAddsRepeatedTokens)
{
    du::Rng rng(18);
    dn::Embedding emb("e", 10, 2, rng);
    emb.forward({5, 5});
    dt::Tensor dy({2, 2}, 1.0f);
    dn::zeroGrads(emb.params());
    emb.backward(dy);
    EXPECT_FLOAT_EQ(emb.table.grad.at(5, 0), 2.0f);
    EXPECT_FLOAT_EQ(emb.table.grad.at(4, 0), 0.0f);
}

TEST(Conv2d, ForwardKnownValues)
{
    du::Rng rng(19);
    dn::Conv2d conv("c", 1, 1, 2, rng);
    conv.weight.value.fill(1.0f); // 2x2 box filter
    conv.bias.value[0] = 0.5f;
    dt::Tensor x({1, 1, 3, 3});
    for (std::size_t i = 0; i < 9; ++i)
        x[i] = static_cast<float>(i); // 0..8
    dt::Tensor y = conv.forward(x);
    ASSERT_EQ(y.dim(2), 2u);
    // window (0,0): 0+1+3+4 = 8, plus bias.
    EXPECT_FLOAT_EQ(y[0], 8.5f);
    // window (1,1): 4+5+7+8 = 24, plus bias.
    EXPECT_FLOAT_EQ(y[3], 24.5f);
}

TEST(Conv2d, OutputShape)
{
    du::Rng rng(20);
    dn::Conv2d conv("c", 3, 8, 5, rng);
    dt::Tensor x = randomTensor({2, 3, 12, 10}, 21, 0.5f);
    dt::Tensor y = conv.forward(x);
    EXPECT_EQ(y.shape(),
              (std::vector<std::size_t>{2, 8, 8, 6}));
}

TEST(Conv2d, InputGradientMatchesFiniteDifference)
{
    du::Rng rng(22);
    dn::Conv2d conv("c", 2, 3, 3, rng);
    dt::Tensor x = randomTensor({1, 2, 5, 5}, 23, 0.5f);
    dt::Tensor lw = randomTensor({1, 3, 3, 3}, 24);
    checkInputGradient(
        [&](const dt::Tensor &in) { return conv.forward(in); },
        [&](const dt::Tensor &dy) { return conv.backward(dy); }, x, lw);
}

TEST(Conv2d, ParamGradientMatchesFiniteDifference)
{
    du::Rng rng(25);
    dn::Conv2d conv("c", 2, 2, 3, rng);
    dt::Tensor x = randomTensor({1, 2, 6, 6}, 26, 0.5f);
    dt::Tensor lw = randomTensor({1, 2, 4, 4}, 27);
    dn::zeroGrads(conv.params());
    conv.forward(x);
    conv.backward(lw);
    auto fwd = [&]() { return conv.forward(x); };
    checkParamGradient(conv.weight, fwd, lw);
    checkParamGradient(conv.bias, fwd, lw);
}

TEST(MaxPool2d, ForwardSelectsMaxima)
{
    dn::MaxPool2d pool(2, 2);
    dt::Tensor x({1, 1, 4, 4});
    for (std::size_t i = 0; i < 16; ++i)
        x[i] = static_cast<float>(i);
    dt::Tensor y = pool.forward(x);
    ASSERT_EQ(y.dim(2), 2u);
    EXPECT_FLOAT_EQ(y[0], 5.0f);
    EXPECT_FLOAT_EQ(y[3], 15.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax)
{
    dn::MaxPool2d pool(2, 2);
    dt::Tensor x({1, 1, 2, 2});
    x[0] = 1.0f;
    x[1] = 4.0f;
    x[2] = 2.0f;
    x[3] = 3.0f;
    pool.forward(x);
    dt::Tensor dy({1, 1, 1, 1}, 2.0f);
    dt::Tensor dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx[1], 2.0f);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
    EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(MaxPool2d, DropsPartialWindows)
{
    dn::MaxPool2d pool(2, 2);
    dt::Tensor x({1, 1, 5, 5}, 1.0f);
    dt::Tensor y = pool.forward(x);
    EXPECT_EQ(y.dim(2), 2u);
    EXPECT_EQ(y.dim(3), 2u);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC)
{
    dn::SoftmaxCrossEntropy loss;
    dt::Tensor logits({2, 4});
    const float l = loss.forward(logits, {0, 3});
    EXPECT_NEAR(l, std::log(4.0f), 1e-5f);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow)
{
    dn::SoftmaxCrossEntropy loss;
    dt::Tensor logits = randomTensor({3, 5}, 28);
    loss.forward(logits, {1, 2, 4});
    dt::Tensor d = loss.backward();
    for (std::size_t r = 0; r < 3; ++r) {
        float s = 0.0f;
        for (std::size_t c = 0; c < 5; ++c)
            s += d.at(r, c);
        EXPECT_NEAR(s, 0.0f, 1e-6f);
    }
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference)
{
    dn::SoftmaxCrossEntropy loss;
    dt::Tensor logits = randomTensor({2, 3}, 29);
    const std::vector<int> labels{2, 0};
    loss.forward(logits, labels);
    dt::Tensor d = loss.backward();
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        dt::Tensor lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        dn::SoftmaxCrossEntropy l2;
        const float fp = l2.forward(lp, labels);
        const float fm = l2.forward(lm, labels);
        EXPECT_NEAR(d[i], (fp - fm) / (2 * eps), 1e-3f);
    }
}

TEST(ArgmaxRows, PicksMaxIndex)
{
    dt::Tensor logits({2, 3});
    logits.at(0, 1) = 5.0f;
    logits.at(1, 2) = 3.0f;
    const auto preds = dn::argmaxRows(logits);
    EXPECT_EQ(preds[0], 1);
    EXPECT_EQ(preds[1], 2);
}

TEST(Adam, ConvergesOnQuadratic)
{
    // Minimize (w - 3)^2 by gradient descent with Adam.
    dn::Parameter p("p", {1});
    dn::Adam adam({&p}, 0.1f);
    for (int i = 0; i < 300; ++i) {
        p.grad[0] = 2.0f * (p.value[0] - 3.0f);
        adam.step();
    }
    EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(Adam, ZeroGradClearsAll)
{
    dn::Parameter p("p", {2});
    p.grad[0] = 1.0f;
    p.grad[1] = 2.0f;
    dn::Adam adam({&p}, 0.1f);
    adam.zeroGrad();
    EXPECT_EQ(p.grad[0], 0.0f);
    EXPECT_EQ(p.grad[1], 0.0f);
}

/** Conv/pool output-size sweep. */
class ConvShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ConvShapeSweep, ForwardBackwardShapesConsistent)
{
    const auto [size, kernel] = GetParam();
    if (size < kernel)
        GTEST_SKIP();
    du::Rng rng(31);
    dn::Conv2d conv("c", 1, 2, static_cast<std::size_t>(kernel), rng);
    dt::Tensor x = randomTensor(
        {1, 1, static_cast<std::size_t>(size),
         static_cast<std::size_t>(size)}, 32, 0.5f);
    dt::Tensor y = conv.forward(x);
    const auto out = static_cast<std::size_t>(size - kernel + 1);
    EXPECT_EQ(y.dim(2), out);
    dt::Tensor dx = conv.backward(y);
    EXPECT_EQ(dx.shape(), x.shape());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConvShapeSweep,
                         ::testing::Combine(::testing::Values(5, 8, 12),
                                            ::testing::Values(2, 3, 5)));
