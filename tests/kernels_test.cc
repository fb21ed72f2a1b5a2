/**
 * @file
 * Differential and determinism tests for the kernel layer (DESIGN.md
 * §10). The GEMM and softmax are checked against reference loops
 * (gemmNaive, a libm-expf softmax) over a sweep of adversarial shapes
 * (1x1, primes, k > n, empty operands, strided views, fused
 * epilogues) within a scaled 1e-5 relative tolerance, and checked
 * against themselves for BIT-identical output at 1 / 2 / 8 scheduler
 * lanes (§9). Linear and Conv2d forward/backward are compared end to
 * end with the same layer written on the reference GEMM and as a
 * direct loop nest, and the activation-epoch guard (backward after
 * recycleActivations) is exercised as a death test.
 */

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/conv.hh"
#include "nn/linear.hh"
#include "sched/sched.hh"
#include "tensor/kernels/arena.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace dt = decepticon::tensor;
namespace dk = decepticon::tensor::kernels;
namespace dn = decepticon::nn;
namespace du = decepticon::util;
namespace sched = decepticon::sched;

namespace {

/** Row softmax with libm expf: the reference for softmaxRows. */
dt::Tensor
softmaxReference(const dt::Tensor &a)
{
    const std::size_t n = a.dim(0), m = a.dim(1);
    dt::Tensor out({n, m});
    for (std::size_t i = 0; i < n && m > 0; ++i) {
        const float *row = a.data() + i * m;
        float *orow = out.data() + i * m;
        float mx = row[0];
        for (std::size_t j = 1; j < m; ++j)
            mx = std::max(mx, row[j]);
        float s = 0.0f;
        for (std::size_t j = 0; j < m; ++j) {
            orow[j] = std::exp(row[j] - mx);
            s += orow[j];
        }
        const float inv = 1.0f / s;
        for (std::size_t j = 0; j < m; ++j)
            orow[j] *= inv;
    }
    return out;
}

/** Outputs and gradients of one forward + backward pass of a layer. */
struct LayerPass
{
    dt::Tensor y, dx, dw, db;
};

/**
 * Linear's forward and backward written on the reference GEMM:
 * y = act(x W^T + b), g = dy * act'(pre), dW = g^T x, db = colsum(g),
 * dx = g W.
 */
LayerPass
linearReference(const dn::Linear &lin, dk::Act act, const dt::Tensor &x,
                const dt::Tensor &dy)
{
    const std::size_t n = x.dim(0), in = lin.inFeatures(),
                      out = lin.outFeatures();
    LayerPass r{dt::Tensor({n, out}), dt::Tensor({n, in}),
                dt::Tensor({out, in}), dt::Tensor({out})};
    dt::Tensor pre({n, out});
    dk::GemmCall fwd;
    fwd.n = n;
    fwd.m = out;
    fwd.k = in;
    fwd.a = x.data();
    fwd.b = lin.weight.value.data();
    fwd.c = r.y.data();
    fwd.colBias = lin.bias.value.data();
    fwd.act = act;
    fwd.preact = pre.data();
    dk::gemmNaive(dk::Trans::NT, fwd);

    dt::Tensor g = dy;
    for (std::size_t i = 0; i < g.size(); ++i)
        g[i] *= dk::actBackward(act, pre[i]);
    dk::GemmCall dw;
    dw.n = out;
    dw.m = in;
    dw.k = n;
    dw.a = g.data();
    dw.b = x.data();
    dw.c = r.dw.data();
    dk::gemmNaive(dk::Trans::TN, dw);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < out; ++j)
            r.db[j] += g[i * out + j];
    dk::GemmCall dxc;
    dxc.n = n;
    dxc.m = in;
    dxc.k = out;
    dxc.a = g.data();
    dxc.b = lin.weight.value.data();
    dxc.c = r.dx.data();
    dk::gemmNaive(dk::Trans::NN, dxc);
    return r;
}

/**
 * Conv2d's forward and backward as the direct loop nest (valid,
 * stride 1, NCHW): the reference for the im2col + GEMM layer.
 */
LayerPass
convReference(const dn::Conv2d &conv, dk::Act act, const dt::Tensor &x,
              const dt::Tensor &dy)
{
    const dt::Tensor &wt = conv.weight.value;
    const std::size_t n = x.dim(0), cin = x.dim(1), h = x.dim(2),
                      w = x.dim(3), cout = wt.dim(0), k = conv.kernel();
    const std::size_t oh = h - k + 1, ow = w - k + 1;
    const std::size_t in_plane = h * w, out_plane = oh * ow,
                      wplane = k * k;
    LayerPass r{dt::Tensor({n, cout, oh, ow}), dt::Tensor(x.shape()),
                dt::Tensor(wt.shape()), dt::Tensor({cout})};

    dt::Tensor pre({n, cout, oh, ow});
    for (std::size_t b = 0; b < n; ++b) {
        const float *xb = x.data() + b * cin * in_plane;
        float *yb = pre.data() + b * cout * out_plane;
        for (std::size_t co = 0; co < cout; ++co) {
            float *yplane = yb + co * out_plane;
            for (std::size_t i = 0; i < out_plane; ++i)
                yplane[i] = conv.bias.value[co];
            for (std::size_t ci = 0; ci < cin; ++ci) {
                const float *xplane = xb + ci * in_plane;
                const float *wk = wt.data() + (co * cin + ci) * wplane;
                for (std::size_t row = 0; row < oh; ++row) {
                    for (std::size_t col = 0; col < ow; ++col) {
                        float s = 0.0f;
                        for (std::size_t kr = 0; kr < k; ++kr)
                            for (std::size_t kc = 0; kc < k; ++kc)
                                s += xplane[(row + kr) * w + col + kc] *
                                     wk[kr * k + kc];
                        yplane[row * ow + col] += s;
                    }
                }
            }
        }
    }
    for (std::size_t i = 0; i < pre.size(); ++i)
        r.y[i] = dk::actForward(act, pre[i]);

    dt::Tensor g = dy;
    for (std::size_t i = 0; i < g.size(); ++i)
        g[i] *= dk::actBackward(act, pre[i]);
    for (std::size_t b = 0; b < n; ++b) {
        const float *xb = x.data() + b * cin * in_plane;
        float *dxb = r.dx.data() + b * cin * in_plane;
        const float *gb = g.data() + b * cout * out_plane;
        for (std::size_t co = 0; co < cout; ++co) {
            const float *gplane = gb + co * out_plane;
            for (std::size_t i = 0; i < out_plane; ++i)
                r.db[co] += gplane[i];
            for (std::size_t ci = 0; ci < cin; ++ci) {
                const float *xplane = xb + ci * in_plane;
                float *dxplane = dxb + ci * in_plane;
                const float *wk = wt.data() + (co * cin + ci) * wplane;
                float *dwk = r.dw.data() + (co * cin + ci) * wplane;
                for (std::size_t row = 0; row < oh; ++row) {
                    for (std::size_t col = 0; col < ow; ++col) {
                        const float gv = gplane[row * ow + col];
                        for (std::size_t kr = 0; kr < k; ++kr) {
                            for (std::size_t kc = 0; kc < k; ++kc) {
                                const std::size_t at =
                                    (row + kr) * w + col + kc;
                                dwk[kr * k + kc] += gv * xplane[at];
                                dxplane[at] += gv * wk[kr * k + kc];
                            }
                        }
                    }
                }
            }
        }
    }
    return r;
}

/** |a-b| <= tol * max(1, max|b|), the scaled agreement criterion. */
void
expectClose(const std::vector<float> &a, const std::vector<float> &b,
            float tol, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    float maxabs = 1.0f;
    for (float v : b)
        maxabs = std::max(maxabs, std::fabs(v));
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NEAR(a[i], b[i], tol * maxabs)
            << what << " at flat index " << i;
    }
}

struct GemmCase
{
    std::size_t n, m, k;
};

/** Odd shapes: unit, primes, k > n, empty batch, micro-tile edges. */
const GemmCase kShapes[] = {
    {1, 1, 1},   {1, 1, 7},   {7, 1, 1},    {1, 13, 1},
    {2, 3, 5},   {7, 11, 13}, {5, 64, 311}, {6, 16, 8},
    {12, 32, 6}, {31, 47, 53}, {72, 17, 96}, {97, 101, 89},
    {0, 8, 8},   {8, 0, 8},   {8, 8, 0},    {130, 20, 24},
};

dk::GemmCall
makeCall(const GemmCase &c, const float *a, const float *b, float *out)
{
    dk::GemmCall call;
    call.n = c.n;
    call.m = c.m;
    call.k = c.k;
    call.a = a;
    call.b = b;
    call.c = out;
    return call;
}

void
fillRandom(std::vector<float> &v, du::Rng &rng, float bound = 1.0f)
{
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-bound, bound));
}

TEST(KernelsGemm, DifferentialSweepAllVariants)
{
    du::Rng rng(11);
    for (const auto &c : kShapes) {
        for (dk::Trans t :
             {dk::Trans::NN, dk::Trans::NT, dk::Trans::TN}) {
            std::vector<float> a(std::max<std::size_t>(1, c.n * c.k));
            std::vector<float> b(std::max<std::size_t>(1, c.k * c.m));
            fillRandom(a, rng);
            fillRandom(b, rng);
            std::vector<float> opt(std::max<std::size_t>(1, c.n * c.m),
                                   -7.0f);
            std::vector<float> ref = opt;
            dk::gemm(t, makeCall(c, a.data(), b.data(), opt.data()));
            dk::gemmNaive(t,
                          makeCall(c, a.data(), b.data(), ref.data()));
            expectClose(opt, ref, 1e-5f,
                        "gemm n=" + std::to_string(c.n) +
                            " m=" + std::to_string(c.m) +
                            " k=" + std::to_string(c.k) + " t=" +
                            std::to_string(static_cast<int>(t)));
        }
    }
}

TEST(KernelsGemm, DifferentialFusedEpilogues)
{
    du::Rng rng(12);
    const GemmCase c{37, 29, 41};
    std::vector<float> a(c.n * c.k), b(c.k * c.m);
    std::vector<float> colBias(c.m), rowBias(c.n);
    fillRandom(a, rng);
    fillRandom(b, rng);
    fillRandom(colBias, rng);
    fillRandom(rowBias, rng);

    for (dk::Act act : {dk::Act::None, dk::Act::Relu, dk::Act::Gelu}) {
        std::vector<float> opt(c.n * c.m), ref(c.n * c.m);
        std::vector<float> optPre(c.n * c.m, -1.0f);
        std::vector<float> refPre(c.n * c.m, -2.0f);
        dk::GemmCall call = makeCall(c, a.data(), b.data(), opt.data());
        call.colBias = colBias.data();
        call.rowBias = rowBias.data();
        call.act = act;
        call.preact = optPre.data();
        dk::gemm(dk::Trans::NN, call);
        call.c = ref.data();
        call.preact = refPre.data();
        dk::gemmNaive(dk::Trans::NN, call);
        const std::string what =
            "epilogue act=" + std::to_string(static_cast<int>(act));
        expectClose(opt, ref, 1e-5f, what);
        expectClose(optPre, refPre, 1e-5f, what + " preact");
    }

    // Accumulation (the dW += dy^T x shape) without bias/activation.
    std::vector<float> opt(c.n * c.m), ref(c.n * c.m);
    fillRandom(opt, rng);
    ref = opt;
    dk::GemmCall acc = makeCall(c, a.data(), b.data(), opt.data());
    acc.accumulate = true;
    dk::gemm(dk::Trans::NN, acc);
    acc.c = ref.data();
    dk::gemmNaive(dk::Trans::NN, acc);
    expectClose(opt, ref, 1e-5f, "accumulate");
}

TEST(KernelsGemm, DifferentialStridedViews)
{
    // Head-slice pattern: operands are column blocks of wider
    // matrices, the result lands in a column block of a wider output.
    du::Rng rng(13);
    const std::size_t t = 33, d = 40, off = 8, dh = 10;
    std::vector<float> q(t * d), k(t * d);
    fillRandom(q, rng);
    fillRandom(k, rng);
    std::vector<float> opt(t * t), ref(t * t);
    dk::GemmCall call;
    call.n = t;
    call.m = t;
    call.k = dh;
    call.a = q.data() + off;
    call.lda = d;
    call.b = k.data() + off;
    call.ldb = d;
    call.c = opt.data();
    dk::gemm(dk::Trans::NT, call);
    call.c = ref.data();
    dk::gemmNaive(dk::Trans::NT, call);
    expectClose(opt, ref, 1e-5f, "strided NT");

    // Strided C: write a (t, dh) product into columns of (t, d).
    std::vector<float> optWide(t * d, 0.5f), refWide(t * d, 0.5f);
    dk::GemmCall ctx;
    ctx.n = t;
    ctx.m = dh;
    ctx.k = t;
    ctx.a = opt.data();
    ctx.b = k.data() + off;
    ctx.ldb = d;
    ctx.c = optWide.data() + off;
    ctx.ldc = d;
    dk::gemm(dk::Trans::NN, ctx);
    ctx.c = refWide.data() + off;
    dk::gemmNaive(dk::Trans::NN, ctx);
    expectClose(optWide, refWide, 1e-5f, "strided C");
    // Untouched columns keep their fill value exactly.
    EXPECT_EQ(optWide[0], 0.5f);
    EXPECT_EQ(optWide[off + dh], 0.5f);
}

TEST(KernelsGemm, BitIdenticalAcrossLaneCounts)
{
    // Large enough to cross the parallel threshold: the summation
    // order must still be a pure function of the shape (§9).
    const GemmCase c{256, 96, 64};
    du::Rng rng(17);
    std::vector<float> a(c.n * c.k), b(c.k * c.m);
    fillRandom(a, rng);
    fillRandom(b, rng);

    std::vector<std::vector<float>> results;
    for (std::size_t lanes : {1u, 2u, 8u}) {
        sched::setThreads(lanes);
        std::vector<float> out(c.n * c.m);
        dk::gemm(dk::Trans::NN,
                 makeCall(c, a.data(), b.data(), out.data()));
        results.push_back(std::move(out));
    }
    sched::setThreads(0);
    for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_EQ(0, std::memcmp(results[0].data(), results[i].data(),
                                 results[0].size() * sizeof(float)))
            << "lane set " << i << " diverged";
    }
}

TEST(KernelsSoftmax, MatchesNaiveAndZerosMaskedEntries)
{
    du::Rng rng(19);
    for (std::size_t cols : {1u, 2u, 7u, 8u, 9u, 31u, 64u}) {
        const std::size_t rows = 5;
        dt::Tensor x({rows, cols});
        x.fillGaussian(rng, 3.0f);
        // Masked entries (-1e30) on the last row.
        for (std::size_t j = cols / 2; j < cols; ++j)
            x.at(rows - 1, j) = -1e30f;

        const dt::Tensor fast = dt::softmaxRows(x);
        const dt::Tensor ref = softmaxReference(x);
        for (std::size_t i = 0; i < fast.size(); ++i)
            ASSERT_NEAR(fast[i], ref[i], 1e-5f) << "cols=" << cols;
        // Masked probabilities are exactly zero, like libm underflow.
        for (std::size_t j = cols / 2; j < cols; ++j) {
            if (cols / 2 > 0) {
                EXPECT_EQ(fast.at(rows - 1, j), 0.0f);
            }
        }
    }
}

TEST(KernelsLinear, NaiveAndOptimizedAgree)
{
    du::Rng rng(23);
    for (dk::Act act : {dk::Act::None, dk::Act::Relu, dk::Act::Gelu}) {
        du::Rng init(23);
        dn::Linear lin("l", 13, 7, init);
        lin.setActivation(act);

        dt::Tensor x({5, 13});
        x.fillGaussian(rng, 1.0f);
        dt::Tensor dy({5, 7});
        dy.fillGaussian(rng, 1.0f);

        const dt::Tensor y = lin.forward(x);
        const dt::Tensor dx = lin.backward(dy);
        const LayerPass ref = linearReference(lin, act, x, dy);
        for (std::size_t i = 0; i < y.size(); ++i)
            ASSERT_NEAR(y[i], ref.y[i], 1e-5f);
        for (std::size_t i = 0; i < dx.size(); ++i)
            ASSERT_NEAR(dx[i], ref.dx[i], 1e-5f);
        for (std::size_t i = 0; i < lin.weight.grad.size(); ++i)
            ASSERT_NEAR(lin.weight.grad[i], ref.dw[i], 1e-4f);
        for (std::size_t i = 0; i < lin.bias.grad.size(); ++i)
            ASSERT_NEAR(lin.bias.grad[i], ref.db[i], 1e-4f);
    }
}

TEST(KernelsConv, Im2colAndDirectAgree)
{
    du::Rng rng(29);
    for (dk::Act act : {dk::Act::None, dk::Act::Relu}) {
        du::Rng init(29);
        dn::Conv2d conv("c", 3, 4, 3, init);
        conv.setActivation(act);

        dt::Tensor x({2, 3, 9, 8});
        x.fillGaussian(rng, 1.0f);
        dt::Tensor dy({2, 4, 7, 6});
        dy.fillGaussian(rng, 1.0f);

        const dt::Tensor y = conv.forward(x);
        const dt::Tensor dx = conv.backward(dy);
        const LayerPass ref = convReference(conv, act, x, dy);
        ASSERT_EQ(y.shape(), ref.y.shape());
        for (std::size_t i = 0; i < y.size(); ++i)
            ASSERT_NEAR(y[i], ref.y[i], 1e-5f);
        for (std::size_t i = 0; i < dx.size(); ++i)
            ASSERT_NEAR(dx[i], ref.dx[i], 1e-4f);
        for (std::size_t i = 0; i < conv.weight.grad.size(); ++i)
            ASSERT_NEAR(conv.weight.grad[i], ref.dw[i], 1e-4f);
        for (std::size_t i = 0; i < conv.bias.grad.size(); ++i)
            ASSERT_NEAR(conv.bias.grad[i], ref.db[i], 1e-4f);
    }
}

TEST(KernelsArena, FrameReclaimsAndPointersAreStable)
{
    dk::ScratchArena arena;
    float *first = nullptr;
    {
        dk::ScratchArena::Frame frame(arena);
        first = arena.alloc(100);
        first[0] = 1.0f;
        // Force growth past one slab; the first buffer must not move.
        float *big = arena.alloc((1u << 20) + 5);
        big[0] = 2.0f;
        EXPECT_EQ(first[0], 1.0f);
    }
    {
        dk::ScratchArena::Frame frame(arena);
        // After the frame popped, the same storage is handed out again.
        float *again = arena.alloc(100);
        EXPECT_EQ(again, first);
        // alloc() zeroes the block.
        EXPECT_EQ(again[0], 0.0f);
    }
}

TEST(KernelsArena, ActivationCacheEpochSemantics)
{
    dk::ActivationCache cache;
    EXPECT_FALSE(cache.valid());
    const float v[3] = {1.0f, 2.0f, 3.0f};
    cache.store(v, 3);
    EXPECT_TRUE(cache.valid());
    EXPECT_EQ(cache.size(), 3u);
    dk::recycleActivations();
    EXPECT_FALSE(cache.valid());
    cache.store(v, 2);
    EXPECT_TRUE(cache.valid());
}

using KernelsDeathTest = ::testing::Test;

TEST(KernelsDeathTest, LinearBackwardAfterRecycleAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    du::Rng rng(31);
    dn::Linear lin("l", 4, 3, rng);
    dt::Tensor x({2, 4});
    x.fillGaussian(rng, 1.0f);
    dt::Tensor dy({2, 3}, 0.1f);
    lin.forward(x);
    dk::recycleActivations();
    EXPECT_DEATH(lin.backward(dy), "recycleActivations");
}

TEST(KernelsDeathTest, ConvBackwardAfterRecycleAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    du::Rng rng(37);
    dn::Conv2d conv("c", 1, 2, 3, rng);
    dt::Tensor x({1, 1, 6, 6});
    x.fillGaussian(rng, 1.0f);
    dt::Tensor dy({1, 2, 4, 4}, 0.1f);
    conv.forward(x);
    dk::recycleActivations();
    EXPECT_DEATH(conv.backward(dy), "recycleActivations");
}

} // namespace
