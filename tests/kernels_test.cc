/**
 * @file
 * Differential and determinism tests for the optimized kernel layer
 * (DESIGN.md §10). The optimized GEMM/softmax paths are checked
 * against the naive reference loops over a sweep of adversarial
 * shapes (1x1, primes, k > n, empty operands, strided views, fused
 * epilogues) within a scaled 1e-5 relative tolerance, and checked
 * against themselves for BIT-identical output at 1 / 2 / 8 scheduler
 * lanes (§9). The nn layers' naive/optimized branches are compared
 * end to end, and the activation-epoch guard (backward after
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

/** Force a kernel mode for one scope, restoring the previous one. */
class NaiveGuard
{
  public:
    explicit NaiveGuard(bool naive) : prev_(dk::naiveEnabled())
    {
        dk::setNaive(naive);
    }
    ~NaiveGuard() { dk::setNaive(prev_); }

  private:
    bool prev_;
};

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
        // Causal-style mask on the last row.
        for (std::size_t j = cols / 2; j < cols; ++j)
            x.at(rows - 1, j) = -1e30f;

        dt::Tensor fast({rows, cols});
        dk::softmaxRowsFast(x.data(), fast.data(), rows, cols);

        dt::Tensor ref;
        {
            NaiveGuard guard(true);
            ref = dt::softmaxRows(x);
        }
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
        du::Rng rngOpt(23), rngRef(23); // identical init
        dn::Linear optLin("l", 13, 7, rngOpt);
        optLin.setActivation(act);
        dn::Linear refLin("l", 13, 7, rngRef);
        refLin.setActivation(act);

        dt::Tensor x({5, 13});
        x.fillGaussian(rng, 1.0f);
        dt::Tensor dy({5, 7});
        dy.fillGaussian(rng, 1.0f);

        dt::Tensor yOpt, dxOpt, yRef, dxRef;
        {
            NaiveGuard guard(false);
            yOpt = optLin.forward(x);
            dxOpt = optLin.backward(dy);
        }
        {
            NaiveGuard guard(true);
            yRef = refLin.forward(x);
            dxRef = refLin.backward(dy);
        }
        for (std::size_t i = 0; i < yOpt.size(); ++i)
            ASSERT_NEAR(yOpt[i], yRef[i], 1e-5f);
        for (std::size_t i = 0; i < dxOpt.size(); ++i)
            ASSERT_NEAR(dxOpt[i], dxRef[i], 1e-5f);
        for (std::size_t i = 0; i < optLin.weight.grad.size(); ++i)
            ASSERT_NEAR(optLin.weight.grad[i], refLin.weight.grad[i],
                        1e-4f);
        for (std::size_t i = 0; i < optLin.bias.grad.size(); ++i)
            ASSERT_NEAR(optLin.bias.grad[i], refLin.bias.grad[i],
                        1e-4f);
    }
}

TEST(KernelsConv, Im2colAndDirectAgree)
{
    du::Rng rng(29);
    for (dk::Act act : {dk::Act::None, dk::Act::Relu}) {
        du::Rng rngOpt(29), rngRef(29); // identical init
        dn::Conv2d optConv("c", 3, 4, 3, rngOpt);
        optConv.setActivation(act);
        dn::Conv2d refConv("c", 3, 4, 3, rngRef);
        refConv.setActivation(act);

        dt::Tensor x({2, 3, 9, 8});
        x.fillGaussian(rng, 1.0f);
        dt::Tensor dy({2, 4, 7, 6});
        dy.fillGaussian(rng, 1.0f);

        dt::Tensor yOpt, dxOpt, yRef, dxRef;
        {
            NaiveGuard guard(false);
            yOpt = optConv.forward(x);
            dxOpt = optConv.backward(dy);
        }
        {
            NaiveGuard guard(true);
            yRef = refConv.forward(x);
            dxRef = refConv.backward(dy);
        }
        ASSERT_EQ(yOpt.shape(), yRef.shape());
        for (std::size_t i = 0; i < yOpt.size(); ++i)
            ASSERT_NEAR(yOpt[i], yRef[i], 1e-5f);
        for (std::size_t i = 0; i < dxOpt.size(); ++i)
            ASSERT_NEAR(dxOpt[i], dxRef[i], 1e-4f);
        for (std::size_t i = 0; i < optConv.weight.grad.size(); ++i)
            ASSERT_NEAR(optConv.weight.grad[i], refConv.weight.grad[i],
                        1e-4f);
        for (std::size_t i = 0; i < optConv.bias.grad.size(); ++i)
            ASSERT_NEAR(optConv.bias.grad[i], refConv.bias.grad[i],
                        1e-4f);
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
    NaiveGuard guard(false); // epoch guard lives on the im2col path
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
