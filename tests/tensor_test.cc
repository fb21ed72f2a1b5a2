/**
 * @file
 * Unit tests for the dense tensor substrate.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace dt = decepticon::tensor;
namespace du = decepticon::util;

TEST(Tensor, DefaultIsEmpty)
{
    dt::Tensor t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ShapeAndZeroInit)
{
    dt::Tensor t({2, 3});
    EXPECT_EQ(t.rank(), 2u);
    EXPECT_EQ(t.dim(0), 2u);
    EXPECT_EQ(t.dim(1), 3u);
    EXPECT_EQ(t.size(), 6u);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillValueConstructor)
{
    dt::Tensor t({4}, 2.5f);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, At2dRowMajor)
{
    dt::Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);
    t.at(0, 1) = 3.0f;
    EXPECT_EQ(t[1], 3.0f);
}

TEST(Tensor, At3dIndexing)
{
    dt::Tensor t({2, 3, 4});
    t.at(1, 2, 3) = 9.0f;
    EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 9.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    dt::Tensor t({2, 3});
    for (std::size_t i = 0; i < 6; ++i)
        t[i] = static_cast<float>(i);
    dt::Tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r.dim(0), 3u);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(r[i], static_cast<float>(i));
}

TEST(Tensor, FillUniformWithinBounds)
{
    du::Rng rng(1);
    dt::Tensor t({1000});
    t.fillUniform(rng, 0.25f);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], -0.25f);
        EXPECT_LE(t[i], 0.25f);
    }
}

TEST(Tensor, FillGaussianStats)
{
    du::Rng rng(2);
    dt::Tensor t({20000});
    t.fillGaussian(rng, 0.1f);
    double mean = 0.0, meanAbs = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        mean += t[i];
        meanAbs += std::fabs(t[i]);
    }
    mean /= static_cast<double>(t.size());
    meanAbs /= static_cast<double>(t.size());
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(meanAbs, 0.1 * std::sqrt(2.0 / M_PI), 0.01);
}

TEST(Tensor, XavierBound)
{
    du::Rng rng(3);
    dt::Tensor t({64, 64});
    t.fillXavier(rng, 64, 64);
    const float bound = std::sqrt(6.0f / 128.0f);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_LE(std::fabs(t[i]), bound + 1e-6f);
}

TEST(Tensor, Sum)
{
    dt::Tensor t({3});
    t[0] = 1.0f;
    t[1] = -2.0f;
    t[2] = 3.0f;
    EXPECT_DOUBLE_EQ(t.sum(), 2.0);
}

TEST(TensorOps, MatmulKnownValues)
{
    dt::Tensor a({2, 3});
    dt::Tensor b({3, 2});
    for (std::size_t i = 0; i < 6; ++i) {
        a[i] = static_cast<float>(i + 1); // [[1,2,3],[4,5,6]]
        b[i] = static_cast<float>(i + 1); // [[1,2],[3,4],[5,6]]
    }
    dt::Tensor c = dt::matmul(a, b);
    EXPECT_EQ(c.dim(0), 2u);
    EXPECT_EQ(c.dim(1), 2u);
    EXPECT_FLOAT_EQ(c.at(0, 0), 22.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 28.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 49.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 64.0f);
}

TEST(TensorOps, AddSub)
{
    dt::Tensor a({3}, 1.0f);
    dt::Tensor b({3}, 2.0f);
    dt::Tensor s = dt::add(a, b);
    EXPECT_FLOAT_EQ(s[0], 3.0f);
    dt::Tensor d = dt::sub(a, b);
    EXPECT_FLOAT_EQ(d[0], -1.0f);
}

TEST(TensorOps, ScaleInPlace)
{
    dt::Tensor a({2}, 3.0f);
    dt::scaleInPlace(a, -2.0f);
    EXPECT_FLOAT_EQ(a[0], -6.0f);
}

TEST(TensorOps, SoftmaxRowsSumToOne)
{
    du::Rng rng(7);
    dt::Tensor a({4, 6});
    a.fillGaussian(rng, 3.0f);
    dt::Tensor p = dt::softmaxRows(a);
    for (std::size_t i = 0; i < 4; ++i) {
        float s = 0.0f;
        for (std::size_t j = 0; j < 6; ++j) {
            EXPECT_GT(p.at(i, j), 0.0f);
            s += p.at(i, j);
        }
        EXPECT_NEAR(s, 1.0f, 1e-5f);
    }
}

TEST(TensorOps, SoftmaxIsShiftInvariant)
{
    dt::Tensor a({1, 3});
    a[0] = 1.0f;
    a[1] = 2.0f;
    a[2] = 3.0f;
    dt::Tensor b = a;
    for (std::size_t i = 0; i < 3; ++i)
        b[i] += 100.0f;
    dt::Tensor pa = dt::softmaxRows(a);
    dt::Tensor pb = dt::softmaxRows(b);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(pa[i], pb[i], 1e-6f);
}

TEST(TensorOps, SoftmaxHandlesLargeMagnitudes)
{
    dt::Tensor a({1, 2});
    a[0] = 1000.0f;
    a[1] = -1000.0f;
    dt::Tensor p = dt::softmaxRows(a);
    EXPECT_NEAR(p[0], 1.0f, 1e-6f);
    EXPECT_NEAR(p[1], 0.0f, 1e-6f);
    EXPECT_FALSE(std::isnan(p[0]));
}

/** Matmul associativity/identity properties over random shapes. */
class MatmulProperties
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulProperties, IdentityAndDistribution)
{
    const auto [n, k, m] = GetParam();
    du::Rng rng(static_cast<std::uint64_t>(n * 100 + k * 10 + m));
    dt::Tensor a({static_cast<std::size_t>(n), static_cast<std::size_t>(k)});
    dt::Tensor b({static_cast<std::size_t>(k), static_cast<std::size_t>(m)});
    dt::Tensor c({static_cast<std::size_t>(k), static_cast<std::size_t>(m)});
    a.fillGaussian(rng, 1.0f);
    b.fillGaussian(rng, 1.0f);
    c.fillGaussian(rng, 1.0f);

    // A(B + C) == AB + AC
    dt::Tensor lhs = dt::matmul(a, dt::add(b, c));
    dt::Tensor rhs = dt::add(dt::matmul(a, b), dt::matmul(a, c));
    for (std::size_t i = 0; i < lhs.size(); ++i)
        EXPECT_NEAR(lhs[i], rhs[i], 1e-4f);

    // A * I == A
    dt::Tensor eye({static_cast<std::size_t>(k),
                    static_cast<std::size_t>(k)});
    for (int i = 0; i < k; ++i)
        eye.at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) =
            1.0f;
    dt::Tensor ai = dt::matmul(a, eye);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(ai[i], a[i], 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulProperties,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 2, 7), std::make_tuple(8, 8, 8),
                      std::make_tuple(1, 16, 3)));
