/**
 * @file
 * Tests for trace-to-image conversion and cropping.
 */

#include <gtest/gtest.h>

#include "gpusim/trace_generator.hh"
#include "trace/image.hh"

namespace dg = decepticon::gpusim;
namespace dtc = decepticon::trace;

namespace {

dg::KernelTrace
makeTrace()
{
    dg::SoftwareSignature sig;
    const dg::TraceGenerator gen(sig);
    dg::ArchParams arch;
    arch.numLayers = 6;
    arch.hidden = 256;
    arch.numHeads = 4;
    arch.seqLen = 64;
    return gen.generate(arch, 1);
}

} // anonymous namespace

TEST(Rasterize, OutputShapeAndRange)
{
    const auto trace = makeTrace();
    const auto img = dtc::rasterize(trace, 64);
    EXPECT_EQ(img.shape(), (std::vector<std::size_t>{64, 64}));
    for (std::size_t i = 0; i < img.size(); ++i) {
        EXPECT_GE(img[i], 0.0f);
        EXPECT_LE(img[i], 1.0f);
    }
}

TEST(Rasterize, NonEmptyTraceProducesInk)
{
    const auto trace = makeTrace();
    const auto img = dtc::rasterize(trace, 64);
    EXPECT_GT(img.sum(), 0.0);
}

TEST(Rasterize, EmptyTraceIsBlack)
{
    dg::KernelTrace empty;
    const auto img = dtc::rasterize(empty, 32);
    EXPECT_DOUBLE_EQ(img.sum(), 0.0);
}

TEST(Rasterize, PeakKernelLandsOnTopRow)
{
    dg::KernelTrace t;
    auto names = std::make_shared<dg::KernelNameTable>();
    names->push({"k"});
    t.kernelNames = std::move(names);
    t.records.push_back({0, 0.0, 100.0, dg::Phase::Encoder,
                         dg::KernelClass::Gemm, 0});
    t.records.push_back({0, 150.0, 160.0, dg::Phase::Encoder,
                         dg::KernelClass::Gemm, 0});
    const auto img = dtc::rasterize(t, 16);
    // Longest kernel (dur 100) -> y=1 -> row 0, at x=0 -> col 0.
    EXPECT_GT(img.at(0, 0), 0.0f);
}

TEST(Rasterize, DeterministicForSameTrace)
{
    const auto trace = makeTrace();
    const auto a = dtc::rasterize(trace, 48);
    const auto b = dtc::rasterize(trace, 48);
    EXPECT_DOUBLE_EQ(dtc::imageDistance(a, b), 0.0);
}

TEST(Rasterize, ScaleInvariantToUniformTimeStretch)
{
    // Stretching all timestamps and durations by a constant leaves the
    // normalized image unchanged (the paper strips axis scales).
    auto trace = makeTrace();
    auto stretched = trace;
    for (auto &r : stretched.records) {
        r.tStart *= 3.0;
        r.tEnd *= 3.0;
    }
    const auto a = dtc::rasterize(trace, 32);
    const auto b = dtc::rasterize(stretched, 32);
    EXPECT_LT(dtc::imageDistance(a, b), 1e-9);
}

TEST(CropRecords, RebasesTimestamps)
{
    const auto trace = makeTrace();
    const auto cropped = dtc::cropRecords(trace, 5, 15);
    ASSERT_EQ(cropped.records.size(), 10u);
    EXPECT_DOUBLE_EQ(cropped.records[0].tStart, 0.0);
    const double dur0 = trace.records[5].duration();
    EXPECT_NEAR(cropped.records[0].duration(), dur0, 1e-12);
}

TEST(CropRecords, EmptyRange)
{
    const auto trace = makeTrace();
    const auto cropped = dtc::cropRecords(trace, 3, 3);
    EXPECT_TRUE(cropped.records.empty());
    EXPECT_EQ(cropped.kernelNames->size(), trace.kernelNames->size());
}

TEST(ImageDistance, ZeroForIdentical)
{
    const auto img = dtc::rasterize(makeTrace(), 32);
    EXPECT_DOUBLE_EQ(dtc::imageDistance(img, img), 0.0);
}

TEST(ImageDistance, PositiveForDifferentTraces)
{
    dg::SoftwareSignature s1;
    s1.kernelDialect = 1;
    dg::SoftwareSignature s2;
    s2.framework = dg::Framework::TensorFlow;
    s2.developer = dg::Developer::Google;
    dg::ArchParams arch;
    arch.numLayers = 6;
    const auto a =
        dtc::rasterize(dg::TraceGenerator(s1).generate(arch, 1), 32);
    const auto b =
        dtc::rasterize(dg::TraceGenerator(s2).generate(arch, 1), 32);
    EXPECT_GT(dtc::imageDistance(a, b), 0.0);
}

/** Resolution sweep. */
class ResolutionSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ResolutionSweep, RasterizeAtAnyResolution)
{
    const auto trace = makeTrace();
    const auto res = static_cast<std::size_t>(GetParam());
    const auto img = dtc::rasterize(trace, res);
    EXPECT_EQ(img.dim(0), res);
    EXPECT_EQ(img.dim(1), res);
    EXPECT_GT(img.sum(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResolutionSweep,
                         ::testing::Values(8, 16, 32, 64, 128));

TEST(RenderAscii, ShapeAndCharacters)
{
    const auto trace = makeTrace();
    const auto img = dtc::rasterize(trace, 64);
    const std::string art = dtc::renderAscii(img, 32);
    EXPECT_FALSE(art.empty());
    std::size_t lines = 0;
    for (char c : art) {
        if (c == '\n') {
            ++lines;
            continue;
        }
        EXPECT_NE(std::string(" .:*#@").find(c), std::string::npos)
            << "unexpected character '" << c << "'";
    }
    EXPECT_EQ(lines, 32u);
    // Ink must survive the down-sampling (max pooling).
    EXPECT_NE(art.find_first_not_of(" \n"), std::string::npos);
}

TEST(RenderAscii, BlackImageIsBlank)
{
    decepticon::tensor::Tensor img({16, 16});
    const std::string art = dtc::renderAscii(img, 16);
    EXPECT_EQ(art.find_first_not_of(" \n"), std::string::npos);
}
