/**
 * @file
 * Unit tests for the util library: PRNG, statistics (including the
 * top-k class ranking), edit distance, and table rendering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>

#include "util/edit_distance.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace du = decepticon::util;

namespace {

/** Population standard deviation of a sample. */
double
sampleStddev(const std::vector<double> &xs)
{
    const double m = du::mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size()));
}

/** Character codes of a string, as an edit-distance token sequence. */
std::vector<int>
codes(const std::string &s)
{
    return std::vector<int>(s.begin(), s.end());
}

} // anonymous namespace

TEST(SplitMix64, ProducesKnownStream)
{
    du::SplitMix64 sm(0);
    const std::uint64_t a = sm.next();
    const std::uint64_t b = sm.next();
    EXPECT_NE(a, b);
    du::SplitMix64 sm2(0);
    EXPECT_EQ(sm2.next(), a);
    EXPECT_EQ(sm2.next(), b);
}

TEST(Rng, DeterministicForSameSeed)
{
    du::Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    du::Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.nextU64() != b.nextU64();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval)
{
    du::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    du::Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.5, 3.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 3.5);
    }
}

TEST(Rng, UniformIntBounds)
{
    du::Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u) << "all residues should appear";
}

TEST(Rng, UniformIntOneAlwaysZero)
{
    du::Rng rng(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.uniformInt(1), 0u);
}

TEST(Rng, GaussianMomentsApproximatelyStandard)
{
    du::Rng rng(42);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(rng.gaussian());
    EXPECT_NEAR(du::mean(xs), 0.0, 0.02);
    EXPECT_NEAR(sampleStddev(xs), 1.0, 0.02);
}

TEST(Rng, GaussianShiftScale)
{
    du::Rng rng(42);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.gaussian(5.0, 0.5));
    EXPECT_NEAR(du::mean(xs), 5.0, 0.02);
    EXPECT_NEAR(sampleStddev(xs), 0.5, 0.02);
}

TEST(Rng, BernoulliRate)
{
    du::Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    du::Rng rng(5);
    const auto picked = rng.sampleWithoutReplacement(100, 30);
    EXPECT_EQ(picked.size(), 30u);
    std::set<std::size_t> s(picked.begin(), picked.end());
    EXPECT_EQ(s.size(), 30u);
    for (auto p : picked)
        EXPECT_LT(p, 100u);
}

TEST(Rng, SampleAllElements)
{
    du::Rng rng(5);
    const auto picked = rng.sampleWithoutReplacement(10, 10);
    std::set<std::size_t> s(picked.begin(), picked.end());
    EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, ShuffleIsPermutation)
{
    du::Rng rng(13);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(HashString, StableAndDistinct)
{
    EXPECT_EQ(du::hashString("bert"), du::hashString("bert"));
    EXPECT_NE(du::hashString("bert"), du::hashString("gpt2"));
    EXPECT_NE(du::hashString(""), du::hashString("a"));
}

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(du::mean({}), 0.0);
    EXPECT_DOUBLE_EQ(du::mean({2.0}), 2.0);
    EXPECT_DOUBLE_EQ(du::mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(du::percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(du::percentile(xs, 100), 4.0);
    EXPECT_DOUBLE_EQ(du::percentile(xs, 50), 2.5);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    std::vector<double> x{1, 2, 3, 4};
    std::vector<double> y{2, 4, 6, 8};
    EXPECT_NEAR(du::pearson(x, y), 1.0, 1e-12);
    std::vector<double> yn{8, 6, 4, 2};
    EXPECT_NEAR(du::pearson(x, yn), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero)
{
    std::vector<double> x{1, 2, 3};
    std::vector<double> c{5, 5, 5};
    EXPECT_DOUBLE_EQ(du::pearson(x, c), 0.0);
}

TEST(Stats, HistogramBinningAndClamping)
{
    du::Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.99);
    h.add(-5.0);  // clamps into first bin
    h.add(100.0); // clamps into last bin
    EXPECT_EQ(h.counts.front(), 2u);
    EXPECT_EQ(h.counts.back(), 2u);
}

TEST(Stats, HistogramBinCenter)
{
    du::Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
    EXPECT_DOUBLE_EQ(h.binCenter(9), 9.5);
}

TEST(Stats, FractionWithinAbs)
{
    std::vector<double> xs{-0.001, 0.0005, 0.5, -2.0};
    EXPECT_DOUBLE_EQ(du::Histogram::fractionWithinAbs(xs, 0.001), 0.5);
    EXPECT_DOUBLE_EQ(du::Histogram::fractionWithinAbs(xs, 10.0), 1.0);
}

namespace {

/** iota + partial_sort under (prob desc, index asc): the reference
 *  the linear scan must match. */
std::vector<int>
partialSortTopK(const std::vector<double> &probs, std::size_t k)
{
    std::vector<int> top(probs.size());
    std::iota(top.begin(), top.end(), 0);
    k = std::min(k, top.size());
    std::partial_sort(top.begin(),
                      top.begin() + static_cast<std::ptrdiff_t>(k),
                      top.end(), [&](int a, int b) {
                          const double pa =
                              probs[static_cast<std::size_t>(a)];
                          const double pb =
                              probs[static_cast<std::size_t>(b)];
                          if (pa != pb)
                              return pa > pb;
                          return a < b;
                      });
    top.resize(k);
    return top;
}

} // anonymous namespace

TEST(TopKClasses, TiesBreakTowardTheLowerIndex)
{
    const std::vector<double> probs = {0.2, 0.5, 0.5, 0.1, 0.5, 0.2};
    EXPECT_EQ(du::topKClasses(probs, 3), (std::vector<int>{1, 2, 4}));
    EXPECT_EQ(du::topKClasses(probs, 2), (std::vector<int>{1, 2}));
    EXPECT_EQ(du::topKClasses(probs, 5),
              (std::vector<int>{1, 2, 4, 0, 5}));
    EXPECT_EQ(du::topKClasses(std::vector<double>(6, 0.0), 3),
              (std::vector<int>{0, 1, 2}));
}

TEST(TopKClasses, KLargerThanTheClassCount)
{
    EXPECT_EQ(du::topKClasses({0.1, 0.3}, 3), (std::vector<int>{1, 0}));
    EXPECT_EQ(du::topKClasses({0.4}, 3), (std::vector<int>{0}));
    EXPECT_TRUE(du::topKClasses({}, 3).empty());
    EXPECT_TRUE(du::topKClasses({0.1, 0.3}, 0).empty());
}

TEST(TopKClasses, MatchesPartialSortOnSparseIndexVectors)
{
    // The index path's probability vector: exact zero outside a
    // shortlist, so with one or two non-zero classes the remaining
    // slots go to the lowest-index zero classes.
    const std::size_t n = 4096;
    std::vector<double> one(n, 0.0);
    one[4000] = 1.0;
    EXPECT_EQ(du::topKClasses(one, 3), (std::vector<int>{4000, 0, 1}));
    std::vector<double> two(n, 0.0);
    two[3000] = 0.25;
    two[17] = 0.75;
    EXPECT_EQ(du::topKClasses(two, 3), (std::vector<int>{17, 3000, 0}));
    std::vector<double> tied(n, 0.0);
    tied[2048] = 0.5;
    tied[9] = 0.5;
    EXPECT_EQ(du::topKClasses(tied, 3), (std::vector<int>{9, 2048, 0}));
    for (const auto *probs : {&one, &two, &tied}) {
        for (std::size_t k : {1u, 2u, 3u, 5u})
            EXPECT_EQ(du::topKClasses(*probs, k),
                      partialSortTopK(*probs, k));
    }

    // Dense vectors with many ties, as a softmax over few distinct
    // distances gives.
    du::Rng rng(17);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> probs(1 + rng.uniformInt(300));
        for (auto &p : probs)
            p = static_cast<double>(rng.uniformInt(6)) / 8.0;
        for (std::size_t k : {1u, 3u, 7u})
            EXPECT_EQ(du::topKClasses(probs, k),
                      partialSortTopK(probs, k));
    }
}

TEST(TopKClasses, NaNRanksBelowEveryNumber)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(du::topKClasses({0.1, nan, 0.7, 0.2}, 3),
              (std::vector<int>{2, 3, 0}));
    EXPECT_EQ(du::topKClasses({nan, 0.0, nan, 0.3}, 3),
              (std::vector<int>{3, 1, 0}));
    EXPECT_EQ(du::topKClasses({nan, nan, nan, nan}, 3),
              (std::vector<int>{0, 1, 2}));
}

TEST(EditDistance, KnownCases)
{
    EXPECT_EQ(du::editDistance(codes("kitten"), codes("sitting")), 3u);
    EXPECT_EQ(du::editDistance(codes(""), codes("abc")), 3u);
    EXPECT_EQ(du::editDistance(codes("abc"), codes("abc")), 0u);
}

TEST(EditDistance, IntSequences)
{
    EXPECT_EQ(du::editDistance(std::vector<int>{1, 2, 3},
                               std::vector<int>{1, 3}), 1u);
    EXPECT_EQ(du::editDistance(std::vector<int>{}, std::vector<int>{1}), 1u);
}

TEST(EditDistance, LerCanExceedOne)
{
    // Predictions far longer than the truth give LER > 1 — the regime
    // where Table 2 declares DeepSniffer unusable.
    std::vector<int> truth{1, 2, 3};
    std::vector<int> pred(30, 7);
    EXPECT_GT(du::layerErrorRate(pred, truth), 1.0);
}

TEST(EditDistance, LerZeroForExactMatch)
{
    std::vector<int> seq{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(du::layerErrorRate(seq, seq), 0.0);
}

TEST(Table, AsciiContainsHeadersAndCells)
{
    du::Table t({"name", "value"});
    t.row().cell("foo").cell(1.5, 2);
    t.row().cell("bar").cell(static_cast<long long>(7));
    std::ostringstream oss;
    t.printAscii(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("foo"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("7"), std::string::npos);
}

/** Percentile sweep: monotone non-decreasing in p. */
class PercentileMonotone : public ::testing::TestWithParam<int>
{
};

TEST_P(PercentileMonotone, NonDecreasing)
{
    du::Rng rng(GetParam());
    std::vector<double> xs;
    for (int i = 0; i < 200; ++i)
        xs.push_back(rng.gaussian());
    double prev = du::percentile(xs, 0);
    for (int p = 5; p <= 100; p += 5) {
        const double cur = du::percentile(xs, p);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5));

/** Edit distance metric properties over random sequences. */
class EditDistanceProperties : public ::testing::TestWithParam<int>
{
};

TEST_P(EditDistanceProperties, SymmetryAndTriangle)
{
    du::Rng rng(GetParam());
    auto random_seq = [&](std::size_t n) {
        std::vector<int> s(n);
        for (auto &v : s)
            v = static_cast<int>(rng.uniformInt(4));
        return s;
    };
    const auto a = random_seq(12);
    const auto b = random_seq(9);
    const auto c = random_seq(15);
    EXPECT_EQ(du::editDistance(a, b), du::editDistance(b, a));
    EXPECT_LE(du::editDistance(a, c),
              du::editDistance(a, b) + du::editDistance(b, c));
    EXPECT_EQ(du::editDistance(a, a), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperties,
                         ::testing::Range(1, 11));
