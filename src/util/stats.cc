#include "util/stats.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace decepticon::util {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    if (p <= 0.0)
        return xs.front();
    if (p >= 100.0)
        return xs.back();
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= xs.size())
        return xs.back();
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    assert(xs.size() == ys.size());
    if (xs.empty())
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

std::vector<int>
topKClasses(const std::vector<double> &probs, std::size_t k)
{
    // a ranks before b: higher probability, then lower index; NaN
    // ranks below every number.
    const auto before = [&](int a, int b) {
        const double pa = probs[static_cast<std::size_t>(a)];
        const double pb = probs[static_cast<std::size_t>(b)];
        if (std::isnan(pa) || std::isnan(pb))
            return std::isnan(pa) == std::isnan(pb) ? a < b
                                                    : std::isnan(pb);
        return pa > pb || (pa == pb && a < b);
    };
    std::vector<int> top;
    top.reserve(std::min(k, probs.size()));
    // Move the last entry up to its place in the sorted prefix.
    const auto sift_last = [&] {
        for (std::size_t j = top.size() - 1;
             j > 0 && before(top[j], top[j - 1]); --j)
            std::swap(top[j], top[j - 1]);
    };
    const int n = static_cast<int>(probs.size());
    int i = 0;
    for (; i < n && top.size() < k; ++i) {
        top.push_back(i);
        sift_last();
    }
    if (top.empty())
        return top;
    // Every later i is past every kept index, so only a strictly
    // better probability (or a number over a NaN) takes the last slot.
    double last = probs[static_cast<std::size_t>(top.back())];
    bool last_nan = std::isnan(last);
    for (; i < n; ++i) {
        const double p = probs[static_cast<std::size_t>(i)];
        if (p > last || (last_nan && !std::isnan(p))) {
            top.back() = i;
            sift_last();
            last = probs[static_cast<std::size_t>(top.back())];
            last_nan = std::isnan(last);
        }
    }
    return top;
}

Histogram::Histogram(double low, double high, std::size_t bins)
    : lo(low), hi(high), counts(bins, 0)
{
    assert(bins > 0);
    assert(hi > lo);
}

void
Histogram::add(double x)
{
    if (x < lo)
        ++underflow;
    else if (x > hi)
        ++overflow;
    const double t = (x - lo) / (hi - lo);
    auto idx = static_cast<long>(t * static_cast<double>(counts.size()));
    idx = std::clamp<long>(idx, 0, static_cast<long>(counts.size()) - 1);
    ++counts[static_cast<std::size_t>(idx)];
}

void
Histogram::addAll(const std::vector<double> &xs)
{
    for (double x : xs)
        add(x);
}

double
Histogram::binCenter(std::size_t i) const
{
    const double w = (hi - lo) / static_cast<double>(counts.size());
    return lo + (static_cast<double>(i) + 0.5) * w;
}

double
Histogram::fractionWithinAbs(const std::vector<double> &xs, double bound)
{
    if (xs.empty())
        return 0.0;
    std::size_t n = 0;
    for (double x : xs) {
        if (std::fabs(x) <= bound)
            ++n;
    }
    return static_cast<double>(n) / static_cast<double>(xs.size());
}

} // namespace decepticon::util
