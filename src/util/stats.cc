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
variance(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return s / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    return std::sqrt(variance(xs));
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

std::size_t
Histogram::total() const
{
    std::size_t n = 0;
    for (auto c : counts)
        n += c;
    return n;
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
