#include "ledger.hh"

#include <algorithm>
#include <cmath>

namespace campaignbench {

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    const double rank =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
    return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

bool
sessionFailed(const decepticon::core::VictimOutcome &outcome, bool level2)
{
    if (outcome.blackout)
        return false;
    if (outcome.abstained)
        return true;
    return level2 && !outcome.cloned && !outcome.cloneReused;
}

std::size_t
failedSessions(const decepticon::core::CampaignReport &report, bool level2)
{
    return static_cast<std::size_t>(std::count_if(
        report.victims.begin(), report.victims.end(),
        [&](const auto &v) { return sessionFailed(v, level2); }));
}

double
failedShare(const decepticon::core::CampaignReport &report, bool level2)
{
    if (report.victims.empty())
        return 0.0;
    return static_cast<double>(failedSessions(report, level2)) /
           static_cast<double>(report.victims.size());
}

std::vector<double>
timeToCloneSamples(const decepticon::core::CampaignReport &report)
{
    std::vector<double> out;
    out.reserve(report.victims.size());
    for (const auto &v : report.victims)
        out.push_back(static_cast<double>(v.timeToCloneMicros));
    return out;
}

double
cloneAgreementMean(const decepticon::core::CampaignReport &report)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &v : report.victims) {
        if (!v.cloned)
            continue;
        sum += v.agreement;
        ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void
Ledger::addSpan(const std::string &layer, std::uint64_t nanos,
                bool top_level)
{
    Layer &l = layers_[layer];
    l.totals.calls += 1;
    l.totals.busyNanos += nanos;
    l.topLevel = top_level;
}

void
Ledger::addParallelRegion(
    std::uint64_t wall_nanos, std::uint64_t task_nanos,
    const std::map<std::string, std::uint64_t> &layer_nanos,
    const std::map<std::string, std::uint64_t> &layer_calls,
    bool top_level)
{
    for (const auto &[name, calls] : layer_calls) {
        Layer &l = layers_[name];
        l.totals.calls += calls;
        l.topLevel = top_level;
    }
    if (task_nanos == 0)
        return;
    for (const auto &[name, nanos] : layer_nanos) {
        const double share = static_cast<double>(nanos) /
                             static_cast<double>(task_nanos);
        Layer &l = layers_[name];
        l.totals.busyNanos += static_cast<std::uint64_t>(
            std::floor(static_cast<double>(wall_nanos) * share));
        l.topLevel = top_level;
    }
}

LayerTotals
Ledger::layer(const std::string &name) const
{
    const auto it = layers_.find(name);
    return it == layers_.end() ? LayerTotals{} : it->second.totals;
}

std::uint64_t
Ledger::selfNanos() const
{
    std::uint64_t attributed = 0;
    for (const auto &[name, l] : layers_)
        if (l.topLevel)
            attributed += l.totals.busyNanos;
    return attributed >= driverWallNanos_ ? 0
                                          : driverWallNanos_ - attributed;
}

double
Ledger::unattributedPct() const
{
    if (driverWallNanos_ == 0)
        return 0.0;
    return 100.0 * static_cast<double>(selfNanos()) /
           static_cast<double>(driverWallNanos_);
}

} // namespace campaignbench
