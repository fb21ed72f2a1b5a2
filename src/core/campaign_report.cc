#include "core/campaign_report.hh"

#include <sstream>

#include "obs/metrics.hh"

namespace decepticon::core {

namespace {

/** Max abstained/level-1 row rate before an abstain anomaly. */
constexpr double kAbstainRateMax = 0.5;
/** Minimum level-1 rows in a batch before its rate is judged. */
constexpr std::size_t kMinSamples = 4;

} // anonymous namespace

void
judgeBatch(std::span<const VictimOutcome> rows, WatchdogReport &watchdog)
{
    ++watchdog.batches;
    std::size_t ids = 0;
    std::size_t abst = 0;
    for (const VictimOutcome &row : rows) {
        ids += row.cacheHit ? 0 : 1;
        abst += row.abstained ? 1 : 0;
    }
    if (ids < kMinSamples)
        return;
    const double rate =
        static_cast<double>(abst) / static_cast<double>(ids);
    if (rate <= kAbstainRateMax) {
        watchdog.abstainFlagged = false;
        return;
    }
    if (watchdog.abstainFlagged)
        return;
    watchdog.abstainFlagged = true;
    std::ostringstream msg;
    msg << "fusion abstained on " << abst << " of " << ids
        << " identification(s) (rate " << rate << " > "
        << kAbstainRateMax << ")";
    watchdog.findings.push_back(WatchdogFinding{
        "abstain_anomaly", "level1.fusion", rate, kAbstainRateMax,
        msg.str()});
}

void
CampaignReport::recordVictim(VictimOutcome outcome)
{
    ++sessions;
    if (outcome.blackout)
        ++blackouts;
    if (outcome.abstained) {
        ++abstained;
    } else {
        ++identified;
        if (outcome.identityCorrect)
            ++correct;
    }
    if (outcome.cloned)
        ++clonesBuilt;
    if (outcome.cloneReused)
        ++cloneReuses;
    timeToClone.add(static_cast<double>(outcome.timeToCloneMicros));
    victims.push_back(std::move(outcome));
}

double
CampaignReport::identificationAccuracy() const
{
    if (identified == 0)
        return 0.0;
    return static_cast<double>(correct) / static_cast<double>(identified);
}

double
CampaignReport::cacheHitRate() const
{
    const std::size_t lookups = cacheHits + cacheMisses + cacheStale;
    if (lookups == 0)
        return 0.0;
    return static_cast<double>(cacheHits) / static_cast<double>(lookups);
}

double
CampaignReport::victimsPerSec() const
{
    if (totalMicros == 0)
        return 0.0;
    return static_cast<double>(sessions) /
           (static_cast<double>(totalMicros) / 1e6);
}

std::string
CampaignReport::toJson() const
{
    std::ostringstream oss;
    oss << "{\"queue\":{"
        << "\"sessions\":" << sessions
        << ",\"identified\":" << identified
        << ",\"correct\":" << correct
        << ",\"abstained\":" << abstained
        << ",\"blackouts\":" << blackouts
        << ",\"accuracy\":" << obs::jsonNumber(identificationAccuracy())
        << "},\"cache\":{"
        << "\"hits\":" << cacheHits
        << ",\"misses\":" << cacheMisses
        << ",\"stale\":" << cacheStale
        << ",\"evictions\":" << cacheEvictions
        << ",\"invalidations\":" << cacheInvalidations
        << ",\"hit_rate\":" << obs::jsonNumber(cacheHitRate())
        << "},\"level2\":{"
        << "\"clones_built\":" << clonesBuilt
        << ",\"clone_reuses\":" << cloneReuses
        << "},\"throughput\":{"
        << "\"total_micros\":" << totalMicros
        << ",\"victims_per_sec\":" << obs::jsonNumber(victimsPerSec())
        << ",\"time_to_clone_p50_micros\":"
        << obs::jsonNumber(timeToClone.quantile(0.5))
        << ",\"time_to_clone_p99_micros\":"
        << obs::jsonNumber(timeToClone.quantile(0.99))
        << ",\"time_to_clone_samples\":" << timeToClone.total()
        << "},\"victims\":[";
    for (std::size_t i = 0; i < victims.size(); ++i) {
        const VictimOutcome &v = victims[i];
        if (i > 0)
            oss << ",";
        oss << "{\"index\":" << v.index
            << ",\"lineage\":" << obs::jsonQuote(v.lineage)
            << ",\"parent\":" << obs::jsonQuote(v.identifiedParent)
            << ",\"correct\":" << (v.identityCorrect ? "true" : "false")
            << ",\"cache_hit\":" << (v.cacheHit ? "true" : "false")
            << ",\"clone_reused\":" << (v.cloneReused ? "true" : "false")
            << ",\"blackout\":" << (v.blackout ? "true" : "false")
            << ",\"abstained\":" << (v.abstained ? "true" : "false")
            << ",\"cloned\":" << (v.cloned ? "true" : "false")
            << ",\"agreement\":" << obs::jsonNumber(v.agreement)
            << ",\"time_to_clone_micros\":" << v.timeToCloneMicros
            << "}";
    }
    oss << "],\"watchdog\":{\"batches\":" << watchdog.batches
        << ",\"healthy\":" << (watchdog.healthy() ? "true" : "false")
        << ",\"findings\":[";
    for (std::size_t i = 0; i < watchdog.findings.size(); ++i) {
        const WatchdogFinding &f = watchdog.findings[i];
        if (i > 0)
            oss << ",";
        oss << "{\"kind\":" << obs::jsonQuote(f.kind)
            << ",\"subject\":" << obs::jsonQuote(f.subject)
            << ",\"value\":" << obs::jsonNumber(f.value)
            << ",\"threshold\":" << obs::jsonNumber(f.threshold)
            << ",\"message\":" << obs::jsonQuote(f.message) << "}";
    }
    oss << "]}}";
    return oss.str();
}

void
CampaignReport::toMetrics(obs::MetricsRegistry &registry) const
{
    const auto gauge = [&](const char *name, double value) {
        registry.setGauge(std::string("campaign.") + name, value);
    };
    gauge("sessions", static_cast<double>(sessions));
    gauge("identified", static_cast<double>(identified));
    gauge("correct", static_cast<double>(correct));
    gauge("abstained", static_cast<double>(abstained));
    gauge("blackouts", static_cast<double>(blackouts));
    gauge("identification_accuracy", identificationAccuracy());
    gauge("cache.hits", static_cast<double>(cacheHits));
    gauge("cache.misses", static_cast<double>(cacheMisses));
    gauge("cache.stale", static_cast<double>(cacheStale));
    gauge("cache.evictions", static_cast<double>(cacheEvictions));
    gauge("cache.invalidations",
          static_cast<double>(cacheInvalidations));
    gauge("cache.hit_rate", cacheHitRate());
    gauge("clones_built", static_cast<double>(clonesBuilt));
    gauge("clone_reuses", static_cast<double>(cloneReuses));
    gauge("total_micros", static_cast<double>(totalMicros));
    gauge("victims_per_sec", victimsPerSec());
    gauge("time_to_clone.p50_micros", timeToClone.quantile(0.5));
    gauge("time_to_clone.p99_micros", timeToClone.quantile(0.99));
    gauge("watchdog_batches", static_cast<double>(watchdog.batches));
    gauge("watchdog_findings",
          static_cast<double>(watchdog.findings.size()));
}

} // namespace decepticon::core
