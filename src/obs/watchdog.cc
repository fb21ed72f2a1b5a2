#include "obs/watchdog.hh"

#include <sstream>

namespace decepticon::obs {

namespace {

/** Max corrupted/attempts delta rate before a fault spike. */
constexpr double kFaultRateMax = 0.75;
/** Max insufficient-evidence/identify delta rate before an abstain
 *  anomaly. */
constexpr double kAbstainRateMax = 0.5;
/** Minimum attempts in a delta window before rates are judged. */
constexpr std::uint64_t kMinSamples = 4;

std::uint64_t
lookup(const std::map<std::string, std::uint64_t> &counters,
       const std::string &name)
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

void
writeFinding(std::ostream &out, const WatchdogFinding &f)
{
    out << "{\"kind\":" << jsonQuote(f.kind)
        << ",\"subject\":" << jsonQuote(f.subject)
        << ",\"value\":" << jsonNumber(f.value)
        << ",\"threshold\":" << jsonNumber(f.threshold)
        << ",\"message\":" << jsonQuote(f.message) << "}";
}

} // anonymous namespace

void
WatchdogReport::toJson(std::ostream &out) const
{
    out << "{\"ticks\":" << ticks
        << ",\"healthy\":" << (healthy() ? "true" : "false")
        << ",\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        if (i)
            out << ",";
        writeFinding(out, findings[i]);
    }
    out << "]}";
}

Watchdog::Watchdog()
{
    addFaultBand("fault.captures_corrupted", "fault.capture_attempts",
                 "trace_capture");
    addFaultBand("fault.channel.jammed_captures",
                 "fault.channel.capture_attempts", "channels");
}

void
Watchdog::addFaultBand(const std::string &corruptedCounter,
                       const std::string &attemptsCounter,
                       const std::string &subject)
{
    bands_.push_back(FaultBand{corruptedCounter, attemptsCounter, subject,
                               /*flagged=*/false});
}

std::vector<WatchdogFinding>
Watchdog::tick(MetricsRegistry &registry)
{
    const std::map<std::string, std::uint64_t> now =
        registry.counterSnapshot();
    std::vector<WatchdogFinding> fresh;

    if (havePrev_) {
        // ---- fault spikes: corrupted/attempts delta rate ---------
        for (FaultBand &band : bands_) {
            const std::uint64_t att =
                lookup(now, band.attempts) - lookup(prev_, band.attempts);
            const std::uint64_t bad = lookup(now, band.corrupted) -
                                      lookup(prev_, band.corrupted);
            if (att < kMinSamples) {
                band.flagged = false;
                continue;
            }
            const double rate =
                static_cast<double>(bad) / static_cast<double>(att);
            if (rate > kFaultRateMax) {
                if (!band.flagged) {
                    band.flagged = true;
                    std::ostringstream msg;
                    msg << band.subject << " fault rate " << rate
                        << " over " << att
                        << " attempt(s) exceeds band "
                        << kFaultRateMax;
                    fresh.push_back(WatchdogFinding{
                        "fault_spike", band.subject, rate,
                        kFaultRateMax, msg.str()});
                    registry.add("obs.watchdog.fault_spikes");
                }
            } else {
                band.flagged = false;
            }
        }

        // ---- abstain anomalies: insufficient-evidence rate -------
        {
            const std::uint64_t ids =
                lookup(now, "level1.identifies") -
                lookup(prev_, "level1.identifies");
            const std::uint64_t abst =
                lookup(now, "level1.insufficient_evidence") -
                lookup(prev_, "level1.insufficient_evidence");
            if (ids >= kMinSamples) {
                const double rate =
                    static_cast<double>(abst) / static_cast<double>(ids);
                if (rate > kAbstainRateMax) {
                    if (!abstainFlagged_) {
                        abstainFlagged_ = true;
                        std::ostringstream msg;
                        msg << "fusion abstained on " << abst << " of "
                            << ids << " identification(s) (rate " << rate
                            << " > " << kAbstainRateMax << ")";
                        fresh.push_back(WatchdogFinding{
                            "abstain_anomaly", "level1.fusion", rate,
                            kAbstainRateMax, msg.str()});
                        registry.add("obs.watchdog.abstain_anomalies");
                    }
                } else {
                    abstainFlagged_ = false;
                }
            }
        }
    }

    prev_ = now;
    havePrev_ = true;
    ++report_.ticks;
    registry.add("obs.watchdog.ticks");
    if (!fresh.empty())
        registry.add("obs.watchdog.findings", fresh.size());
    report_.findings.insert(report_.findings.end(), fresh.begin(),
                            fresh.end());
    return fresh;
}

} // namespace decepticon::obs
