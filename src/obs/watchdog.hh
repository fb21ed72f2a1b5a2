/**
 * @file
 * Pipeline watchdog — the SLO half of obs v2. A Watchdog is ticked on
 * the driver thread (phase ends in a single run, batch ends in a
 * campaign); each tick snapshots the registry's counters and compares
 * them with the previous snapshot:
 *
 *  - **fault_spike**: a corrupted/attempts counter-pair delta rate
 *    above 0.75;
 *  - **abstain_anomaly**: the fusion insufficient-evidence rate over
 *    identification attempts above 0.5.
 *
 * Rates are judged only over windows of at least 4 attempts (no 1-of-1
 * spikes). The bands are deliberately loose: the watchdog exists to
 * catch pathology, not to grade ordinary jitter.
 *
 * Each finding is flagged once at the threshold crossing (re-flagged
 * only after recovery), published as obs.watchdog.* counters on the
 * watched registry, and accumulated into a WatchdogReport that
 * core::AttackRunReport embeds. A healthy run yields zero findings.
 */

#ifndef DECEPTICON_OBS_WATCHDOG_HH
#define DECEPTICON_OBS_WATCHDOG_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace decepticon::obs {

/** One SLO violation. */
struct WatchdogFinding
{
    /** "fault_spike" | "abstain_anomaly". */
    std::string kind;
    /** Stage or counter-pair the finding is about. */
    std::string subject;
    /** Observed rate. */
    double value = 0.0;
    /** The band it crossed. */
    double threshold = 0.0;
    /** Human-readable one-liner. */
    std::string message;
};

/** Accumulated verdict over a run; embedded in AttackRunReport. */
struct WatchdogReport
{
    std::uint64_t ticks = 0;
    std::vector<WatchdogFinding> findings;

    bool healthy() const { return findings.empty(); }

    /** {"ticks":N,"healthy":b,"findings":[{...},...]} */
    void toJson(std::ostream &out) const;
};

/** Snapshot-diffing SLO monitor. Not thread-safe: tick from one
 *  place (the registry it reads *is* thread-safe). */
class Watchdog
{
  public:
    Watchdog();

    /**
     * Snapshot `registry`, diff against the previous tick, flag
     * violations. Publishes obs.watchdog.{ticks,fault_spikes,
     * abstain_anomalies,findings} counters back onto `registry`.
     * Returns findings new in THIS tick.
     */
    std::vector<WatchdogFinding> tick(MetricsRegistry &registry);

    const WatchdogReport &report() const { return report_; }

  private:
    /** Watch a corrupted/attempts counter pair. */
    void addFaultBand(const std::string &corruptedCounter,
                      const std::string &attemptsCounter,
                      const std::string &subject);

    struct FaultBand
    {
        std::string corrupted;
        std::string attempts;
        std::string subject;
        bool flagged = false;
    };

    WatchdogReport report_;
    std::vector<FaultBand> bands_;
    std::map<std::string, std::uint64_t> prev_;
    bool havePrev_ = false;
    bool abstainFlagged_ = false;
};

} // namespace decepticon::obs

#endif // DECEPTICON_OBS_WATCHDOG_HH
