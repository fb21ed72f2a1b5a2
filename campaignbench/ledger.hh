/**
 * @file
 * The benchmark's own arithmetic, kept apart from the program it
 * measures so campaignbench_test can pin it down: percentiles with
 * their sample support, the failed-session rule, robust summaries of
 * repeated trials, and the per-layer span ledger with its residual.
 */

#ifndef CAMPAIGNBENCH_LEDGER_HH
#define CAMPAIGNBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/campaign_report.hh"

namespace campaignbench {

/**
 * Percentile q in [0, 1] of samples, linearly interpolated between
 * the two closest ranks (the "type 7" estimator numpy and R use by
 * default). 0 for an empty sample.
 */
double percentile(std::vector<double> samples, double q);

/** Median of samples (percentile 0.5); 0 for an empty sample. */
double median(std::vector<double> samples);

/**
 * Samples strictly above the rank percentile(q) interpolates at, in a
 * sample of n. A tail percentile is only reported when at least
 * kMinTailSamples lie beyond it.
 */
std::size_t samplesBeyond(std::size_t n, double q);

/** The fewest samples a reported tail percentile may rest on. */
constexpr std::size_t kMinTailSamples = 10;

/**
 * A session failed when it was not a blackout and either abstained or
 * ran with level 2 on and ended with neither a fresh nor a reused
 * clone. A blackout abstention is the correct verdict, not a failure.
 */
bool sessionFailed(const decepticon::core::VictimOutcome &outcome,
                   bool level2);

/** Failed sessions of a report under sessionFailed. */
std::size_t failedSessions(const decepticon::core::CampaignReport &report,
                           bool level2);

/** failedSessions / sessions; 0 for an empty report. */
double failedShare(const decepticon::core::CampaignReport &report,
                   bool level2);

/** Time-to-clone samples of every victim, queue order (microseconds). */
std::vector<double>
timeToCloneSamples(const decepticon::core::CampaignReport &report);

/** Mean agreement over freshly built clones; 0 when none were built. */
double cloneAgreementMean(const decepticon::core::CampaignReport &report);

/** Calls and busy time of one layer function. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    std::uint64_t busyNanos = 0;
};

/**
 * Per-layer busy time of one traced replay, plus the driver wall it
 * sits in. Layers are either top-level (their busy times partition the
 * driver wall, less the residual) or children of a top-level layer
 * (recorded for the breakdown, excluded from the residual).
 */
class Ledger
{
  public:
    /** Add one serial call's span to a layer. */
    void addSpan(const std::string &layer, std::uint64_t nanos,
                 bool top_level = true);

    /**
     * Attribute the wall time of one parallel region to the layers
     * called inside it. Each layer gets wall × (its summed span time ÷
     * the summed time of every task in the region), so the layers add
     * up to at most the region's wall; the part of the tasks outside
     * any layer span stays with the residual.
     *
     * @param wall_nanos the region's wall time on the calling thread
     * @param task_nanos summed durations of every task in the region
     * @param layer_nanos summed span durations per layer
     * @param layer_calls calls per layer
     */
    void addParallelRegion(
        std::uint64_t wall_nanos, std::uint64_t task_nanos,
        const std::map<std::string, std::uint64_t> &layer_nanos,
        const std::map<std::string, std::uint64_t> &layer_calls,
        bool top_level = true);

    /** Add wall time spent inside the replayed driver. */
    void addDriverWall(std::uint64_t nanos) { driverWallNanos_ += nanos; }

    /** Totals of one layer (zero when it never ran). */
    LayerTotals layer(const std::string &name) const;

    std::uint64_t driverWallNanos() const { return driverWallNanos_; }

    /** Driver wall minus the summed busy time of top-level layers
     *  (never negative). */
    std::uint64_t selfNanos() const;

    /** selfNanos as a percentage of the driver wall (0 without wall). */
    double unattributedPct() const;

  private:
    struct Layer
    {
        LayerTotals totals;
        bool topLevel = true;
    };
    std::map<std::string, Layer> layers_;
    std::uint64_t driverWallNanos_ = 0;
};

} // namespace campaignbench

#endif // CAMPAIGNBENCH_LEDGER_HH
