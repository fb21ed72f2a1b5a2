/**
 * @file
 * Thread-safe registry of named counters, gauges, and latency
 * histograms — the quantitative half of the telemetry layer. Counters
 * accumulate monotonically (bits hammered, kernels emitted), gauges
 * hold the latest value of a measurement (CNN confidence, phase wall
 * time), and log-bucketed histograms (LogHistogram) capture
 * distributions.
 * The whole registry exports as one JSON object: the shape of every
 * metrics file, DECEPTICON_OBS dumps and BENCH_*.json snapshots alike.
 */

#ifndef DECEPTICON_OBS_METRICS_HH
#define DECEPTICON_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

#include "obs/quantile.hh"

namespace decepticon::obs {

/** Named-metric store. All member functions are thread-safe. */
class MetricsRegistry
{
  public:
    /** Add delta to a counter, creating it at zero first. */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Set a gauge to the given value, creating it if needed. */
    void setGauge(const std::string &name, double value);

    /**
     * Record one sample into a named log-bucketed latency histogram
     * (LogHistogram: fixed geometry, so every registry agrees on
     * bucket boundaries and snapshots can be diffed/merged). Use for
     * anything spanning orders of magnitude — stage latencies in
     * microseconds, queue depths, retry counts. A quantity below 1
     * (a probability) is recorded in a unit the name carries, e.g.
     * `level1.confidence_pct`.
     */
    void observeLatency(const std::string &name, double value);

    /** Current counter value (0 if absent). */
    std::uint64_t counter(const std::string &name) const;

    /** Current gauge value (0.0 if absent). */
    double gauge(const std::string &name) const;

    /** Copy of a latency histogram (nullopt if absent). */
    std::optional<LogHistogram> latency(const std::string &name) const;

    /** Drop every metric. */
    void reset();

    /**
     * Single JSON object:
     *   {"counters":{...},"gauges":{...},"latencies":{...}}
     * where each latency is {"p50":..,"p90":..,"p99":..,"mean":..,
     * "count":N,"underflow":N,"overflow":N,"sum":..,"counts":[..]}.
     * The "latencies" section is omitted when empty. Exports written
     * before the fixed-width histograms went carry a "histograms"
     * section too; its readers (obsview, bench_compare.py) skip it.
     */
    void exportJson(std::ostream &out) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, LogHistogram> latencies_;
};

/** JSON string literal (quotes + escapes) for exporters. */
std::string jsonQuote(const std::string &s);

/** Finite-safe JSON number rendering (NaN/inf become null). */
std::string jsonNumber(double v);

} // namespace decepticon::obs

#endif // DECEPTICON_OBS_METRICS_HH
