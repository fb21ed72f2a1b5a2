/**
 * @file
 * Process-wide telemetry facade. Instrumentation sites call the free
 * functions here (span / count / gaugeSet / observeLatency); when
 * telemetry is off — the default — every call is a relaxed atomic
 * load and an early return, so the attack pipeline pays nothing for
 * being observable. Enable programmatically with configure(), or from the
 * environment:
 *
 *   DECEPTICON_OBS=trace:/tmp/run.json,metrics:/tmp/metrics.json
 *
 * comma-separated sinks; "metrics:<path>" writes the registry as one
 * JSON object (MetricsRegistry::exportJson) at exit, "trace:<path>" a
 * Chrome trace-event file rendered from the flight recorder's
 * canonical event stream (a trace path turns flight recording on when
 * its mode is Off). Bare "metrics" (or "on")
 * enables in-memory metrics without a file sink, which is what tests
 * use.
 *
 * Spans are flight events, so the flight recorder is the one event
 * store. Its own knob (same near-zero-cost no-op path when off — one
 * relaxed atomic load per call site):
 *
 *   DECEPTICON_OBS_FLIGHT=off | on[:<path>] | on_error[:<path>]
 *
 * "on" records always and dumps the canonical JSONL stream to <path>
 * at flush; "on_error" records always but dumps only when the run
 * noted an error (insufficient-evidence abstain, extraction failure),
 * which is the always-on triage mode for campaigns.
 */

#ifndef DECEPTICON_OBS_OBS_HH
#define DECEPTICON_OBS_OBS_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "obs/clock.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"

namespace decepticon::obs {

/** Flight-recorder operating mode. */
enum class FlightMode : int
{
    Off = 0,
    /** Record; dump at flush when a path is configured. */
    On = 1,
    /** Record; dump at flush only if flightNoteError() was called. */
    OnError = 2,
};

/** Telemetry sink selection. */
struct ObsConfig
{
    bool metricsEnabled = false;
    /** JSON metrics dump path; empty = in-memory only. */
    std::string metricsPath;
    /** Chrome trace-event path, rendered from the flight stream at
     *  flush; empty = no trace. Non-empty records even when
     *  flightMode is Off. */
    std::string tracePath;
    FlightMode flightMode = FlightMode::Off;
    /** Flight JSONL dump path; empty = in-memory only. */
    std::string flightPath;
};

/**
 * Parse a DECEPTICON_OBS-style spec ("trace:/p,metrics:/q", "metrics",
 * "on", "off"/""). Unknown sink names, and "trace" without a path,
 * are ignored.
 */
ObsConfig parseObsSpec(const std::string &spec);

/**
 * Parse a DECEPTICON_OBS_FLIGHT spec ("off", "on", "on:/p",
 * "on_error", "on_error:/p") into the flight fields of a config.
 * Unknown modes read as Off.
 */
void parseFlightSpec(const std::string &spec, ObsConfig &config);

/** Apply a configuration (also registers the exit-time flush once). */
void configure(const ObsConfig &config);

/** configure(parseObsSpec(getenv("DECEPTICON_OBS"))); safe if unset. */
void initFromEnv();

/** Write the configured metrics/trace/flight files now (no-op without
 *  paths). */
void flush();

/** Disable telemetry and clear all collected data (test teardown). */
void shutdown();

bool metricsEnabled();

/** Current flight mode (relaxed atomic load — the fast-path gate);
 *  On when only a trace path is configured. */
FlightMode flightMode();

/** True when any flight recording is active. */
inline bool
flightEnabled()
{
    return flightMode() != FlightMode::Off;
}

/** The process-wide registry (always exists; cold when disabled). */
MetricsRegistry &metrics();

/** The telemetry clock (steady by default; injectable for tests).
 *  Lock-free: one atomic load. */
Clock &clock();

/**
 * Inject a test clock (not owned; pass nullptr to restore the steady
 * default). Affects timestamps taken after the call.
 */
void setClockForTest(Clock *test_clock);

/** Counter increment; no-op when metrics are off. */
void count(const char *name, std::uint64_t delta = 1);

/** Gauge store; no-op when metrics are off. */
void gaugeSet(const char *name, double value);

/** Log-bucketed latency sample; no-op when metrics are off. */
void observeLatency(const char *name, double value);

/** The process-wide flight recorder (always exists; cold when off). */
FlightRecorder &flightRecorder();

/** Record a flight event; no-op when the recorder is off. The
 *  timestamp is stamped from obs::clock() here. */
void flightRecord(FlightEventKind kind, const char *stage,
                  const char *detail = "", double value = 0.0);

/** Mark the run errored so on_error mode dumps at flush; no-op when
 *  the recorder is off. */
void flightNoteError();

/**
 * RAII span: records a StageEnter flight event named @p name on open
 * and a StageExit carrying the duration (µs) in its value on close.
 * The Chrome trace renders each StageExit as one complete event
 * (FlightRecorder::renderChromeTrace). Inactive when flight recording
 * is off — the disabled path is a two-word store and a null check.
 * The name must outlive the span (pass a literal).
 */
class Span
{
  public:
    Span() = default;
    explicit Span(const char *name);

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    Span(Span &&other) noexcept : name_(other.name_), t0_(other.t0_)
    {
        other.name_ = nullptr;
    }

    Span &
    operator=(Span &&other) noexcept
    {
        if (this != &other) {
            end();
            name_ = other.name_;
            t0_ = other.t0_;
            other.name_ = nullptr;
        }
        return *this;
    }

    ~Span() { end(); }

    /** Close early (the destructor otherwise closes at scope exit). */
    void
    end() noexcept
    {
        if (name_ != nullptr)
            close();
    }

    bool active() const { return name_ != nullptr; }

  private:
    /** Record the StageExit and deactivate. @pre active() */
    void close() noexcept;

    const char *name_ = nullptr;
    std::uint64_t t0_ = 0;
};

// The disabled path must stay near-zero-cost: a Span is two words and
// its teardown cannot throw.
static_assert(sizeof(Span) <= 2 * sizeof(void *),
              "Span must stay a two-word handle");
static_assert(std::is_nothrow_destructible_v<Span>,
              "Span teardown must be noexcept");
static_assert(std::is_nothrow_move_constructible_v<Span>,
              "Span moves must be noexcept");

/** Open an RAII span; inactive when flight recording is off. */
inline Span
span(const char *name)
{
    return Span(name);
}

/**
 * RAII pipeline-stage scope: a Span named @p stage plus, on exit, one
 * stage.<s>.micros sample in the latency histogram (its count is the
 * number of times the stage ran). Near-free when both metrics and
 * flight recording are off.
 */
class StageTimer
{
  public:
    explicit StageTimer(const char *stage);
    ~StageTimer();

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    Span span_;
    const char *stage_;
    std::uint64_t t0_ = 0;
    bool metrics_ = false;
};

} // namespace decepticon::obs

#endif // DECEPTICON_OBS_OBS_HH
