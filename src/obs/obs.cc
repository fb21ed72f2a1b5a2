#include "obs/obs.hh"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>

namespace decepticon::obs {

namespace {

std::atomic<bool> g_metricsEnabled{false};
std::atomic<int> g_flightMode{static_cast<int>(FlightMode::Off)};
// Read on every span boundary from every pool worker, so it is an
// atomic rather than a field behind g_configMu.
std::atomic<Clock *> g_testClock{nullptr};

std::mutex g_configMu;
ObsConfig g_config;

SteadyClock &
steadyClock()
{
    static SteadyClock clock;
    return clock;
}

MetricsRegistry &
registrySingleton()
{
    static MetricsRegistry registry;
    return registry;
}

FlightRecorder &
flightRecorderSingleton()
{
    static FlightRecorder recorder;
    return recorder;
}

void
recordAt(FlightEventKind kind, const char *stage, const char *detail,
         double value, std::uint64_t ts)
{
    FlightEvent event;
    event.kind = kind;
    event.stage = stage;
    event.detail = detail;
    event.value = value;
    event.ts = ts;
    flightRecorderSingleton().record(std::move(event));
}

} // anonymous namespace

ObsConfig
parseObsSpec(const std::string &spec)
{
    ObsConfig config;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string item = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const std::size_t colon = item.find(':');
        const std::string key = item.substr(0, colon);
        const std::string path =
            colon == std::string::npos ? "" : item.substr(colon + 1);
        if (key == "metrics") {
            config.metricsEnabled = true;
            config.metricsPath = path;
        } else if (key == "trace") {
            config.tracePath = path;
        } else if (key == "on" || key == "1" || key == "all") {
            config.metricsEnabled = true;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return config;
}

void
parseFlightSpec(const std::string &spec, ObsConfig &config)
{
    const std::size_t colon = spec.find(':');
    const std::string mode = spec.substr(0, colon);
    const std::string path =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (mode == "on" || mode == "1")
        config.flightMode = FlightMode::On;
    else if (mode == "on_error")
        config.flightMode = FlightMode::OnError;
    else
        config.flightMode = FlightMode::Off;
    config.flightPath =
        config.flightMode == FlightMode::Off ? "" : path;
}

void
configure(const ObsConfig &config)
{
    // Touch the singletons before registering the atexit flush so the
    // flush runs before their destructors (LIFO teardown order).
    registrySingleton();
    flightRecorderSingleton();
    {
        std::lock_guard<std::mutex> lock(g_configMu);
        g_config = config;
    }
    // The trace is rendered from the flight stream, so a trace path
    // needs the recorder on.
    const FlightMode mode =
        config.flightMode == FlightMode::Off && !config.tracePath.empty()
            ? FlightMode::On
            : config.flightMode;
    g_metricsEnabled.store(config.metricsEnabled,
                           std::memory_order_relaxed);
    g_flightMode.store(static_cast<int>(mode), std::memory_order_relaxed);
    static bool flush_registered = false;
    if (!flush_registered &&
        (!config.metricsPath.empty() || !config.tracePath.empty() ||
         !config.flightPath.empty())) {
        flush_registered = true;
        std::atexit(flush);
    }
}

void
initFromEnv()
{
    ObsConfig config;
    bool any = false;
    const char *spec = std::getenv("DECEPTICON_OBS");
    if (spec != nullptr && *spec != '\0') {
        config = parseObsSpec(spec);
        any = true;
    }
    const char *flight = std::getenv("DECEPTICON_OBS_FLIGHT");
    if (flight != nullptr && *flight != '\0') {
        parseFlightSpec(flight, config);
        any = any || config.flightMode != FlightMode::Off;
    }
    if (any)
        configure(config);
}

void
flush()
{
    ObsConfig config;
    {
        std::lock_guard<std::mutex> lock(g_configMu);
        config = g_config;
    }
    if (config.metricsEnabled && !config.metricsPath.empty()) {
        std::ofstream out(config.metricsPath);
        if (out)
            registrySingleton().exportJson(out);
    }
    if (!config.tracePath.empty()) {
        std::ofstream out(config.tracePath);
        if (out)
            flightRecorderSingleton().renderChromeTrace(out);
    }
    if (config.flightMode != FlightMode::Off &&
        !config.flightPath.empty()) {
        const bool dump =
            config.flightMode == FlightMode::On ||
            flightRecorderSingleton().errorNoted();
        if (dump) {
            std::ofstream out(config.flightPath);
            if (out)
                flightRecorderSingleton().dumpJsonl(out);
        }
    }
}

void
shutdown()
{
    {
        std::lock_guard<std::mutex> lock(g_configMu);
        g_config = ObsConfig{};
    }
    g_metricsEnabled.store(false, std::memory_order_relaxed);
    g_flightMode.store(static_cast<int>(FlightMode::Off),
                       std::memory_order_relaxed);
    registrySingleton().reset();
    flightRecorderSingleton().clear();
}

bool
metricsEnabled()
{
    return g_metricsEnabled.load(std::memory_order_relaxed);
}

FlightMode
flightMode()
{
    return static_cast<FlightMode>(
        g_flightMode.load(std::memory_order_relaxed));
}

MetricsRegistry &
metrics()
{
    return registrySingleton();
}

Clock &
clock()
{
    Clock *test_clock = g_testClock.load(std::memory_order_acquire);
    return test_clock != nullptr ? *test_clock : steadyClock();
}

void
setClockForTest(Clock *test_clock)
{
    g_testClock.store(test_clock, std::memory_order_release);
}

void
count(const char *name, std::uint64_t delta)
{
    if (metricsEnabled())
        registrySingleton().add(name, delta);
}

void
gaugeSet(const char *name, double value)
{
    if (metricsEnabled())
        registrySingleton().setGauge(name, value);
}

void
observeLatency(const char *name, double value)
{
    if (metricsEnabled())
        registrySingleton().observeLatency(name, value);
}

FlightRecorder &
flightRecorder()
{
    return flightRecorderSingleton();
}

void
flightRecord(FlightEventKind kind, const char *stage, const char *detail,
             double value)
{
    if (flightEnabled())
        recordAt(kind, stage, detail, value, clock().nowMicros());
}

void
flightNoteError()
{
    if (flightEnabled())
        flightRecorderSingleton().noteError();
}

Span::Span(const char *name)
{
    if (!flightEnabled())
        return;
    name_ = name;
    t0_ = clock().nowMicros();
    recordAt(FlightEventKind::StageEnter, name_, "", 0.0, t0_);
}

void
Span::close() noexcept
{
    if (flightEnabled()) {
        const std::uint64_t now = clock().nowMicros();
        recordAt(FlightEventKind::StageExit, name_, "",
                 static_cast<double>(now - t0_), now);
    }
    name_ = nullptr;
}

StageTimer::StageTimer(const char *stage)
    : span_(stage), stage_(stage), metrics_(metricsEnabled())
{
    if (metrics_)
        t0_ = clock().nowMicros();
}

StageTimer::~StageTimer()
{
    span_.end();
    if (!metrics_ || !metricsEnabled())
        return;
    const double micros = static_cast<double>(clock().nowMicros() - t0_);
    registrySingleton().observeLatency(
        std::string("stage.") + stage_ + ".micros", micros);
}

} // namespace decepticon::obs
