/**
 * @file
 * Tests for the telemetry layer: metrics registry semantics and JSON
 * export, the three file sinks flush() writes, spans as flight events
 * under a deterministic fake clock, the Chrome trace rendered from the
 * flight stream (parsed back with the bundled JSON reader, lanes
 * checked for nesting), the near-zero-cost disabled path, and
 * DECEPTICON_OBS spec parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "extraction/resilient.hh"
#include "extraction/selective.hh"
#include "fault/fault.hh"
#include "obs/clock.hh"
#include "obs/flight.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/quantile.hh"
#include "sched/sched.hh"
#include "util/rng.hh"
#include "zoo/finetune_sim.hh"
#include "zoo/weight_store.hh"

namespace dob = decepticon::obs;
namespace dex = decepticon::extraction;
namespace dfa = decepticon::fault;
namespace dz = decepticon::zoo;

namespace {

/** The registry's exportJson object, parsed back. */
dob::json::Value
exported(const dob::MetricsRegistry &reg)
{
    std::ostringstream oss;
    reg.exportJson(oss);
    dob::json::Value v;
    std::string err;
    EXPECT_TRUE(dob::json::parse(oss.str(), v, &err)) << err;
    return v;
}

/** Both the counters and the gauges sections of an export are empty. */
bool
exportsNothing(const dob::MetricsRegistry &reg)
{
    const dob::json::Value v = exported(reg);
    return v.find("counters")->object.empty() &&
           v.find("gauges")->object.empty();
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesLatencies)
{
    dob::MetricsRegistry reg;
    EXPECT_EQ(exported(reg).find("counters")->find("c"), nullptr);
    EXPECT_EQ(reg.counter("c"), 0u);

    reg.add("c");
    reg.add("c", 4);
    EXPECT_EQ(reg.counter("c"), 5u);

    reg.setGauge("g", 1.5);
    reg.setGauge("g", 2.5); // latest value wins
    EXPECT_DOUBLE_EQ(reg.gauge("g"), 2.5);

    reg.observeLatency("h", 25.0);
    reg.observeLatency("h", 90.0);
    const auto h = reg.latency("h");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->total(), 2u);

    reg.reset();
    EXPECT_TRUE(exportsNothing(reg));
    EXPECT_FALSE(reg.latency("h").has_value());
}

TEST(MetricsRegistry, ConcurrentCountersSumExactly)
{
    dob::MetricsRegistry reg;
    constexpr int kThreads = 4;
    constexpr int kIncrements = 2000;
    // lint: suppress(R4) thread-safety test must race the registry
    // with threads the sched pool does not serialize
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&reg]() {
            for (int i = 0; i < kIncrements; ++i)
                reg.add("shared");
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(reg.counter("shared"),
              static_cast<std::uint64_t>(kThreads * kIncrements));
}

TEST(MetricsRegistry, JsonObjectExportParses)
{
    dob::MetricsRegistry reg;
    reg.add("runs", 3);
    reg.setGauge("speed", 123.5);
    reg.setGauge("conf\"idence", 0.875); // quote must be escaped
    std::ostringstream oss;
    reg.exportJson(oss);

    dob::json::Value v;
    std::string err;
    ASSERT_TRUE(dob::json::parse(oss.str(), v, &err)) << err;
    const auto *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_DOUBLE_EQ(counters->find("runs")->number, 3.0);
    const auto *gauges = v.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_DOUBLE_EQ(gauges->find("speed")->number, 123.5);
    ASSERT_NE(gauges->find("conf\"idence"), nullptr);
    EXPECT_DOUBLE_EQ(gauges->find("conf\"idence")->number, 0.875);
    EXPECT_EQ(v.find("histograms"), nullptr);
}

// Flight dumps are read line by line into one reused Value, which must
// then hold the last line only: no member or item of an earlier
// document survives.
TEST(Json, ParseReplacesReusedValue)
{
    dob::json::Value row;
    ASSERT_TRUE(dob::json::parse(
        R"({"type":"flight","kind":"retry","seq":[1,2]})", row));
    ASSERT_TRUE(
        dob::json::parse(R"({"type":"flight_summary","seq":[3]})", row));
    ASSERT_NE(row.find("type"), nullptr);
    EXPECT_EQ(row.find("type")->string, "flight_summary");
    EXPECT_EQ(row.find("kind"), nullptr);
    EXPECT_EQ(row.find("seq")->array.size(), 1u);

    dob::json::Value list;
    ASSERT_TRUE(dob::json::parse("[1,2,3]", list));
    ASSERT_TRUE(dob::json::parse("[4]", list));
    ASSERT_EQ(list.array.size(), 1u);
    EXPECT_DOUBLE_EQ(list.array[0].number, 4.0);
}

// ---------------------------------------------------------------------
// Spans are flight events; the Chrome trace renders from that stream
// ---------------------------------------------------------------------

TEST(ObsFacade, DisabledPathIsInert)
{
    dob::shutdown(); // known-off state
    EXPECT_FALSE(dob::metricsEnabled());
    EXPECT_FALSE(dob::flightEnabled());

    // Free functions must not materialize anything while disabled.
    dob::count("ghost.counter", 9);
    dob::gaugeSet("ghost.gauge", 1.0);
    dob::observeLatency("ghost.latency", 5.0);
    {
        auto sp = dob::span("ghost.span");
        EXPECT_FALSE(sp.active());
        sp.end(); // must be a no-op, not a crash
    }
    EXPECT_TRUE(exportsNothing(dob::metrics()));
    EXPECT_FALSE(dob::metrics().latency("ghost.latency").has_value());
    EXPECT_TRUE(dob::flightRecorder().canonicalEvents().empty());

    // The compile-time contract of the no-op path (mirrors the
    // static_asserts in obs.hh).
    static_assert(sizeof(dob::Span) <= 2 * sizeof(void *),
                  "Span must stay a two-word handle");
    static_assert(std::is_nothrow_destructible_v<dob::Span>,
                  "Span teardown must be noexcept");
}

TEST(ObsFacade, EnabledFacadeCollectsAndShutdownClears)
{
    dob::ObsConfig cfg;
    cfg.metricsEnabled = true;
    cfg.flightMode = dob::FlightMode::On;
    dob::configure(cfg);

    dob::FakeClock clock(40);
    dob::setClockForTest(&clock);

    dob::count("live.counter", 2);
    dob::gaugeSet("live.gauge", 0.5);
    {
        auto sp = dob::span("live.span");
        EXPECT_TRUE(sp.active());
        clock.advance(11);
    }
    EXPECT_EQ(dob::metrics().counter("live.counter"), 2u);
    const auto events = dob::flightRecorder().canonicalEvents();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, dob::FlightEventKind::StageEnter);
    EXPECT_EQ(events[0].stage, "live.span");
    EXPECT_EQ(events[0].ts, 40u);
    EXPECT_EQ(events[1].kind, dob::FlightEventKind::StageExit);
    EXPECT_EQ(events[1].ts, 51u);
    EXPECT_DOUBLE_EQ(events[1].value, 11.0);

    dob::setClockForTest(nullptr);
    dob::shutdown();
    EXPECT_FALSE(dob::metricsEnabled());
    EXPECT_FALSE(dob::flightEnabled());
    EXPECT_TRUE(exportsNothing(dob::metrics()));
    EXPECT_TRUE(dob::flightRecorder().canonicalEvents().empty());
}

TEST(ObsFacade, SpanMoveTransfersOwnership)
{
    dob::ObsConfig cfg;
    cfg.flightMode = dob::FlightMode::On;
    dob::configure(cfg);
    dob::FakeClock clock;
    dob::setClockForTest(&clock);
    {
        auto a = dob::span("moved");
        clock.advance(3);
        dob::Span b(std::move(a));
        EXPECT_FALSE(a.active()); // NOLINT(bugprone-use-after-move)
        EXPECT_TRUE(b.active());
        clock.advance(4);
        dob::Span c;
        c = std::move(b);
        EXPECT_FALSE(b.active()); // NOLINT(bugprone-use-after-move)
        clock.advance(2);
    }
    std::size_t exits = 0;
    for (const auto &ev : dob::flightRecorder().canonicalEvents()) {
        if (ev.kind != dob::FlightEventKind::StageExit)
            continue;
        ++exits;
        EXPECT_DOUBLE_EQ(ev.value, 9.0); // closed once, at c's exit
    }
    EXPECT_EQ(exits, 1u);
    dob::setClockForTest(nullptr);
    dob::shutdown();
}

TEST(ObsFacade, TracePathTurnsFlightRecordingOn)
{
    dob::ObsConfig cfg;
    cfg.tracePath = "unused.json"; // never flushed by this test
    dob::configure(cfg);
    EXPECT_EQ(dob::flightMode(), dob::FlightMode::On);
    { auto sp = dob::span("traced.span"); }
    EXPECT_EQ(dob::flightRecorder().canonicalEvents().size(), 2u);
    dob::shutdown();
    EXPECT_FALSE(dob::flightEnabled());
}

// The three file sinks end to end: configure a metrics, a trace and a
// flight path, run a pipeline slice (a stage timer, retry events and
// counters through the resilient prober), flush(), and parse back
// what landed on disk.
TEST(ObsFacade, FlushWritesMetricsTraceAndFlightFiles)
{
    const std::string dir = testing::TempDir();
    dob::ObsConfig cfg;
    cfg.metricsEnabled = true;
    cfg.metricsPath = dir + "obs_test_metrics.json";
    cfg.tracePath = dir + "obs_test_trace.json";
    cfg.flightMode = dob::FlightMode::On;
    cfg.flightPath = dir + "obs_test_flight.jsonl";
    dob::configure(cfg);

    decepticon::gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 64;
    const dz::WeightStore pre = dz::WeightStore::makePretrained(arch, 7, 800);
    const dz::WeightStore victim =
        dz::FineTuneSimulator::fineTune(pre, dz::FineTuneOptions{}, 8);
    dex::BitProbeChannel channel(victim);
    dfa::FaultSpec spec;
    spec.probeFlipRate = 0.02;
    spec.seed = 13;
    dfa::FaultInjector injector(spec);
    channel.attachFaultInjector(&injector);
    dex::RetryingProber prober(channel, nullptr);
    const dex::SelectiveWeightExtractor extractor{dex::ExtractionPolicy{}};
    dex::ExtractionStats stats;
    extractor.extractLayer(pre.layers[0].w, prober, 0, stats);
    dob::flush();
    dob::shutdown();

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };
    std::string err;

    // Metrics: one JSON object with all three sections.
    dob::json::Value metrics;
    ASSERT_TRUE(dob::json::parse(slurp(cfg.metricsPath), metrics, &err))
        << err;
    ASSERT_TRUE(metrics.isObject());
    ASSERT_NE(metrics.find("gauges"), nullptr);
    const auto *counters = metrics.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("resilient.vote_rounds"), nullptr);
    const auto *latencies = metrics.find("latencies");
    ASSERT_NE(latencies, nullptr);
    const auto *extract = latencies->find("stage.extract.micros");
    ASSERT_NE(extract, nullptr);
    EXPECT_DOUBLE_EQ(extract->find("count")->number, 1.0);

    // Trace: Chrome trace JSON with the stage as a complete event.
    dob::json::Value trace;
    ASSERT_TRUE(dob::json::parse(slurp(cfg.tracePath), trace, &err)) << err;
    const auto *events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    std::size_t extract_spans = 0;
    for (const auto &ev : events->array)
        if (ev.find("ph")->string == "X" &&
            ev.find("name")->string == "extract")
            ++extract_spans;
    EXPECT_EQ(extract_spans, 1u);
    EXPECT_DOUBLE_EQ(trace.find("otherData")->find("dropped")->number, 0.0);

    // Flight dump: one JSON object per line, retry events, then the
    // summary trailer.
    std::istringstream lines(slurp(cfg.flightPath));
    std::string line;
    std::size_t retries = 0;
    std::string last_type;
    double dropped = -1.0;
    while (std::getline(lines, line)) {
        dob::json::Value row;
        ASSERT_TRUE(dob::json::parse(line, row, &err)) << err << ": "
                                                       << line;
        last_type = row.find("type")->string;
        if (last_type == "flight" && row.find("kind")->string == "retry")
            ++retries;
        if (last_type == "flight_summary")
            dropped = row.find("dropped")->number;
    }
    EXPECT_GT(retries, 0u);
    EXPECT_EQ(last_type, "flight_summary");
    EXPECT_DOUBLE_EQ(dropped, 0.0);

    for (const auto &path : {cfg.metricsPath, cfg.tracePath, cfg.flightPath})
        std::remove(path.c_str());
}

TEST(FlightRecorder, ChromeTraceNestsSpansPerLane)
{
    // Hand-built stream: two nested spans, a sibling that starts as
    // the outer one ends, two spans that overlap without nesting (the
    // concurrent case), a zero-length span, and one verdict.
    dob::FlightRecorder rec;
    const auto span_exit = [&](const char *name, std::uint64_t start,
                          std::uint64_t end) {
        dob::FlightEvent ev;
        ev.kind = dob::FlightEventKind::StageExit;
        ev.stage = name;
        ev.value = static_cast<double>(end - start);
        ev.ts = end;
        rec.record(ev);
    };
    span_exit("level1.cnn_classify", 20, 60);
    span_exit("level1.identify_batch", 10, 100);
    span_exit("level2.clone", 100, 180);
    span_exit("sidechan.fuse", 150, 220); // overlaps level2.clone
    span_exit("classify", 130, 130);
    dob::FlightEvent verdict;
    verdict.kind = dob::FlightEventKind::Verdict;
    verdict.stage = "classify";
    verdict.detail = "fused";
    verdict.value = 0.75;
    verdict.ts = 60;
    rec.record(verdict);

    std::ostringstream oss;
    rec.renderChromeTrace(oss);
    dob::json::Value v;
    std::string err;
    ASSERT_TRUE(dob::json::parse(oss.str(), v, &err)) << err;
    const auto *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->array.size(), 6u);

    struct X
    {
        std::string cat;
        double ts, dur, tid;
    };
    std::map<std::string, X> spans;
    std::size_t instants = 0;
    for (const auto &ev : events->array) {
        EXPECT_DOUBLE_EQ(ev.find("pid")->number, 1.0);
        if (ev.find("ph")->string == "i") {
            ++instants;
            EXPECT_EQ(ev.find("name")->string, "classify");
            EXPECT_EQ(ev.find("cat")->string, "verdict");
            EXPECT_EQ(ev.find("args")->find("detail")->string, "fused");
            EXPECT_DOUBLE_EQ(ev.find("args")->find("value")->number,
                             0.75);
            continue;
        }
        ASSERT_EQ(ev.find("ph")->string, "X");
        spans[ev.find("name")->string] = {
            ev.find("cat")->string, ev.find("ts")->number,
            ev.find("dur")->number, ev.find("tid")->number};
    }
    EXPECT_EQ(instants, 1u);
    ASSERT_EQ(spans.size(), 5u);
    EXPECT_EQ(spans["level1.identify_batch"].cat, "level1");
    EXPECT_DOUBLE_EQ(spans["level1.identify_batch"].ts, 10.0);
    EXPECT_DOUBLE_EQ(spans["level1.identify_batch"].dur, 90.0);
    EXPECT_EQ(spans["level1.cnn_classify"].cat, "level1");
    EXPECT_DOUBLE_EQ(spans["level1.cnn_classify"].ts, 20.0);
    EXPECT_DOUBLE_EQ(spans["level1.cnn_classify"].dur, 40.0);
    EXPECT_EQ(spans["level2.clone"].cat, "level2");
    EXPECT_DOUBLE_EQ(spans["level2.clone"].dur, 80.0);
    EXPECT_EQ(spans["sidechan.fuse"].cat, "sidechan");
    EXPECT_EQ(spans["classify"].cat, "classify");
    EXPECT_DOUBLE_EQ(spans["classify"].dur, 0.0);
    // The overlapping pair cannot share a lane; everything else can.
    EXPECT_NE(spans["level2.clone"].tid, spans["sidechan.fuse"].tid);
    EXPECT_EQ(spans["level1.identify_batch"].tid,
              spans["level1.cnn_classify"].tid);

    // On every tid, any two X events are disjoint or nested.
    for (const auto &[na, a] : spans) {
        for (const auto &[nb, b] : spans) {
            if (na == nb || a.tid != b.tid)
                continue;
            const bool disjoint =
                a.ts + a.dur <= b.ts || b.ts + b.dur <= a.ts;
            const bool a_in_b = b.ts <= a.ts && a.ts + a.dur <= b.ts + b.dur;
            const bool b_in_a = a.ts <= b.ts && b.ts + b.dur <= a.ts + a.dur;
            EXPECT_TRUE(disjoint || a_in_b || b_in_a)
                << na << " and " << nb << " overlap on tid " << a.tid;
        }
    }

    const auto *other = v.find("otherData");
    ASSERT_NE(other, nullptr);
    ASSERT_NE(other->find("dropped"), nullptr);
    EXPECT_DOUBLE_EQ(other->find("dropped")->number, 0.0);
    EXPECT_DOUBLE_EQ(other->find("events")->number, 6.0);
}

TEST(ObsFacade, ParseObsSpec)
{
    const auto both =
        dob::parseObsSpec("trace:/tmp/a.json,metrics:/tmp/b.json");
    EXPECT_TRUE(both.metricsEnabled);
    EXPECT_EQ(both.tracePath, "/tmp/a.json");
    EXPECT_EQ(both.metricsPath, "/tmp/b.json");

    const auto bare = dob::parseObsSpec("metrics");
    EXPECT_TRUE(bare.metricsEnabled);
    EXPECT_TRUE(bare.tracePath.empty());
    EXPECT_TRUE(bare.metricsPath.empty());

    const auto on = dob::parseObsSpec("on");
    EXPECT_TRUE(on.metricsEnabled);
    EXPECT_TRUE(on.tracePath.empty());

    const auto off = dob::parseObsSpec("");
    EXPECT_FALSE(off.metricsEnabled);
    EXPECT_TRUE(off.tracePath.empty());
}

TEST(StatStructs, ToMetricsPublishesGauges)
{
    dob::MetricsRegistry reg;

    dex::ExtractionStats es;
    es.totalWeights = 100;
    es.weightsSkipped = 60;
    es.bitsChecked = 80;
    es.toMetrics(reg, "extract");
    EXPECT_DOUBLE_EQ(reg.gauge("extract.total_weights"), 100.0);
    EXPECT_DOUBLE_EQ(reg.gauge("extract.weights_skipped"), 60.0);
    EXPECT_DOUBLE_EQ(reg.gauge("extract.weights_skipped_fraction"), 0.6);

    dex::ReliabilityStats rs;
    rs.logicalBits = 10;
    rs.physicalReads = 30;
    rs.toMetrics(reg, "rel");
    EXPECT_DOUBLE_EQ(reg.gauge("rel.logical_bits"), 10.0);
    EXPECT_DOUBLE_EQ(reg.gauge("rel.amplification"), 3.0);
}

// ---------------------------------------------------------------------
// LogHistogram (obs v2 latency quantiles)
// ---------------------------------------------------------------------

TEST(LogHistogram, QuantileAccuracyVsExactSort)
{
    decepticon::util::Rng rng(42);
    dob::LogHistogram hist;
    std::vector<double> samples;
    samples.reserve(4000);
    for (int i = 0; i < 4000; ++i) {
        // Heavy-tailed latency-ish distribution spanning ~5 octaves.
        const double v = 20.0 * std::exp(rng.gaussian(0.0, 1.2));
        samples.push_back(v);
        hist.add(v);
    }
    std::sort(samples.begin(), samples.end());

    // One bucket spans a factor of 2^(1/8); the reported geometric
    // midpoint is within 2^(1/16) of any sample in the bucket, plus
    // one bucket of slack for rank rounding at a boundary: the
    // estimate/exact ratio must stay within 2^(3/16) ≈ 1.139.
    const double bound = std::pow(2.0, 3.0 / 16.0) + 1e-9;
    for (double q : {0.50, 0.90, 0.99}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        const double exact = samples[rank - 1];
        const double est = hist.quantile(q);
        const double ratio = est > exact ? est / exact : exact / est;
        EXPECT_LE(ratio, bound)
            << "q=" << q << " exact=" << exact << " est=" << est;
    }
}

TEST(LogHistogram, ClipLedgersAndFromCounts)
{
    dob::LogHistogram hist;
    hist.add(0.25); // below kLo: clamped up, underflow ledger
    hist.add(10.0);
    hist.add(1e15); // beyond the top octave: overflow ledger
    EXPECT_EQ(hist.total(), 3u);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 1u);

    dob::LogHistogram later = hist;
    later.add(100.0);
    later.add(100.0);

    // fromCounts round-trip reproduces quantiles exactly (the
    // geometry is compile-time fixed, so counts are sufficient).
    const dob::LogHistogram re = dob::LogHistogram::fromCounts(
        later.counts(), later.underflow(), later.overflow(),
        later.sum());
    for (double q : {0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(re.quantile(q), later.quantile(q));
}

TEST(MetricsRegistry, LatencyExportCarriesQuantilesAndClipCounts)
{
    dob::MetricsRegistry reg;
    for (int i = 0; i < 99; ++i)
        reg.observeLatency("stage.classify.micros", 100.0);
    reg.observeLatency("stage.classify.micros", 0.25); // underflow

    std::ostringstream oss;
    reg.exportJson(oss);
    dob::json::Value v;
    std::string err;
    ASSERT_TRUE(dob::json::parse(oss.str(), v, &err)) << err;

    const auto *lat = v.find("latencies");
    ASSERT_NE(lat, nullptr);
    const auto *h = lat->find("stage.classify.micros");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->find("count")->number, 100.0);
    EXPECT_DOUBLE_EQ(h->find("underflow")->number, 1.0);
    EXPECT_DOUBLE_EQ(h->find("overflow")->number, 0.0);
    const double p50 = h->find("p50")->number;
    EXPECT_GT(p50, 100.0 / 1.10);
    EXPECT_LT(p50, 100.0 * 1.10);
    ASSERT_NE(h->find("counts"), nullptr);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, RingWraparoundKeepsNewestAndCountsDropped)
{
    dob::FlightRecorder rec(8);
    for (int i = 0; i < 20; ++i) {
        dob::FlightEvent ev;
        ev.kind = dob::FlightEventKind::Retry;
        ev.stage = "probe";
        ev.value = static_cast<double>(i);
        ev.ts = static_cast<std::uint64_t>(i);
        rec.record(ev);
    }
    const auto events = rec.canonicalEvents();
    ASSERT_EQ(events.size(), 8u);
    EXPECT_EQ(rec.dropped(), 12u);
    // Oldest overwritten first: the surviving events are 12..19.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].ts, 12u + i);

    // The dump trailer makes the truncation visible.
    std::ostringstream oss;
    rec.dumpJsonl(oss);
    EXPECT_NE(oss.str().find("\"dropped\":12"), std::string::npos);

    rec.clear();
    EXPECT_TRUE(rec.canonicalEvents().empty());
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ObsFacade, ParseFlightSpecAndModeGate)
{
    dob::ObsConfig cfg;
    dob::parseFlightSpec("on", cfg);
    EXPECT_EQ(cfg.flightMode, dob::FlightMode::On);
    EXPECT_TRUE(cfg.flightPath.empty());
    dob::parseFlightSpec("on:/tmp/f.jsonl", cfg);
    EXPECT_EQ(cfg.flightMode, dob::FlightMode::On);
    EXPECT_EQ(cfg.flightPath, "/tmp/f.jsonl");
    dob::parseFlightSpec("on_error:/tmp/e.jsonl", cfg);
    EXPECT_EQ(cfg.flightMode, dob::FlightMode::OnError);
    EXPECT_EQ(cfg.flightPath, "/tmp/e.jsonl");
    dob::parseFlightSpec("off", cfg);
    EXPECT_EQ(cfg.flightMode, dob::FlightMode::Off);
    EXPECT_TRUE(cfg.flightPath.empty());
    dob::parseFlightSpec("garbage", cfg);
    EXPECT_EQ(cfg.flightMode, dob::FlightMode::Off);

    // Off mode: flightRecord is a no-op, nothing accumulates.
    dob::shutdown();
    dob::flightRecord(dob::FlightEventKind::Fault, "trace_capture");
    EXPECT_TRUE(dob::flightRecorder().canonicalEvents().empty());
    EXPECT_FALSE(dob::flightEnabled());
}

TEST(ObsFacade, StageTimerFeedsLatencyAndFlightEvents)
{
    dob::FakeClock clock(1000);
    dob::setClockForTest(&clock);
    dob::ObsConfig cfg;
    cfg.metricsEnabled = true;
    cfg.flightMode = dob::FlightMode::On;
    dob::configure(cfg);

    {
        dob::StageTimer timer("classify");
        clock.advance(250);
    }
    const auto hist =
        dob::metrics().latency("stage.classify.micros");
    ASSERT_TRUE(hist.has_value());
    EXPECT_EQ(hist->total(), 1u);
    EXPECT_DOUBLE_EQ(hist->sum(), 250.0);

    const auto events = dob::flightRecorder().canonicalEvents();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, dob::FlightEventKind::StageEnter);
    EXPECT_EQ(events[1].kind, dob::FlightEventKind::StageExit);
    EXPECT_EQ(events[1].stage, "classify");
    EXPECT_DOUBLE_EQ(events[1].value, 250.0); // duration rides along

    // on_error mode: events accumulate but flush only dumps once an
    // error was noted — the gate the recorder exposes directly.
    dob::shutdown();
    cfg.metricsEnabled = false;
    cfg.flightMode = dob::FlightMode::OnError;
    dob::configure(cfg);
    dob::flightRecord(dob::FlightEventKind::Verdict, "fuse",
                      "insufficient", 0.0);
    EXPECT_FALSE(dob::flightRecorder().errorNoted());
    dob::flightNoteError();
    EXPECT_TRUE(dob::flightRecorder().errorNoted());
    EXPECT_EQ(dob::flightRecorder().canonicalEvents().size(), 1u);

    dob::shutdown();
    dob::setClockForTest(nullptr);
    EXPECT_TRUE(dob::flightRecorder().canonicalEvents().empty());
}

// ---------------------------------------------------------------------
// Multi-run processes (campaign driver regime)
// ---------------------------------------------------------------------

// Campaign rollups call reset() + republish on the shared registry
// while sched workers are still observing (the flush happens at batch
// boundaries, worker spans may straddle them). The registry guarantees
// internal consistency — no torn histograms, no lost republished
// values — which the TSan `-L sched` gate checks for data races.
TEST(MetricsRegistry, ResetRepublishUnderConcurrentObserve)
{
    namespace sched = decepticon::sched;
    struct PoolGuard
    {
        ~PoolGuard() { sched::setThreads(0); }
    } guard;
    sched::setThreads(4);

    dob::MetricsRegistry reg;
    constexpr std::size_t kTasks = 64;
    // Grain 1: every index is its own pool job. Index 0 repeatedly
    // resets and republishes the rollup while the rest hammer the
    // observe paths.
    sched::parallelFor(kTasks, 1, [&reg](std::size_t i) {
        if (i == 0) {
            for (int round = 0; round < 50; ++round) {
                reg.reset();
                reg.setGauge("campaign.victims_per_sec", 42.0);
                reg.add("campaign.sessions", 1);
                std::ostringstream oss;
                reg.exportJson(oss);
                EXPECT_FALSE(oss.str().empty());
            }
            return;
        }
        for (int round = 0; round < 50; ++round) {
            reg.add("level1.identifies");
            reg.observeLatency("campaign.time_to_clone",
                               static_cast<double>(i * round));
            reg.observeLatency("stage.classify.micros",
                               static_cast<double>(round));
            reg.setGauge("level1.confidence", 0.5);
        }
    });

    // The storm's interleaving is unspecified; what must hold is that
    // the registry comes back deterministic once quiescent.
    reg.reset();
    reg.add("campaign.sessions", 3);
    reg.setGauge("campaign.cache.hit_rate", 0.75);
    reg.observeLatency("campaign.time_to_clone", 10.0);
    EXPECT_EQ(reg.counter("campaign.sessions"), 3u);
    EXPECT_DOUBLE_EQ(reg.gauge("campaign.cache.hit_rate"), 0.75);
    const auto h = reg.latency("campaign.time_to_clone");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->total(), 1u);

    std::ostringstream oss;
    reg.exportJson(oss);
    dob::json::Value v;
    std::string err;
    ASSERT_TRUE(dob::json::parse(oss.str(), v, &err)) << err;
}

} // namespace
