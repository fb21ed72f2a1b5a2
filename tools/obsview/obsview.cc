/**
 * @file
 * obsview — run inspector for obs v2 exports. Loads one or two
 * telemetry files (BENCH_*.json / exportJson objects, exportJsonl
 * metric streams, or flight-recorder JSONL dumps), renders per-stage
 * latency tables, top-N slowest spans, and watchdog findings, and —
 * given two metrics files — an A/B diff that highlights latency/
 * real-time regressions with the rule bench_compare.py gates on: a
 * real-time gauge fails beyond a 15% band, a p99 latency when it
 * rises 3 or more log buckets (~30%).
 *
 * Exit codes: 0 ok, 1 regression found (with --check), 2 bad input.
 *
 *   obsview run.json                     inspect one run
 *   obsview flight.jsonl                 inspect a flight dump
 *   obsview --check a.json b.json        diff, fail on regression
 *   obsview --threshold 10 --top 8 ...   tune bands
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/quantile.hh"
#include "util/table.hh"

namespace {

using decepticon::obs::LogHistogram;
namespace json = decepticon::obs::json;

struct LatencyStats
{
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
    std::uint64_t count = 0;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
};

struct FlightRow
{
    std::string kind;
    std::string stage;
    std::string detail;
    double value = 0.0;
    std::uint64_t ts = 0;
    std::uint64_t seq = 0;
};

struct RunData
{
    std::string path;
    bool isFlight = false;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, LatencyStats> latencies;
    std::vector<FlightRow> flight;
    std::uint64_t flightDropped = 0;
    bool flightError = false;
    std::string rawText; // for bit-identity comparison of flight dumps
};

double
numberOr(const json::Value &obj, const char *key, double fallback)
{
    const json::Value *v = obj.find(key);
    return v != nullptr && v->isNumber() ? v->number : fallback;
}

std::string
stringOr(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    return v != nullptr && v->isString() ? v->string : "";
}

LatencyStats
parseLatency(const json::Value &obj)
{
    LatencyStats s;
    s.mean = numberOr(obj, "mean", 0.0);
    s.count = static_cast<std::uint64_t>(numberOr(obj, "count", 0.0));
    s.underflow =
        static_cast<std::uint64_t>(numberOr(obj, "underflow", 0.0));
    s.overflow =
        static_cast<std::uint64_t>(numberOr(obj, "overflow", 0.0));
    const json::Value *counts = obj.find("counts");
    if (counts != nullptr && counts->isArray() && !counts->array.empty()) {
        // Reconstruct the histogram and recompute quantiles — the
        // round-trip exercises the same fixed geometry the exporter
        // used, so a geometry drift shows up as a test failure here.
        std::vector<std::uint64_t> raw;
        raw.reserve(counts->array.size());
        for (const auto &c : counts->array)
            raw.push_back(static_cast<std::uint64_t>(c.number));
        const LogHistogram h = LogHistogram::fromCounts(
            raw, s.underflow, s.overflow, numberOr(obj, "sum", 0.0));
        s.p50 = h.quantile(0.50);
        s.p90 = h.quantile(0.90);
        s.p99 = h.quantile(0.99);
        return s;
    }
    s.p50 = numberOr(obj, "p50", 0.0);
    s.p90 = numberOr(obj, "p90", 0.0);
    s.p99 = numberOr(obj, "p99", 0.0);
    return s;
}

bool
loadMetricsObject(const json::Value &root, RunData &run)
{
    const json::Value *counters = root.find("counters");
    if (counters != nullptr && counters->isObject())
        for (const auto &[name, v] : counters->object)
            run.counters[name] = v.number;
    const json::Value *gauges = root.find("gauges");
    if (gauges != nullptr && gauges->isObject())
        for (const auto &[name, v] : gauges->object)
            run.gauges[name] = v.number;
    const json::Value *lats = root.find("latencies");
    if (lats != nullptr && lats->isObject())
        for (const auto &[name, v] : lats->object)
            run.latencies[name] = parseLatency(v);
    return counters != nullptr || gauges != nullptr || lats != nullptr;
}

bool
loadJsonlLine(const json::Value &obj, RunData &run)
{
    const std::string type = stringOr(obj, "type");
    const std::string name = stringOr(obj, "name");
    if (type == "counter") {
        run.counters[name] = numberOr(obj, "value", 0.0);
    } else if (type == "gauge") {
        run.gauges[name] = numberOr(obj, "value", 0.0);
    } else if (type == "latency") {
        run.latencies[name] = parseLatency(obj);
    } else if (type == "histogram") {
        // Exports from before the one-histogram registry carry
        // fixed-width histograms; they have no quantiles, so skip.
    } else if (type == "flight") {
        run.isFlight = true;
        FlightRow row;
        row.kind = stringOr(obj, "kind");
        row.stage = stringOr(obj, "stage");
        row.detail = stringOr(obj, "detail");
        row.value = numberOr(obj, "value", 0.0);
        row.ts = static_cast<std::uint64_t>(numberOr(obj, "ts", 0.0));
        row.seq = static_cast<std::uint64_t>(numberOr(obj, "seq", 0.0));
        run.flight.push_back(std::move(row));
    } else if (type == "flight_summary") {
        run.isFlight = true;
        run.flightDropped =
            static_cast<std::uint64_t>(numberOr(obj, "dropped", 0.0));
        run.flightError = numberOr(obj, "error", 0.0) != 0.0;
    } else {
        return false;
    }
    return true;
}

bool
loadFile(const std::string &path, RunData &run)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "obsview: cannot open " << path << "\n";
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    run.path = path;
    run.rawText = buffer.str();

    // A single JSON object (exportJson / BENCH_*.json) parses whole.
    json::Value root;
    if (json::parse(run.rawText, root, nullptr) && root.isObject() &&
        root.find("counters") != nullptr)
        return loadMetricsObject(root, run);

    // Otherwise treat it as JSONL (metrics stream or flight dump).
    std::istringstream lines(run.rawText);
    std::string line;
    bool any = false;
    while (std::getline(lines, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        json::Value obj;
        std::string err;
        if (!json::parse(line, obj, &err)) {
            std::cerr << "obsview: " << path << ": bad JSONL line: "
                      << err << "\n";
            return false;
        }
        if (loadJsonlLine(obj, run))
            any = true;
    }
    if (!any)
        std::cerr << "obsview: " << path
                  << ": no recognizable telemetry records\n";
    return any;
}

void
renderLatencies(const RunData &run)
{
    decepticon::util::printBanner(std::cout,
                                  "latency percentiles (" + run.path +
                                      ")");
    if (run.latencies.empty()) {
        std::cout << "(no latency histograms in this export)\n";
        return;
    }
    decepticon::util::Table table(
        {"name", "count", "p50_us", "p90_us", "p99_us", "mean_us",
         "clipped"});
    for (const auto &[name, s] : run.latencies)
        table.row()
            .cell(name)
            .cell(static_cast<long long>(s.count))
            .cell(s.p50, 1)
            .cell(s.p90, 1)
            .cell(s.p99, 1)
            .cell(s.mean, 1)
            .cell(static_cast<long long>(s.underflow + s.overflow));
    table.printAscii(std::cout);
}

void
renderWatchdog(const RunData &run)
{
    decepticon::util::printBanner(std::cout, "watchdog");
    static const char *kCounters[] = {
        "obs.watchdog.ticks", "obs.watchdog.stalls",
        "obs.watchdog.fault_spikes", "obs.watchdog.abstain_anomalies",
        "obs.watchdog.findings"};
    bool any = false;
    decepticon::util::Table table({"counter", "value"});
    for (const char *name : kCounters) {
        const auto it = run.counters.find(name);
        if (it == run.counters.end())
            continue;
        any = true;
        table.row().cell(name).cell(
            static_cast<long long>(it->second));
    }
    const auto findings = run.gauges.find("run.watchdog_findings");
    if (findings != run.gauges.end()) {
        any = true;
        table.row().cell("run.watchdog_findings").cell(
            static_cast<long long>(findings->second));
    }
    if (!any) {
        std::cout << "(no watchdog data in this export)\n";
        return;
    }
    table.printAscii(std::cout);
}

void
renderFlight(const RunData &run, std::size_t top_n)
{
    decepticon::util::printBanner(std::cout,
                                  "flight recorder (" + run.path + ")");
    std::map<std::string, std::uint64_t> by_kind;
    for (const auto &row : run.flight)
        ++by_kind[row.kind];
    decepticon::util::Table summary({"kind", "events"});
    for (const auto &[kind, n] : by_kind)
        summary.row().cell(kind).cell(static_cast<long long>(n));
    summary.printAscii(std::cout);
    std::cout << "events " << run.flight.size() << ", dropped "
              << run.flightDropped << ", error "
              << (run.flightError ? "yes" : "no") << "\n";

    std::vector<const FlightRow *> exits;
    for (const auto &row : run.flight)
        if (row.kind == "stage_exit")
            exits.push_back(&row);
    std::sort(exits.begin(), exits.end(),
              [](const FlightRow *a, const FlightRow *b) {
                  return a->value > b->value;
              });
    if (exits.size() > top_n)
        exits.resize(top_n);
    decepticon::util::printBanner(std::cout, "slowest spans");
    decepticon::util::Table slow({"stage", "micros", "ts", "seq"});
    for (const FlightRow *row : exits)
        slow.row()
            .cell(row->stage)
            .cell(row->value, 1)
            .cell(static_cast<std::size_t>(row->ts))
            .cell(static_cast<std::size_t>(row->seq));
    slow.printAscii(std::cout);
}

bool
endsWith(const std::string &name, const char *suffix)
{
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
}

bool
isGatedGauge(const std::string &name)
{
    // Mirror of bench_compare.py's gate filter: wall-clock gauges and
    // the per-stage p99 latency rollups.
    return (name.rfind("bench.", 0) == 0 && endsWith(name, ".real_time")) ||
           endsWith(name, ".p99_micros");
}

/**
 * A p99 is a LogHistogram bucket midpoint, and a bucket is 1/8 octave
 * (~9%) wide: a rise of this many buckets (~30%) is a regression,
 * 1-2 buckets are the quantization of a top-sample move.
 */
constexpr double kP99RegressionBuckets = 3.0;

/** LogHistogram bucket index of a latency in µs: ⌊8·log2 v⌋. */
double
logBucket(double micros)
{
    return std::floor(
        std::log2(micros / LogHistogram::kLo) *
        static_cast<double>(LogHistogram::kBucketsPerOctave));
}

/**
 * Returns the number of regressions: real-time gauges beyond
 * `threshold` percent, p99 latencies by bucket distance.
 */
int
diffRuns(const RunData &a, const RunData &b, double threshold)
{
    decepticon::util::printBanner(std::cout, "A/B diff: A=" + a.path +
                                                 "  B=" + b.path);
    int regressions = 0;
    decepticon::util::Table table(
        {"metric", "A", "B", "delta_pct", "verdict"});
    const auto judge = [&](const std::string &name, double va, double vb,
                           bool p99) {
        double pct = 0.0;
        if (va > 0.0)
            pct = (vb - va) / va * 100.0;
        else if (vb > 0.0)
            pct = 100.0;
        bool worse = pct > threshold;
        bool better = pct < -threshold;
        if (p99 && va > 0.0 && vb > 0.0) {
            const double moved = logBucket(vb) - logBucket(va);
            worse = moved >= kP99RegressionBuckets;
            better = moved <= -kP99RegressionBuckets;
        }
        std::string verdict = "ok";
        if (worse) {
            verdict = "REGRESSION";
            ++regressions;
        } else if (better) {
            verdict = "improved";
        }
        table.row().cell(name).cell(va, 1).cell(vb, 1).cell(pct, 1).cell(
            verdict);
    };
    for (const auto &[name, sa] : a.latencies) {
        const auto it = b.latencies.find(name);
        if (it != b.latencies.end())
            judge(name + " p99", sa.p99, it->second.p99, true);
    }
    for (const auto &[name, va] : a.gauges) {
        if (!isGatedGauge(name))
            continue;
        const auto it = b.gauges.find(name);
        if (it != b.gauges.end())
            judge(name, va, it->second, endsWith(name, ".p99_micros"));
    }
    if (table.numRows() == 0) {
        std::cout << "(no shared latency/gauge metrics to compare)\n";
        return 0;
    }
    table.printAscii(std::cout);

    std::size_t only_a = 0, only_b = 0;
    for (const auto &[name, s] : a.latencies)
        if (b.latencies.find(name) == b.latencies.end())
            ++only_a;
    for (const auto &[name, s] : b.latencies)
        if (a.latencies.find(name) == a.latencies.end())
            ++only_b;
    if (only_a + only_b > 0)
        std::cout << "unshared latency metrics: " << only_a
                  << " only in A, " << only_b << " only in B\n";
    std::cout << regressions << " regression(s): gauges beyond "
              << threshold << "%, p99 latencies "
              << kP99RegressionBuckets << "+ log buckets\n";
    return regressions;
}

int
diffFlights(const RunData &a, const RunData &b)
{
    decepticon::util::printBanner(std::cout, "flight diff: A=" + a.path +
                                                 "  B=" + b.path);
    const bool identical = a.rawText == b.rawText;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> kinds;
    for (const auto &row : a.flight)
        ++kinds[row.kind + "/" + row.stage].first;
    for (const auto &row : b.flight)
        ++kinds[row.kind + "/" + row.stage].second;
    decepticon::util::Table table({"kind/stage", "A", "B"});
    for (const auto &[key, n] : kinds)
        table.row()
            .cell(key)
            .cell(static_cast<long long>(n.first))
            .cell(static_cast<long long>(n.second));
    table.printAscii(std::cout);
    std::cout << "streams byte-identical: " << (identical ? "yes" : "no")
              << "\n";
    return identical ? 0 : 1;
}

/** Parse all of @p text as a number; false on junk or overflow. */
template <typename T>
bool
parseWhole(const char *text, T &out)
{
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end;
}

void
usage()
{
    std::cerr
        << "usage: obsview [--check] [--threshold PCT] [--top N] "
           "FILE [FILE_B]\n"
           "  FILE: exportJson object, exportJsonl stream, or flight "
           "JSONL dump\n"
           "  --check      exit 1 when the A/B diff finds a regression\n"
           "               (or flight streams differ)\n"
           "  --threshold  gauge regression band in percent (default 15;\n"
           "               p99 latencies fail at 3+ log buckets)\n"
           "  --top        slowest-span rows to show (default 5)\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool check = false;
    double threshold = 15.0;
    std::size_t top_n = 5;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check") {
            check = true;
        } else if (arg == "--threshold" && i + 1 < argc) {
            if (!parseWhole(argv[++i], threshold) ||
                !std::isfinite(threshold)) {
                std::cerr << "obsview: --threshold needs a number, got '"
                          << argv[i] << "'\n";
                return 2;
            }
        } else if (arg == "--top" && i + 1 < argc) {
            if (!parseWhole(argv[++i], top_n)) {
                std::cerr << "obsview: --top needs a non-negative "
                             "integer, got '"
                          << argv[i] << "'\n";
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "obsview: unknown option " << arg << "\n";
            usage();
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty() || files.size() > 2) {
        usage();
        return 2;
    }

    RunData a;
    if (!loadFile(files[0], a))
        return 2;

    if (files.size() == 1) {
        if (a.isFlight) {
            renderFlight(a, top_n);
        } else {
            renderLatencies(a);
            renderWatchdog(a);
        }
        return 0;
    }

    RunData b;
    if (!loadFile(files[1], b))
        return 2;
    if (a.isFlight != b.isFlight) {
        std::cerr << "obsview: cannot diff a flight dump against a "
                     "metrics export\n";
        return 2;
    }
    int regressions = 0;
    if (a.isFlight) {
        renderFlight(a, top_n);
        renderFlight(b, top_n);
        regressions = diffFlights(a, b);
    } else {
        renderLatencies(a);
        renderLatencies(b);
        regressions = diffRuns(a, b, threshold);
    }
    return check && regressions > 0 ? 1 : 0;
}
