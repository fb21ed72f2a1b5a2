/**
 * @file
 * obsview — run inspector for obs v2 exports. Loads one telemetry file
 * (a metrics JSON object: a DECEPTICON_OBS metrics dump or a
 * BENCH_*.json snapshot; or a flight-recorder JSONL dump) and renders
 * per-stage latency tables and the campaign watchdog gauges, or the
 * flight stream's event census and top-N slowest spans. Comparing two
 * exports is bench/bench_compare.py's job.
 *
 * Exit codes: 0 ok, 2 bad input.
 *
 *   obsview run.json                     inspect one run
 *   obsview flight.jsonl                 inspect a flight dump
 *   obsview --top 8 flight.jsonl         show 8 slowest spans
 */

#include <algorithm>
#include <charconv>
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
    std::map<std::string, double> gauges;
    std::map<std::string, LatencyStats> latencies;
    std::vector<FlightRow> flight;
    std::uint64_t flightDropped = 0;
    bool flightError = false;
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

void
loadMetricsObject(const json::Value &root, RunData &run)
{
    const json::Value *gauges = root.find("gauges");
    if (gauges != nullptr && gauges->isObject())
        for (const auto &[name, v] : gauges->object)
            run.gauges[name] = v.number;
    const json::Value *lats = root.find("latencies");
    if (lats != nullptr && lats->isObject())
        for (const auto &[name, v] : lats->object)
            run.latencies[name] = parseLatency(v);
}

bool
loadFlightLine(const json::Value &obj, RunData &run)
{
    const std::string type = stringOr(obj, "type");
    if (type == "flight") {
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
    const std::string text = buffer.str();

    // A metrics file is a single JSON object and parses whole.
    json::Value root;
    if (json::parse(text, root, nullptr) && root.isObject() &&
        root.find("counters") != nullptr) {
        loadMetricsObject(root, run);
        return true;
    }

    // Otherwise treat it as a flight JSONL dump.
    std::istringstream lines(text);
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
        if (loadFlightLine(obj, run))
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
    static const char *kGauges[] = {"campaign.watchdog_batches",
                                    "campaign.watchdog_findings"};
    decepticon::util::Table table({"gauge", "value"});
    bool any = false;
    for (const char *name : kGauges) {
        const auto it = run.gauges.find(name);
        if (it == run.gauges.end())
            continue;
        any = true;
        table.row().cell(name).cell(
            static_cast<long long>(it->second));
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
        << "usage: obsview [--top N] FILE\n"
           "  FILE: metrics JSON object (DECEPTICON_OBS metrics dump or\n"
           "        BENCH_*.json) or flight JSONL dump\n"
           "  --top  slowest-span rows to show (default 5)\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::size_t top_n = 5;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--top" && i + 1 < argc) {
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
    if (files.size() != 1) {
        usage();
        return 2;
    }

    RunData run;
    if (!loadFile(files[0], run))
        return 2;
    if (run.isFlight) {
        renderFlight(run, top_n);
    } else {
        renderLatencies(run);
        renderWatchdog(run);
    }
    return 0;
}
