#include "obs/metrics.hh"

#include <cmath>
#include <cstdio>

namespace decepticon::obs {

void
MetricsRegistry::add(const std::string &name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += delta;
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    gauges_[name] = value;
}

void
MetricsRegistry::observeLatency(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    latencies_[name].add(value);
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

std::optional<LogHistogram>
MetricsRegistry::latency(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = latencies_.find(name);
    if (it == latencies_.end())
        return std::nullopt;
    return it->second;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    gauges_.clear();
    latencies_.clear();
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

namespace {

void
writeLatency(std::ostream &out, const LogHistogram &h)
{
    out << "\"p50\":" << jsonNumber(h.quantile(0.50))
        << ",\"p90\":" << jsonNumber(h.quantile(0.90))
        << ",\"p99\":" << jsonNumber(h.quantile(0.99))
        << ",\"mean\":" << jsonNumber(h.mean())
        << ",\"count\":" << h.total()
        << ",\"underflow\":" << h.underflow()
        << ",\"overflow\":" << h.overflow()
        << ",\"sum\":" << jsonNumber(h.sum()) << ",\"counts\":[";
    // Trailing empty buckets are elided; fromCounts zero-pads them back.
    const auto &counts = h.counts();
    std::size_t last = 0;
    for (std::size_t i = 0; i < counts.size(); ++i)
        if (counts[i] != 0)
            last = i + 1;
    for (std::size_t i = 0; i < last; ++i)
        out << (i ? "," : "") << counts[i];
    out << "]";
}

} // anonymous namespace

void
MetricsRegistry::exportJson(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        out << (first ? "" : ",") << jsonQuote(name) << ":" << value;
        first = false;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges_) {
        out << (first ? "" : ",") << jsonQuote(name) << ":"
            << jsonNumber(value);
        first = false;
    }
    out << "}";
    if (!latencies_.empty()) {
        out << ",\"latencies\":{";
        first = true;
        for (const auto &[name, h] : latencies_) {
            out << (first ? "" : ",") << jsonQuote(name) << ":{";
            writeLatency(out, h);
            out << "}";
            first = false;
        }
        out << "}";
    }
    out << "}\n";
}

} // namespace decepticon::obs
