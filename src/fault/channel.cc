#include "fault/channel.hh"

#include <algorithm>
#include <cmath>

#include "obs/obs.hh"

namespace decepticon::fault {

namespace {

/** Maximum fraction of samples a tail truncation removes. */
constexpr double kTruncateMaxFraction = 0.3;

/** Mean absolute value — the scale noise/quantization are relative
 *  to, so one spec behaves comparably on watts, degrees, counters. */
double
seriesScale(const std::vector<double> &series)
{
    if (series.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : series)
        sum += std::fabs(v);
    return sum / static_cast<double>(series.size());
}

} // anonymous namespace

const char *
channelName(Channel channel)
{
    switch (channel) {
    case Channel::Timestamp:
        return "timestamp";
    case Channel::Power:
        return "power";
    case Channel::Thermal:
        return "thermal";
    case Channel::Profiler:
        return "profiler";
    }
    return "unknown";
}

ChannelFaultModel::ChannelFaultModel(Channel channel,
                                     const ChannelFaultSpec &spec,
                                     std::uint64_t seed)
    : channel_(channel),
      spec_(spec),
      base_(util::Rng(seed).split(static_cast<std::uint64_t>(channel)))
{
}

ChannelFaultModel::ChannelFaultModel(Channel channel,
                                     const ChannelFaultSpec &spec,
                                     const util::Rng &base)
    : channel_(channel), spec_(spec), base_(base)
{
}

std::vector<double>
ChannelFaultModel::corruptSeries(const std::vector<double> &series,
                                 std::uint64_t capture_seed) const
{
    obs::count("fault.channel.capture_attempts");
    if (spec_.jammed) {
        obs::count("fault.channel.jammed_captures");
        obs::flightRecord(obs::FlightEventKind::Fault, "trace_capture",
                          channelName(channel_), 1.0);
        return {};
    }
    std::vector<double> out = series;
    if (out.empty())
        return out;
    util::Rng rng = base_.split(capture_seed);

    // Tail truncation: the sensor stopped early, the tail never
    // existed for any later process to touch.
    if (spec_.truncateProbability > 0.0 &&
        rng.bernoulli(spec_.truncateProbability)) {
        const double frac = rng.uniform(0.0, kTruncateMaxFraction);
        const auto cut = static_cast<std::size_t>(
            static_cast<double>(out.size()) * frac);
        out.resize(std::max<std::size_t>(1, out.size() - cut));
    }

    // Dropout. Profiler counters are a fixed-layout vector, so a
    // dropped counter reads zero; series channels lose the sample.
    if (spec_.dropoutRate > 0.0) {
        if (channel_ == Channel::Profiler) {
            for (double &v : out) {
                if (rng.bernoulli(spec_.dropoutRate))
                    v = 0.0;
            }
        } else {
            std::vector<double> kept;
            kept.reserve(out.size());
            for (double v : out) {
                if (!rng.bernoulli(spec_.dropoutRate))
                    kept.push_back(v);
            }
            out = std::move(kept);
        }
    }
    if (out.empty())
        return out;

    const double scale = seriesScale(out);

    if (spec_.noiseSigma > 0.0 && scale > 0.0) {
        const double sigma = spec_.noiseSigma * scale;
        for (double &v : out)
            v += rng.gaussian(0.0, sigma);
    }

    if (spec_.quantStep > 0.0 && scale > 0.0) {
        const double step = spec_.quantStep * scale;
        for (double &v : out)
            v = std::round(v / step) * step;
    }
    return out;
}

MultiChannelFaultModel::MultiChannelFaultModel(
    const MultiChannelFaultSpec &spec)
{
    // One split per channel off the root: streams are independent and
    // insensitive to the order the channels are exercised in.
    const util::Rng root(spec.seed);
    models_.reserve(kNumChannels);
    for (std::size_t c = 0; c < kNumChannels; ++c)
        models_.emplace_back(static_cast<Channel>(c), spec.channels[c],
                             root.split(c));
}

} // namespace decepticon::fault
