/**
 * @file
 * Per-channel fault models for the multi-modal side-channel layer.
 * Where fault.hh models the two original channels (bit probes and
 * kernel-record captures) with bespoke processes, this file gives
 * every emission channel its own generic sample-series fault model:
 * dropout, tail truncation, additive noise, quantization and
 * outright jamming — the countermeasures a victim can aim at any
 * one channel independently.
 *
 * Determinism contract: each ChannelFaultModel owns an independent
 * stream derived via util::Rng::split, keyed by the channel, and each
 * capture corrupts under a further split on the capture seed. Jamming
 * one channel, or reordering captures across channels, never perturbs
 * another channel's fault stream — which is what lets the dropout
 * matrix tests hold bit-for-bit as availability subsets change.
 */

#ifndef DECEPTICON_FAULT_CHANNEL_HH
#define DECEPTICON_FAULT_CHANNEL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace decepticon::fault {

/** The four level-1 evidence channels. */
enum class Channel
{
    Timestamp = 0, ///< kernel execution trace (the original channel)
    Power = 1,     ///< sampled board draw (Energon)
    Thermal = 2,   ///< die temperature envelope
    Profiler = 3,  ///< aggregate counters (InferNet)
};

inline constexpr std::size_t kNumChannels = 4;

/** Lower-case channel name for metric/report labels. */
const char *channelName(Channel channel);

/** Fault process of one channel. All rates are in [0, 1]. */
struct ChannelFaultSpec
{
    /** Probability each sample is lost. Fixed-length channels
     *  (profiler counters) zero the slot; series channels drop it. */
    double dropoutRate = 0.0;
    /** Probability a capture loses its tail (sensor stopped early);
     *  a truncation removes up to 30% of the samples. */
    double truncateProbability = 0.0;
    /** Additive Gaussian noise sigma, relative to the series' mean
     *  absolute value (0 = off). */
    double noiseSigma = 0.0;
    /** Quantization step, relative to the series' mean absolute
     *  value (0 = off). */
    double quantStep = 0.0;
    /** Channel fully suppressed: every capture arrives empty. */
    bool jammed = false;
};

/**
 * Applies one ChannelFaultSpec to sample series. Pure function of
 * (channel, spec, base stream, capture seed, input); corrupting the
 * same capture twice replays identically.
 */
class ChannelFaultModel
{
  public:
    /** Standalone construction: stream = Rng(seed).split(channel). */
    ChannelFaultModel(Channel channel, const ChannelFaultSpec &spec,
                      std::uint64_t seed);

    /** Construction from a pre-split base stream (multi-channel). */
    ChannelFaultModel(Channel channel, const ChannelFaultSpec &spec,
                      const util::Rng &base);

    /**
     * One noisy capture of a sample series. Returns empty when the
     * channel is jammed. Fault order: truncation, dropout, noise,
     * quantization — the physical order (what the sensor never saw
     * cannot be noised).
     */
    std::vector<double> corruptSeries(const std::vector<double> &series,
                                      std::uint64_t capture_seed) const;

  private:
    Channel channel_;
    ChannelFaultSpec spec_;
    /** Per-channel stream; capture streams split off this. */
    util::Rng base_;
};

/** One fault spec per channel under a single root seed. */
struct MultiChannelFaultSpec
{
    std::array<ChannelFaultSpec, kNumChannels> channels{};
    std::uint64_t seed = 0;

    ChannelFaultSpec &at(Channel c)
    {
        return channels[static_cast<std::size_t>(c)];
    }
    const ChannelFaultSpec &at(Channel c) const
    {
        return channels[static_cast<std::size_t>(c)];
    }
};

/**
 * The full per-victim fault surface: one ChannelFaultModel per
 * channel, each with an independent stream split off the root seed.
 */
class MultiChannelFaultModel
{
  public:
    explicit MultiChannelFaultModel(const MultiChannelFaultSpec &spec);

    /** Corrupt one capture on the given channel. */
    std::vector<double> corrupt(Channel c,
                                const std::vector<double> &series,
                                std::uint64_t capture_seed) const
    {
        return models_[static_cast<std::size_t>(c)].corruptSeries(
            series, capture_seed);
    }

  private:
    std::vector<ChannelFaultModel> models_;
};

} // namespace decepticon::fault

#endif // DECEPTICON_FAULT_CHANNEL_HH
