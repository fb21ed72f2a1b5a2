/**
 * @file
 * Rowhammer-style bit-probe side channel (the DeepSteal [40] primitive
 * the paper builds on). The channel exposes single bits of the victim
 * model's weight memory at an accounted cost; Decepticon's selective
 * extraction wins by reading orders of magnitude fewer bits than a
 * full-weight attack. The memory is a zoo::WeightStore addressed by
 * slot (WeightStore::slotWeight: slot l < layers.size() is a layer,
 * slot layers.size() the task head); the attacker reaches it only
 * bit by bit through this channel, mirroring the black-box threat
 * model. A channel reads exactly; transient flips and every other
 * read fault come from one model, an attached fault::FaultInjector.
 */

#ifndef DECEPTICON_EXTRACTION_BITPROBE_HH
#define DECEPTICON_EXTRACTION_BITPROBE_HH

#include <string>

#include "zoo/weight_store.hh"

namespace decepticon::fault {
class FaultInjector;
}

namespace decepticon::obs {
class MetricsRegistry;
}

namespace decepticon::extraction {

/** Cost accounting of a probe session. */
struct ProbeStats
{
    std::size_t bitsRead = 0;
    /** Rowhammer rounds spent (bitsRead * roundsPerBit). */
    std::size_t hammerRounds = 0;

    /**
     * Publish the current snapshot as gauges "<prefix>.bits_read" and
     * "<prefix>.hammer_rounds" — the shared serialization every bench
     * uses instead of hand-formatting these fields.
     */
    void toMetrics(obs::MetricsRegistry &registry,
                   const std::string &prefix) const;
};

/**
 * Outcome of one probe attempt. A failed attempt (ok == false) spent
 * its hammer rounds but delivered no information; the bit it carries
 * is channel garbage, which is what a fault-oblivious attacker
 * consumes when it ignores the flag.
 */
struct ProbeAttempt
{
    bool ok = true;
    bool bit = false;
};

/**
 * The bit-read side channel. Each read costs roundsPerBit rowhammer
 * rounds and, on its own, returns the stored bit exactly. Subclasses
 * override tryReadBit() to model physical constraints (DRAM rows
 * without aggressors, warm-row cost amortization — see dram.hh). All
 * read noise comes from an attached fault::FaultInjector: transient
 * flips (FaultSpec::probeFlipRate, DeepSteal's noisy hammer read),
 * stuck cells and transient probe failures.
 */
class BitProbeChannel
{
  public:
    explicit BitProbeChannel(const zoo::WeightStore &memory,
                             std::size_t rounds_per_bit = 1);

    virtual ~BitProbeChannel() = default;

    /**
     * Whether the weight at (layer, index) is physically reachable by
     * the side channel. The base channel reaches everything.
     */
    virtual bool
    canRead(std::size_t layer, std::size_t index) const
    {
        (void)layer;
        (void)index;
        return true;
    }

    /**
     * One probe attempt on a bit of the victim weight at
     * (layer, index): charges its rounds and reports whether the
     * attempt landed. This is the virtual core every channel variant
     * implements; readBit() and readFullWeight() are sugar over it.
     * @param word_bit bit index in the float32 word, 31 = sign.
     * @pre canRead(layer, index)
     */
    virtual ProbeAttempt tryReadBit(std::size_t layer, std::size_t index,
                                    int word_bit);

    /**
     * Read one bit, ignoring attempt failures (a fault-oblivious
     * attacker consumes whatever the channel delivered).
     */
    bool
    readBit(std::size_t layer, std::size_t index, int word_bit)
    {
        return tryReadBit(layer, index, word_bit).bit;
    }

    /** Read all 32 bits of a weight (last-layer full extraction). */
    float readFullWeight(std::size_t layer, std::size_t index);

    /**
     * Attach an unreliable-channel fault process, the only source of
     * read noise; pass nullptr to detach. Not owned.
     */
    void attachFaultInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /**
     * Account extra hammer rounds that read no new bit (e.g. the
     * exponential-backoff penalty a resilient prober pays after
     * repeated probe failures).
     */
    void accrueRounds(std::size_t rounds) { stats_.hammerRounds += rounds; }

    const ProbeStats &stats() const { return stats_; }

    /** The victim weight memory this channel reads. */
    const zoo::WeightStore &memory() const { return memory_; }

  protected:
    /**
     * The stored bit passed through the attached fault process
     * (identity when no injector is attached). Cost is NOT charged
     * here.
     */
    ProbeAttempt attemptBit(std::size_t layer, std::size_t index,
                            int word_bit);

    /** Account bitsRead and the given number of hammer rounds. */
    void charge(std::size_t rounds);

  private:
    const zoo::WeightStore &memory_;
    std::size_t roundsPerBit_;
    ProbeStats stats_;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace decepticon::extraction

#endif // DECEPTICON_EXTRACTION_BITPROBE_HH
