/**
 * @file
 * Rowhammer-style bit-probe side channel (the DeepSteal [40] primitive
 * the paper builds on). The channel exposes single bits of the victim
 * model's weight memory at an accounted cost; Decepticon's selective
 * extraction wins by reading orders of magnitude fewer bits than a
 * full-weight attack. The victim's weights are reachable only through
 * this interface, never by value, mirroring the black-box threat
 * model. A channel reads exactly; transient flips and every other
 * read fault come from one model, an attached fault::FaultInjector.
 */

#ifndef DECEPTICON_EXTRACTION_BITPROBE_HH
#define DECEPTICON_EXTRACTION_BITPROBE_HH

#include <string>
#include <vector>

#include "nn/param.hh"
#include "zoo/weight_store.hh"

namespace decepticon::fault {
class FaultInjector;
}

namespace decepticon::obs {
class MetricsRegistry;
}

namespace decepticon::extraction {

/**
 * Addressable view of a victim's weight memory. Layer indices
 * [0, numLayers) address encoder layers; layer == numLayers addresses
 * the task head.
 */
class VictimWeightOracle
{
  public:
    virtual ~VictimWeightOracle() = default;

    /** Number of encoder layers. */
    virtual std::size_t numLayers() const = 0;

    /** Weights in the given layer (numLayers() addresses the head). */
    virtual std::size_t layerSize(std::size_t layer) const = 0;

    /** The raw weight value (used only inside the channel). */
    virtual float weightValue(std::size_t layer,
                              std::size_t index) const = 0;
};

/** Oracle over a zoo::WeightStore. */
class WeightStoreOracle : public VictimWeightOracle
{
  public:
    explicit WeightStoreOracle(const zoo::WeightStore &store)
        : store_(store)
    {
    }

    std::size_t numLayers() const override { return store_.layers.size(); }

    std::size_t
    layerSize(std::size_t layer) const override
    {
        return layer == store_.layers.size() ? store_.head.w.size()
                                             : store_.layers[layer].w.size();
    }

    float
    weightValue(std::size_t layer, std::size_t index) const override
    {
        return layer == store_.layers.size() ? store_.head.w[index]
                                             : store_.layers[layer].w[index];
    }

  private:
    const zoo::WeightStore &store_;
};

/**
 * Oracle over grouped nn parameters (e.g. a TransformerClassifier's
 * per-encoder parameter groups plus a head group). Each group's
 * parameters are addressed as one flat concatenated layer.
 */
class ParamGroupOracle : public VictimWeightOracle
{
  public:
    /** groups[i] is encoder i; the last group is the task head. */
    explicit ParamGroupOracle(std::vector<nn::ParamRefs> groups)
        : groups_(std::move(groups))
    {
    }

    std::size_t numLayers() const override { return groups_.size() - 1; }

    std::size_t layerSize(std::size_t layer) const override;

    float weightValue(std::size_t layer, std::size_t index) const override;

  private:
    std::vector<nn::ParamRefs> groups_;
};

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
    explicit BitProbeChannel(const VictimWeightOracle &oracle,
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

    const VictimWeightOracle &oracle() const { return oracle_; }

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
    const VictimWeightOracle &oracle_;
    std::size_t roundsPerBit_;
    ProbeStats stats_;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace decepticon::extraction

#endif // DECEPTICON_EXTRACTION_BITPROBE_HH
