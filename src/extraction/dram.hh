/**
 * @file
 * DRAM geometry model for the rowhammer side channel. The paper
 * builds on DeepSteal [40], where bits are exfiltrated by hammering
 * aggressor rows adjacent to the victim row holding a weight. Two
 * physical facts shape the attack's cost and coverage:
 *
 *  - a weight's bits live in a DRAM row determined by the tensor's
 *    layout in memory — the attacker learns addresses from the
 *    memory-probing side channel of the threat model;
 *  - only rows whose neighbours the attacker can occupy are
 *    hammerable, and consecutive reads within one row are cheaper
 *    than row-to-row jumps (aggressor setup is amortized).
 *
 * Row size and the hammerable share are per-experiment geometry; the
 * cold/warm per-bit costs are fixed constants.
 * The layout is deterministic per victim, so experiments are
 * reproducible. The channel adds no noise of its own (bitprobe.hh).
 */

#ifndef DECEPTICON_EXTRACTION_DRAM_HH
#define DECEPTICON_EXTRACTION_DRAM_HH

#include <cstdint>

#include "extraction/bitprobe.hh"

namespace decepticon::extraction {

/** Hammer rounds to read a bit in a freshly targeted row. */
constexpr std::size_t kRoundsPerBitCold = 64;
/** Rounds per bit when the previous read hit the same row. */
constexpr std::size_t kRoundsPerBitWarm = 16;

/** DDR4-style geometry parameters. */
struct DramGeometry
{
    /** Bytes per DRAM row (a typical 8 KB row). */
    std::size_t rowBytes = 8192;
    /** Fraction of rows with usable aggressor neighbours. */
    double hammerableRowFraction = 1.0;
};

/**
 * Maps (layer, index) weight coordinates to DRAM rows for a
 * victim whose tensors are stored contiguously layer by layer, and
 * answers hammerability queries.
 */
class DramWeightLayout
{
  public:
    /**
     * @param memory defines the victim's slot sizes
     * @param geometry DRAM parameters
     * @param seed scrambles which rows lack aggressors (allocation is
     *        system-dependent)
     */
    DramWeightLayout(const zoo::WeightStore &memory,
                     const DramGeometry &geometry, std::uint64_t seed);

    /** Row holding a weight (float32 = 4 bytes each). */
    std::size_t rowOf(std::size_t layer, std::size_t index) const;

    /** Whether the row holding this weight can be hammered. */
    bool hammerable(std::size_t layer, std::size_t index) const;

    const DramGeometry &geometry() const { return geometry_; }

  private:
    DramGeometry geometry_;
    std::vector<std::size_t> layerByteBase_; ///< per-layer start offset
    std::vector<bool> rowHammerable_;
};

/**
 * A bit-probe channel that respects DRAM physics: reads on
 * non-hammerable rows fail (canRead() is false), and costs follow the
 * cold/warm row model (kRoundsPerBitCold, kRoundsPerBitWarm). Read
 * noise comes only from an attached fault::FaultInjector, as on the
 * base channel. Drop-in replacement for BitProbeChannel in the
 * selective extractor.
 */
class DramBitProbeChannel : public BitProbeChannel
{
  public:
    DramBitProbeChannel(const zoo::WeightStore &memory,
                        const DramWeightLayout &layout);

    bool canRead(std::size_t layer, std::size_t index) const override;

    ProbeAttempt tryReadBit(std::size_t layer, std::size_t index,
                            int word_bit) override;

  private:
    const DramWeightLayout &layout_;
    bool hasLastRow_ = false;
    std::size_t lastRow_ = 0;
};

} // namespace decepticon::extraction

#endif // DECEPTICON_EXTRACTION_DRAM_HH
