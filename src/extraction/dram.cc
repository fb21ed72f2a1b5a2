#include "extraction/dram.hh"

#include <cassert>

#include "util/rng.hh"

namespace decepticon::extraction {

DramWeightLayout::DramWeightLayout(const zoo::WeightStore &memory,
                                   const DramGeometry &geometry,
                                   std::uint64_t seed)
    : geometry_(geometry)
{
    assert(geometry.rowBytes >= 64);
    assert(geometry.hammerableRowFraction >= 0.0 &&
           geometry.hammerableRowFraction <= 1.0);

    // Tensors are laid out back to back, layer by layer (head last).
    std::size_t offset = 0;
    const std::size_t slots = memory.layers.size() + 1;
    layerByteBase_.reserve(slots);
    for (std::size_t l = 0; l < slots; ++l) {
        layerByteBase_.push_back(offset);
        offset += 4 * memory.slotSize(l);
    }
    const std::size_t rows =
        (offset + geometry.rowBytes - 1) / geometry.rowBytes;

    // Which rows have usable aggressor neighbours is a property of
    // the surrounding allocation; model it as a seeded Bernoulli mask.
    util::Rng rng(seed);
    rowHammerable_.resize(rows);
    for (std::size_t r = 0; r < rows; ++r)
        rowHammerable_[r] =
            rng.uniform() < geometry.hammerableRowFraction;
}

std::size_t
DramWeightLayout::rowOf(std::size_t layer, std::size_t index) const
{
    assert(layer < layerByteBase_.size());
    return (layerByteBase_[layer] + 4 * index) / geometry_.rowBytes;
}

bool
DramWeightLayout::hammerable(std::size_t layer, std::size_t index) const
{
    const std::size_t row = rowOf(layer, index);
    assert(row < rowHammerable_.size());
    return rowHammerable_[row];
}

DramBitProbeChannel::DramBitProbeChannel(const zoo::WeightStore &memory,
                                         const DramWeightLayout &layout)
    : BitProbeChannel(memory, kRoundsPerBitCold), layout_(layout)
{
}

bool
DramBitProbeChannel::canRead(std::size_t layer, std::size_t index) const
{
    return layout_.hammerable(layer, index);
}

ProbeAttempt
DramBitProbeChannel::tryReadBit(std::size_t layer, std::size_t index,
                                int word_bit)
{
    assert(canRead(layer, index));
    const std::size_t row = layout_.rowOf(layer, index);
    charge(hasLastRow_ && row == lastRow_ ? kRoundsPerBitWarm
                                           : kRoundsPerBitCold);
    hasLastRow_ = true;
    lastRow_ = row;
    return attemptBit(layer, index, word_bit);
}

} // namespace decepticon::extraction
