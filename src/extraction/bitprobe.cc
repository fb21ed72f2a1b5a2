#include "extraction/bitprobe.hh"

#include <cassert>

#include "extraction/ieee.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"

namespace decepticon::extraction {

void
ProbeStats::toMetrics(obs::MetricsRegistry &registry,
                      const std::string &prefix) const
{
    registry.setGauge(prefix + ".bits_read",
                      static_cast<double>(bitsRead));
    registry.setGauge(prefix + ".hammer_rounds",
                      static_cast<double>(hammerRounds));
}

BitProbeChannel::BitProbeChannel(const zoo::WeightStore &memory,
                                 std::size_t rounds_per_bit)
    : memory_(memory), roundsPerBit_(rounds_per_bit)
{
    assert(rounds_per_bit >= 1);
}

void
BitProbeChannel::charge(std::size_t rounds)
{
    ++stats_.bitsRead;
    stats_.hammerRounds += rounds;
}

ProbeAttempt
BitProbeChannel::attemptBit(std::size_t layer, std::size_t index,
                            int word_bit)
{
    assert(word_bit >= 0 && word_bit <= 31);
    ProbeAttempt attempt;
    attempt.bit =
        (floatToBits(memory_.slotWeight(layer, index)) >> word_bit) & 1u;
    if (injector_ != nullptr) {
        const fault::ProbeFaultOutcome faulty =
            injector_->perturbProbe(layer, index, word_bit, attempt.bit);
        attempt.ok = faulty.ok;
        attempt.bit = faulty.bit;
    }
    return attempt;
}

ProbeAttempt
BitProbeChannel::tryReadBit(std::size_t layer, std::size_t index,
                            int word_bit)
{
    charge(roundsPerBit_);
    return attemptBit(layer, index, word_bit);
}

float
BitProbeChannel::readFullWeight(std::size_t layer, std::size_t index)
{
    std::uint32_t bits = 0;
    for (int b = 31; b >= 0; --b) {
        if (readBit(layer, index, b))
            bits |= 1u << b;
    }
    return bitsFromFloat(bits);
}

} // namespace decepticon::extraction
