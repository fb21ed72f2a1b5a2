/**
 * @file
 * Unreliable-channel model: deterministic, seed-driven fault processes
 * for the two side channels the attack depends on. The reproduction's
 * channels are otherwise perfect; the real ones are not. DeepSteal's
 * rowhammer reads are noisy and partially failing (bits flip, some
 * cells are stuck, and a hammering attempt can simply not land while
 * still costing rounds),
 * and GPU profiling channels lose kernel records (CUPTI-style buffer
 * overflows drop or duplicate records and truncate trace tails).
 *
 * Every fault decision draws from util::rng streams derived from one
 * FaultSpec seed, so a faulty experiment replays bit-for-bit:
 *  - *address-stable* faults (stuck-at cells) are pure
 *    hashes of (seed, address) — re-reading a stuck bit returns the
 *    same wrong value, which is what defeats naive majority voting and
 *    forces the baseline fallback;
 *  - *per-attempt* faults (transient flips, probe failures) draw from
 *    a per-address attempt counter, so retries see fresh randomness in
 *    a call-order-independent way.
 */

#ifndef DECEPTICON_FAULT_FAULT_HH
#define DECEPTICON_FAULT_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "gpusim/kernel.hh"

namespace decepticon::fault {

/** Per-channel fault process parameters. All rates are in [0, 1). */
struct FaultSpec
{
    // ---- bit-probe (rowhammer) channel ----
    /** Probability a probed bit arrives flipped (transient read noise). */
    double probeFlipRate = 0.0;
    /** Fraction of bit cells stuck at a fixed (wrong-or-right) value. */
    double stuckBitRate = 0.0;
    /**
     * Probability a probe attempt fails outright: the attacker learns
     * nothing, but the hammer rounds are spent anyway.
     */
    double transientFailureRate = 0.0;

    // ---- trace-capture channel ----
    /** Probability each kernel record is dropped from a capture. */
    double recordDropRate = 0.0;
    /** Probability each kernel record is duplicated in a capture. */
    double recordDuplicateRate = 0.0;
    /** Probability a capture loses its tail (profiler stopped early). */
    double truncateProbability = 0.0;

    /** Root seed of every fault stream. */
    std::uint64_t seed = 0;

    /** Whether any trace-capture fault process is active. */
    bool traceFaultsEnabled() const;
};

/** Counts of injected faults (ground-truth bookkeeping, not visible
 *  to the attacker). */
struct FaultCounters
{
    std::size_t bitFlips = 0;
    std::size_t stuckReads = 0; ///< reads answered by a stuck cell
    std::size_t probeFailures = 0;
    std::size_t recordsDropped = 0;
    std::size_t recordsDuplicated = 0;
    std::size_t tailsTruncated = 0;
    std::size_t recordsTruncated = 0;
};

/** Outcome of one faulty probe attempt. */
struct ProbeFaultOutcome
{
    /** False when the attempt failed (bit carries no information). */
    bool ok = true;
    /** The delivered bit (garbage when !ok). */
    bool bit = false;
};

/**
 * Applies a FaultSpec to channel interactions. One injector instance
 * models one physical victim; its behaviour is a pure function of the
 * spec (plus per-address attempt counters), so identical call
 * sequences replay identically and reads of distinct addresses are
 * order-independent.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultSpec &spec);

    /**
     * Pass one probed bit through the probe fault process. Advances
     * the per-address attempt counter, so retrying the same bit can
     * recover from transient faults but never from stuck cells.
     */
    ProbeFaultOutcome perturbProbe(std::size_t layer, std::size_t index,
                                   int word_bit, bool true_bit);

    /** Whether the cell at this address is stuck (address-stable). */
    bool cellStuck(std::size_t layer, std::size_t index,
                   int word_bit) const;

    /**
     * One noisy capture of a kernel trace: records dropped and
     * duplicated independently, plus an optional tail truncation —
     * the CUPTI-buffer-overflow failure mode. Deterministic per
     * (spec seed, capture_seed); at least one record always survives
     * a non-empty input.
     */
    gpusim::KernelTrace corruptTrace(const gpusim::KernelTrace &trace,
                                     std::uint64_t capture_seed);

    const FaultCounters &counters() const { return counters_; }

  private:
    /** Stable 64-bit hash of an address under a stream tag. */
    std::uint64_t addressHash(std::uint64_t tag, std::size_t layer,
                              std::size_t index, int word_bit) const;

    FaultSpec spec_;
    FaultCounters counters_;
    /** Per-address attempt counters driving per-attempt randomness. */
    std::unordered_map<std::uint64_t, std::uint32_t> attempts_;
};

} // namespace decepticon::fault

#endif // DECEPTICON_FAULT_FAULT_HH
