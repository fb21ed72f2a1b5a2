/**
 * @file
 * Secondary side-channel emitters: every inference that produces a
 * kernel trace also leaks through physical and software channels the
 * attacker can sample independently of kernel timestamps. Energon
 * shows power/thermal traces alone recover transformer structure;
 * InferNet shows coarse aggregate profiler counters do the same.
 * Each emitter here derives its signal purely from the kernel stream
 * plus a run seed, so emissions are replayable bit-for-bit and
 * consistent with the timestamp channel they shadow:
 *
 *  - power: the instantaneous board draw sampled at a fixed period —
 *    each kernel class pulls a characteristic wattage, modulated by a
 *    stable per-kernel-implementation factor, plus sensor noise;
 *  - thermal: a leaky-integrator (RC) envelope of the noiseless power
 *    signal — slower, lossier, but much harder for a victim to mask;
 *  - profiler counters: the aggregate per-class launch counts and
 *    duration totals a coarse CUPTI-style session reports even when
 *    per-kernel records are withheld.
 */

#ifndef DECEPTICON_GPUSIM_EMISSION_HH
#define DECEPTICON_GPUSIM_EMISSION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/kernel.hh"

namespace decepticon::gpusim {

// Physical constants of the simulated board and its sensors that
// callers outside the emitters read; the rest live in emission.cc.
/** Cap on emitted series length; the sample period stretches to fit. */
inline constexpr std::size_t kEmissionMaxSamples = 2048;
/** Board draw with no kernel resident (watts). */
inline constexpr double kIdlePowerWatts = 45.0;
/** Ambient (and initial die) temperature (Celsius). */
inline constexpr double kThermalAmbientC = 35.0;

/** Characteristic draw of one kernel class above idle (watts). */
double kernelClassPowerWatts(KernelClass klass);

/**
 * Sample the board power during one inference. Sample i is the draw
 * at time i * period where period = max(sample period,
 * totalTime / kEmissionMaxSamples). Pure function of (trace, run_seed);
 * per-sample sensor noise comes from an Rng::split stream keyed by
 * the sample index, so the series is order-independent.
 */
std::vector<double> emitPowerTrace(const KernelTrace &trace,
                                   std::uint64_t run_seed);

/**
 * Sample the die temperature during the same inference: a first-order
 * RC response to the noiseless power signal, starting from ambient,
 * with independent per-sample sensor noise. Same length/period rules
 * as emitPowerTrace.
 */
std::vector<double> emitThermalTrace(const KernelTrace &trace,
                                     std::uint64_t run_seed);

// Layout of the profiler counter vector (InferNet-style aggregates).
// Per-class launch counts, then per-class duration totals, then the
// scalar session aggregates.
inline constexpr std::size_t kProfilerClassCount = 8;
inline constexpr std::size_t kCtrClassCountBase = 0;
inline constexpr std::size_t kCtrClassDurationBase = kProfilerClassCount;
inline constexpr std::size_t kCtrTotalRecords = 2 * kProfilerClassCount;
inline constexpr std::size_t kCtrUniqueKernels = kCtrTotalRecords + 1;
inline constexpr std::size_t kCtrTotalTimeUs = kCtrTotalRecords + 2;
inline constexpr std::size_t kCtrPeakDurationUs = kCtrTotalRecords + 3;
inline constexpr std::size_t kCtrMeanDurationUs = kCtrTotalRecords + 4;
inline constexpr std::size_t kCtrEncoderRecords = kCtrTotalRecords + 5;
inline constexpr std::size_t kCtrEncoderTimeFraction =
    kCtrTotalRecords + 6;
inline constexpr std::size_t kProfilerCounterCount =
    kCtrTotalRecords + 7;

/**
 * One aggregate profiler session over the inference: a fixed-length
 * vector of kProfilerCounterCount counters. Launch counts are exact;
 * duration-valued counters carry relative jitter (seeded per counter
 * via Rng::split) and are quantized to a 5 us quantum — the
 * coarseness that makes this channel cheap for the attacker and hard
 * for the victim to starve.
 */
std::vector<double> emitProfilerCounters(const KernelTrace &trace,
                                         std::uint64_t run_seed);

} // namespace decepticon::gpusim

#endif // DECEPTICON_GPUSIM_EMISSION_HH
