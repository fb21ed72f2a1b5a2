#include "gpusim/emission.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/obs.hh"
#include "util/rng.hh"

namespace decepticon::gpusim {

namespace {

// Stream tags separating the three emitters' randomness: emitting a
// power trace must never perturb the thermal or profiler streams of
// the same run seed.
constexpr std::uint64_t kPowerStreamTag = 0x70776572ULL;   // "pwer"
constexpr std::uint64_t kThermalStreamTag = 0x7468726dULL; // "thrm"
constexpr std::uint64_t kCounterStreamTag = 0x636e7472ULL; // "cntr"

/** Power/thermal sensor sampling period (microseconds). */
constexpr double kSamplePeriodUs = 25.0;
/** Gaussian sensor noise on each power sample (watts, sigma). */
constexpr double kSensorNoiseWatts = 1.0;
/** Steady-state die rise per watt of sustained draw (C/W). */
constexpr double kThermalRiseCPerWatt = 0.25;
/** RC time constant of the die/heatsink system (microseconds). */
constexpr double kThermalTauUs = 2000.0;
/** Gaussian sensor noise on each thermal sample (C, sigma). */
constexpr double kThermalSensorNoiseC = 0.15;
/** Relative jitter on duration-valued profiler counters. */
constexpr double kCounterRelativeJitter = 0.01;
/** Profiler duration quantum (microseconds): totals are rounded. */
constexpr double kCounterQuantumUs = 5.0;

/**
 * Stable per-kernel-implementation draw modulation in [0.85, 1.15].
 * Keyed by kernel id only, so it is a property of the victim's
 * software release (like the timing personality), not of the run.
 */
double
kernelPowerPersonality(int kernel_id)
{
    util::SplitMix64 sm(0x9a7e5eedULL +
                        static_cast<std::uint64_t>(kernel_id));
    const double u = static_cast<double>(sm.next() >> 11) *
                     (1.0 / 9007199254740992.0);
    return 0.85 + 0.3 * u;
}

/** Effective sample period after capping the series length. */
double
effectivePeriod(const KernelTrace &trace)
{
    const double total = trace.totalTime();
    double period = kSamplePeriodUs;
    if (total > period * static_cast<double>(kEmissionMaxSamples))
        period = total / static_cast<double>(kEmissionMaxSamples);
    return period;
}

/**
 * Noiseless board draw at time t. Records are time-ordered by start;
 * `cursor` persists across increasing sample times so the scan stays
 * linear in records + samples.
 */
double
rawPowerAt(const KernelTrace &trace, double t, std::size_t &cursor)
{
    const auto &recs = trace.records;
    while (cursor < recs.size() && recs[cursor].tEnd <= t)
        ++cursor;
    double draw = 0.0;
    for (std::size_t j = cursor; j < recs.size(); ++j) {
        if (recs[j].tStart > t)
            break;
        if (recs[j].tEnd > t)
            draw += kernelClassPowerWatts(recs[j].klass) *
                    kernelPowerPersonality(recs[j].kernelId);
    }
    return draw;
}

} // anonymous namespace

double
kernelClassPowerWatts(KernelClass klass)
{
    switch (klass) {
    case KernelClass::Gemm:
        return 220.0;
    case KernelClass::AttnGemm:
        return 180.0;
    case KernelClass::Softmax:
        return 90.0;
    case KernelClass::LayerNorm:
        return 70.0;
    case KernelClass::Elementwise:
        return 60.0;
    case KernelClass::Reduction:
        return 55.0;
    case KernelClass::Memory:
        return 40.0;
    case KernelClass::Fusion:
        return 160.0;
    }
    return 50.0;
}

std::vector<double>
emitPowerTrace(const KernelTrace &trace, std::uint64_t run_seed)
{
    auto sp = obs::span("gpusim.emit_power");
    std::vector<double> out;
    if (trace.records.empty())
        return out;
    const double period = effectivePeriod(trace);
    const std::size_t n = std::min(
        kEmissionMaxSamples,
        static_cast<std::size_t>(trace.totalTime() / period) + 1);
    out.reserve(n);
    const util::Rng noise_root(run_seed ^ kPowerStreamTag);
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) * period;
        double watts = kIdlePowerWatts + rawPowerAt(trace, t, cursor);
        util::Rng r = noise_root.split(i);
        watts += r.gaussian(0.0, kSensorNoiseWatts);
        out.push_back(std::max(0.0, watts));
    }
    obs::count("gpusim.power_samples", out.size());
    return out;
}

std::vector<double>
emitThermalTrace(const KernelTrace &trace, std::uint64_t run_seed)
{
    auto sp = obs::span("gpusim.emit_thermal");
    std::vector<double> out;
    if (trace.records.empty())
        return out;
    const double period = effectivePeriod(trace);
    const std::size_t n = std::min(
        kEmissionMaxSamples,
        static_cast<std::size_t>(trace.totalTime() / period) + 1);
    out.reserve(n);
    // First-order step response: alpha is the per-sample pole of the
    // RC system at this period.
    const double alpha = 1.0 - std::exp(-period / kThermalTauUs);
    const util::Rng noise_root(run_seed ^ kThermalStreamTag);
    double die = kThermalAmbientC;
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) * period;
        const double watts = kIdlePowerWatts + rawPowerAt(trace, t, cursor);
        const double target = kThermalAmbientC + kThermalRiseCPerWatt * watts;
        die += alpha * (target - die);
        util::Rng r = noise_root.split(i);
        out.push_back(die + r.gaussian(0.0, kThermalSensorNoiseC));
    }
    obs::count("gpusim.thermal_samples", out.size());
    return out;
}

std::vector<double>
emitProfilerCounters(const KernelTrace &trace, std::uint64_t run_seed)
{
    auto sp = obs::span("gpusim.emit_counters");
    std::vector<double> ctr(kProfilerCounterCount, 0.0);
    if (trace.records.empty())
        return ctr;

    double encoder_time = 0.0;
    double total_dur = 0.0;
    for (const auto &r : trace.records) {
        const auto k = static_cast<std::size_t>(r.klass);
        assert(k < kProfilerClassCount);
        ctr[kCtrClassCountBase + k] += 1.0;
        ctr[kCtrClassDurationBase + k] += r.duration();
        total_dur += r.duration();
        if (r.phase == Phase::Encoder) {
            ctr[kCtrEncoderRecords] += 1.0;
            encoder_time += r.duration();
        }
    }
    ctr[kCtrTotalRecords] = static_cast<double>(trace.records.size());
    ctr[kCtrUniqueKernels] =
        static_cast<double>(trace.uniqueKernelCount());
    ctr[kCtrTotalTimeUs] = trace.totalTime();
    ctr[kCtrPeakDurationUs] = trace.peakDuration();
    ctr[kCtrMeanDurationUs] =
        total_dur / static_cast<double>(trace.records.size());
    ctr[kCtrEncoderTimeFraction] =
        total_dur > 0.0 ? encoder_time / total_dur : 0.0;

    // Duration-valued counters carry the profiler's measurement
    // jitter and coarse quantization; counts are exact (a launch is a
    // launch). Per-counter streams are split so the vector is stable
    // under any evaluation order.
    const util::Rng jitter_root(run_seed ^ kCounterStreamTag);
    const auto jittered = [&](std::size_t index) {
        util::Rng r = jitter_root.split(index);
        const double v =
            ctr[index] * (1.0 + r.gaussian(0.0, kCounterRelativeJitter));
        return std::max(0.0, std::round(v / kCounterQuantumUs) *
                                 kCounterQuantumUs);
    };
    for (std::size_t k = 0; k < kProfilerClassCount; ++k)
        ctr[kCtrClassDurationBase + k] =
            jittered(kCtrClassDurationBase + k);
    ctr[kCtrTotalTimeUs] = jittered(kCtrTotalTimeUs);
    ctr[kCtrPeakDurationUs] = jittered(kCtrPeakDurationUs);
    ctr[kCtrMeanDurationUs] = jittered(kCtrMeanDurationUs);
    obs::count("gpusim.profiler_sessions");
    return ctr;
}

} // namespace decepticon::gpusim
