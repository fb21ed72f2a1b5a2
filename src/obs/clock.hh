/**
 * @file
 * Injectable time source for the telemetry layer. Spans and metrics
 * timestamps come from a Clock so production code reads a steady
 * wall-clock while tests drive a deterministic FakeClock — the same
 * inversion the attack exploits on its victims (the trace channel is
 * nothing but somebody else's timestamps).
 */

#ifndef DECEPTICON_OBS_CLOCK_HH
#define DECEPTICON_OBS_CLOCK_HH

#include <chrono>
#include <cstdint>

namespace decepticon::obs {

/** Monotonic microsecond time source. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Microseconds since an arbitrary fixed origin (monotone). */
    virtual std::uint64_t nowMicros() = 0;
};

/** std::chrono::steady_clock, rebased to the first construction. */
class SteadyClock : public Clock
{
  public:
    SteadyClock() : origin_(std::chrono::steady_clock::now()) {}

    std::uint64_t
    nowMicros() override
    {
        const auto delta = std::chrono::steady_clock::now() - origin_;
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(delta)
                .count());
    }

  private:
    std::chrono::steady_clock::time_point origin_;
};

/** Deterministic clock for tests: time moves only via advance(). */
class FakeClock : public Clock
{
  public:
    explicit FakeClock(std::uint64_t start_micros = 0)
        : now_(start_micros)
    {
    }

    std::uint64_t nowMicros() override { return now_; }

    // lint: suppress(R11) the test clock's one knob: tests move time
    // through it to pin timings
    void advance(std::uint64_t micros) { now_ += micros; }

  private:
    std::uint64_t now_;
};

} // namespace decepticon::obs

#endif // DECEPTICON_OBS_CLOCK_HH
