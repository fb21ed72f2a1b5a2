/**
 * @file
 * Lock-light per-thread flight recorder — the one event store of the
 * telemetry layer. Each thread appends structured events (span
 * open/close from obs::Span and StageTimer, fault injections, fusion
 * verdicts, retry rounds) to its own fixed-size
 * ring buffer guarded by its own uncontended mutex; a global mutex is
 * taken only once per thread (ring registration) and at dump time.
 * Memory is strictly bounded: capacity events per thread, oldest
 * overwritten first, every overwrite tallied in a dropped ledger.
 *
 * Dumps are *canonical*: the per-ring buffers are merged, sorted by
 * event content (timestamp, kind, stage, detail, value), and only
 * then assigned sequence ids via splitmix64(seed + rank). Because the
 * event multiset produced by a deterministic pipeline is identical at
 * any lane count, the dumped JSONL stream is bit-identical at 1/2/8
 * lanes — provided no ring wrapped (dropped counts are exported so a
 * truncated stream is visible, never silent). The Chrome trace is a
 * second rendering of that same canonical stream, so it inherits the
 * bit-identity.
 */

#ifndef DECEPTICON_OBS_FLIGHT_HH
#define DECEPTICON_OBS_FLIGHT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace decepticon::obs {

/** What happened. Order is part of the canonical sort key. */
enum class FlightEventKind : std::uint8_t
{
    StageEnter = 0,
    StageExit = 1,
    Fault = 2,
    Verdict = 3,
    Retry = 4,
};

/** Stable lowercase name ("stage_enter", "fault", ...). */
const char *flightKindName(FlightEventKind kind);

/** One recorded event. */
struct FlightEvent
{
    FlightEventKind kind = FlightEventKind::StageEnter;
    /** Span or stage name ("level1.rasterize", "classify", ...). */
    std::string stage;
    /** Free-form qualifier (fault model, verdict label, ...). */
    std::string detail;
    /** Payload (duration in µs, confidence, round index, ...). */
    double value = 0.0;
    /** obs::clock() timestamp at record time, microseconds. */
    std::uint64_t ts = 0;
};

/** splitmix64 — the sequence-id generator (public for tests). */
std::uint64_t splitmix64(std::uint64_t x);

/** Bounded multi-ring event store. All member functions thread-safe. */
class FlightRecorder
{
  public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

    /** Append one event to the calling thread's ring. */
    void record(FlightEvent event);

    /** Mark the run errored (on_error mode dumps at flush). */
    void noteError();
    bool errorNoted() const;

    /** Total events overwritten across all rings. */
    std::uint64_t dropped() const;

    /** Merged events in canonical order (ts, kind, stage, detail,
     *  value). Rank in this vector is the dump rank. */
    std::vector<FlightEvent> canonicalEvents() const;

    /**
     * Canonical JSONL dump: one
     *   {"type":"flight","seq":S,"kind":..,"stage":..,"detail":..,
     *    "value":..,"ts":..}
     * per event (seq = splitmix64(seed + 1-based rank)), then a
     *   {"type":"flight_summary","events":N,"dropped":D,"error":0|1}
     * trailer.
     */
    void dumpJsonl(std::ostream &out) const;

    /**
     * Chrome trace-event JSON rendered from canonicalEvents(): one
     * "X" event per StageExit (ts = exit ts − duration, dur = the
     * duration, cat = the name up to its first '.'), one "i" event per
     * Fault/Verdict/Retry (name = stage, cat = kind, args = detail and
     * value), then the dropped count under "otherData". A StageExit's
     * tid is its nesting lane: the lowest lane whose open spans all
     * contain or precede it, so the X events on each tid nest and the
     * output is a pure function of the canonical stream (instants sit
     * on tid 0). StageEnter events carry no extra information and are
     * not rendered.
     */
    void renderChromeTrace(std::ostream &out) const;

    /** Empty every ring and clear the error flag. Registered rings
     *  stay alive so thread-local caches never dangle. */
    void clear();

  private:
    struct Ring
    {
        std::mutex mu;
        std::vector<FlightEvent> buf;
        std::size_t next = 0;        // oldest slot once full
        std::uint64_t dropped = 0;
    };

    Ring &threadRing();

    const std::size_t capacity_;
    const std::uint64_t id_; // monotonic; keys thread-local caches
    std::atomic<bool> error_{false};
    mutable std::mutex ringsMu_;
    std::vector<std::unique_ptr<Ring>> rings_;
};

} // namespace decepticon::obs

#endif // DECEPTICON_OBS_FLIGHT_HH
