#include "obs/flight.hh"

#include <algorithm>
#include <tuple>

#include "obs/metrics.hh"

namespace decepticon::obs {

namespace {

/** Seed of the sequence-id derivation: seq = splitmix64(seed + rank). */
constexpr std::uint64_t kSeqSeed = 0xDECE;

std::uint64_t
nextRecorderId()
{
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
}

bool
canonicalLess(const FlightEvent &a, const FlightEvent &b)
{
    return std::make_tuple(a.ts, static_cast<int>(a.kind), a.stage,
                           a.detail, a.value) <
           std::make_tuple(b.ts, static_cast<int>(b.kind), b.stage,
                           b.detail, b.value);
}

} // anonymous namespace

const char *
flightKindName(FlightEventKind kind)
{
    switch (kind) {
    case FlightEventKind::StageEnter:
        return "stage_enter";
    case FlightEventKind::StageExit:
        return "stage_exit";
    case FlightEventKind::Fault:
        return "fault";
    case FlightEventKind::Verdict:
        return "verdict";
    case FlightEventKind::Retry:
        return "retry";
    }
    return "unknown";
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), id_(nextRecorderId())
{
}

FlightRecorder::Ring &
FlightRecorder::threadRing()
{
    // One ring per (recorder, thread); the cache is keyed by the
    // recorder's monotonic id, not its address, so a recorder
    // destroyed and reallocated at the same address cannot alias a
    // stale cache entry.
    struct Cache
    {
        std::uint64_t recorderId = 0;
        Ring *ring = nullptr;
    };
    thread_local Cache cache;
    if (cache.recorderId == id_ && cache.ring != nullptr)
        return *cache.ring;
    std::lock_guard<std::mutex> lock(ringsMu_);
    rings_.push_back(std::make_unique<Ring>());
    rings_.back()->buf.reserve(capacity_);
    cache.recorderId = id_;
    cache.ring = rings_.back().get();
    return *cache.ring;
}

void
FlightRecorder::record(FlightEvent event)
{
    Ring &ring = threadRing();
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.buf.size() < capacity_) {
        ring.buf.push_back(std::move(event));
        return;
    }
    ring.buf[ring.next] = std::move(event);
    ring.next = (ring.next + 1) % capacity_;
    ++ring.dropped;
}

void
FlightRecorder::noteError()
{
    error_.store(true, std::memory_order_relaxed);
}

bool
FlightRecorder::errorNoted() const
{
    return error_.load(std::memory_order_relaxed);
}

std::uint64_t
FlightRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(ringsMu_);
    std::uint64_t n = 0;
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> rlock(ring->mu);
        n += ring->dropped;
    }
    return n;
}

std::vector<FlightEvent>
FlightRecorder::canonicalEvents() const
{
    std::vector<FlightEvent> events;
    {
        std::lock_guard<std::mutex> lock(ringsMu_);
        for (const auto &ring : rings_) {
            std::lock_guard<std::mutex> rlock(ring->mu);
            events.insert(events.end(), ring->buf.begin(),
                          ring->buf.end());
        }
    }
    std::sort(events.begin(), events.end(), canonicalLess);
    return events;
}

void
FlightRecorder::dumpJsonl(std::ostream &out) const
{
    const std::vector<FlightEvent> events = canonicalEvents();
    const std::uint64_t base = kSeqSeed;
    std::uint64_t rank = 0;
    for (const FlightEvent &ev : events) {
        ++rank;
        out << "{\"type\":\"flight\",\"seq\":" << splitmix64(base + rank)
            << ",\"kind\":\"" << flightKindName(ev.kind)
            << "\",\"stage\":" << jsonQuote(ev.stage)
            << ",\"detail\":" << jsonQuote(ev.detail)
            << ",\"value\":" << jsonNumber(ev.value) << ",\"ts\":" << ev.ts
            << "}\n";
    }
    out << "{\"type\":\"flight_summary\",\"events\":" << events.size()
        << ",\"dropped\":" << dropped()
        << ",\"error\":" << (errorNoted() ? 1 : 0) << "}\n";
}

void
FlightRecorder::renderChromeTrace(std::ostream &out) const
{
    const std::vector<FlightEvent> events = canonicalEvents();

    // Spans outermost first: by start, then longest. The sort is
    // stable over the canonical order, so ties stay deterministic.
    struct Slice
    {
        std::uint64_t start;
        std::uint64_t end;
        const FlightEvent *ev;
        std::size_t lane;
    };
    std::vector<Slice> slices;
    for (const FlightEvent &ev : events) {
        if (ev.kind != FlightEventKind::StageExit)
            continue;
        const auto dur = static_cast<std::uint64_t>(ev.value);
        slices.push_back({ev.ts - std::min(dur, ev.ts), ev.ts, &ev, 0});
    }
    std::stable_sort(slices.begin(), slices.end(),
                     [](const Slice &a, const Slice &b) {
                         return a.start != b.start ? a.start < b.start
                                                   : a.end > b.end;
                     });

    // Each lane is a stack of open span ends, innermost on top. A span
    // goes to the first lane where, once the spans that ended by its
    // start are popped, it fits inside the innermost open one.
    std::vector<std::vector<std::uint64_t>> lanes;
    for (Slice &sl : slices) {
        std::size_t lane = 0;
        for (; lane < lanes.size(); ++lane) {
            std::vector<std::uint64_t> &open = lanes[lane];
            while (!open.empty() && open.back() <= sl.start)
                open.pop_back();
            if (open.empty() || sl.end <= open.back())
                break;
        }
        if (lane == lanes.size())
            lanes.emplace_back();
        lanes[lane].push_back(sl.end);
        sl.lane = lane + 1;
    }

    out << "{\"traceEvents\":[";
    const char *sep = "\n";
    for (const Slice &sl : slices) {
        const std::string &name = sl.ev->stage;
        out << sep << "{\"name\":" << jsonQuote(name)
            << ",\"cat\":" << jsonQuote(name.substr(0, name.find('.')))
            << ",\"ph\":\"X\",\"ts\":" << sl.start
            << ",\"dur\":" << sl.end - sl.start
            << ",\"pid\":1,\"tid\":" << sl.lane << "}";
        sep = ",\n";
    }
    for (const FlightEvent &ev : events) {
        if (ev.kind == FlightEventKind::StageEnter ||
            ev.kind == FlightEventKind::StageExit)
            continue;
        out << sep << "{\"name\":" << jsonQuote(ev.stage)
            << ",\"cat\":\"" << flightKindName(ev.kind)
            << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ev.ts
            << ",\"pid\":1,\"tid\":0,\"args\":{\"detail\":"
            << jsonQuote(ev.detail)
            << ",\"value\":" << jsonNumber(ev.value) << "}}";
        sep = ",\n";
    }
    out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"events\":"
        << events.size() << ",\"dropped\":" << dropped()
        << ",\"error\":" << (errorNoted() ? 1 : 0) << "}}\n";
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(ringsMu_);
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> rlock(ring->mu);
        ring->buf.clear();
        ring->next = 0;
        ring->dropped = 0;
    }
    error_.store(false, std::memory_order_relaxed);
}

} // namespace decepticon::obs
