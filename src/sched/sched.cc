#include "sched/sched.hh"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <memory>

#include "obs/obs.hh"

namespace decepticon::sched {

namespace {

/** Set while a thread is executing inside workerLoop. */
thread_local bool tl_inWorker = false;

} // anonymous namespace

std::size_t
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t
threadsFromSpec(const char *spec)
{
    if (spec == nullptr || *spec == '\0')
        return hardwareThreads();
    char *end = nullptr;
    const long v = std::strtol(spec, &end, 10);
    if (end == spec || v <= 0)
        return hardwareThreads();
    return std::min<std::size_t>(static_cast<std::size_t>(v), 512);
}

ThreadPool::ThreadPool(std::size_t threads)
    : size_(std::max<std::size_t>(1, threads))
{
    if (size_ == 1)
        return; // serial pool: the caller is the only lane
    shards_.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        shards_.push_back(std::make_unique<Shard>());
    workers_.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(wakeMu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::inWorker()
{
    return tl_inWorker;
}

void
ThreadPool::submit(Task task)
{
    const std::size_t shard =
        nextShard_.fetch_add(1, std::memory_order_relaxed) % size_;
    {
        std::lock_guard<std::mutex> lock(shards_[shard]->mu);
        shards_[shard]->q.push_back(std::move(task));
    }
    const std::size_t depth =
        pending_.fetch_add(1, std::memory_order_release) + 1;
    obs::gaugeSet("sched.queue_depth", static_cast<double>(depth));
    // Distribution, not just last value: the p99 of queue depth is
    // what tells a campaign its pool is undersized.
    obs::observeLatency("sched.queue_depth", static_cast<double>(depth));
    wake_.notify_one();
}

bool
ThreadPool::popOrSteal(std::size_t self, Task &out)
{
    {
        Shard &own = *shards_[self];
        std::lock_guard<std::mutex> lock(own.mu);
        if (!own.q.empty()) {
            out = std::move(own.q.front());
            own.q.pop_front();
            pending_.fetch_sub(1, std::memory_order_acquire);
            return true;
        }
    }
    for (std::size_t k = 1; k < size_; ++k) {
        Shard &victim = *shards_[(self + k) % size_];
        std::lock_guard<std::mutex> lock(victim.mu);
        if (!victim.q.empty()) {
            out = std::move(victim.q.back());
            victim.q.pop_back();
            pending_.fetch_sub(1, std::memory_order_acquire);
            steals_.fetch_add(1, std::memory_order_relaxed);
            obs::count("sched.steals");
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    tl_inWorker = true;
    for (;;) {
        Task task;
        if (popOrSteal(self, task)) {
            task();
            tasksExecuted_.fetch_add(1, std::memory_order_relaxed);
            obs::count("sched.tasks");
            continue;
        }
        std::unique_lock<std::mutex> lock(wakeMu_);
        if (stop_)
            return;
        wake_.wait(lock, [this] {
            return stop_ || pending_.load(std::memory_order_acquire) > 0;
        });
        if (stop_)
            return;
    }
}

void
ThreadPool::parallelForRange(std::size_t n, std::size_t grain,
                             const RangeFn &fn)
{
    if (n == 0)
        return;
    const bool autoGrain = grain == 0;
    if (autoGrain)
        grain = std::max<std::size_t>(1, n / (4 * size_));

    // Inline when parallelism cannot help (serial pool, one chunk) or
    // must not be used (nested call from a pool worker — running
    // inline keeps nesting deadlock-free and, per the determinism
    // contract, cannot change results). An explicit grain still gets
    // the exact (n, grain) partition so chunk-ordered reductions see
    // the same boundaries at every pool size; auto grain makes no
    // boundary promise and runs as one chunk.
    if (size_ == 1 || n <= grain || tl_inWorker) {
        if (autoGrain || n <= grain) {
            fn(0, n);
        } else {
            for (std::size_t begin = 0; begin < n; begin += grain)
                fn(begin, std::min(n, begin + grain));
        }
        return;
    }

    const std::size_t chunks = (n + grain - 1) / grain;

    /** Join state shared by the caller and this call's chunk tasks. */
    struct ForJoin
    {
        std::mutex mu;
        std::condition_variable done;
        std::size_t remaining = 0;
        std::exception_ptr err;
    };
    auto join = std::make_shared<ForJoin>();
    join->remaining = chunks;

    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * grain;
        const std::size_t end = std::min(n, begin + grain);
        submit([join, begin, end, &fn] {
            try {
                fn(begin, end);
            } catch (...) {
                std::lock_guard<std::mutex> lock(join->mu);
                if (!join->err)
                    join->err = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(join->mu);
            if (--join->remaining == 0)
                join->done.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(join->mu);
    join->done.wait(lock, [&] { return join->remaining == 0; });
    if (join->err)
        std::rethrow_exception(join->err);
}

void
ThreadPool::parallelFor(std::size_t n, std::size_t grain, const IndexFn &fn)
{
    parallelForRange(n, grain, [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
    });
}

namespace {

std::mutex g_poolMu;
std::unique_ptr<ThreadPool> g_pool;

ThreadPool &
poolLocked()
{
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(
            threadsFromSpec(std::getenv("DECEPTICON_THREADS")));
    return *g_pool;
}

} // anonymous namespace

ThreadPool &
pool()
{
    std::lock_guard<std::mutex> lock(g_poolMu);
    return poolLocked();
}

std::size_t
configuredThreads()
{
    return pool().size();
}

void
setThreads(std::size_t n)
{
    std::unique_ptr<ThreadPool> replacement = std::make_unique<ThreadPool>(
        n == 0 ? threadsFromSpec(std::getenv("DECEPTICON_THREADS")) : n);
    std::lock_guard<std::mutex> lock(g_poolMu);
    g_pool = std::move(replacement); // old pool joins its workers here
    obs::gaugeSet("sched.threads", static_cast<double>(g_pool->size()));
}

void
parallelFor(std::size_t n, std::size_t grain, const IndexFn &fn)
{
    pool().parallelFor(n, grain, fn);
}

void
parallelForRange(std::size_t n, std::size_t grain, const RangeFn &fn)
{
    pool().parallelForRange(n, grain, fn);
}

} // namespace decepticon::sched
