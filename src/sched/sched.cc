#include "sched/sched.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/obs.hh"

namespace decepticon::sched {

namespace {

/** Set while a thread is running a chunk of some pool's job. */
thread_local bool tl_inChunk = false;

} // anonymous namespace

/**
 * One parallelForRange call, on the caller's stack. Lanes claim
 * chunks from `next`; the caller leaves once it has run out of chunks
 * itself, taken the job off the queue and seen `holders` (workers
 * still inside runChunks) reach zero. A fork-join call knows all its
 * chunks up front and none spawns more, so one shared cursor
 * balances the lanes and nothing is left to steal.
 */
struct ThreadPool::Job
{
    Job(const RangeFn &body, std::size_t count, std::size_t chunkSize)
        : fn(body), n(count), grain(chunkSize),
          chunks((count + chunkSize - 1) / chunkSize)
    {
    }

    const RangeFn &fn;
    std::size_t n;
    std::size_t grain;
    std::size_t chunks;
    std::atomic<std::size_t> next{0};
    std::size_t holders = 0; ///< guarded by ThreadPool::mu_
    std::exception_ptr err;  ///< first chunk exception, under mu_
};

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
    // The calling thread is one lane, so the serial pool has no
    // workers at all.
    workers_.reserve(size_ - 1);
    for (std::size_t i = 1; i < size_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::runChunks(Job &job)
{
    tl_inChunk = true;
    std::uint64_t ran = 0;
    for (;;) {
        const std::size_t c = job.next.fetch_add(1);
        if (c >= job.chunks)
            break;
        const std::size_t begin = c * job.grain;
        try {
            job.fn(begin, std::min(job.n, begin + job.grain));
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!job.err)
                job.err = std::current_exception();
        }
        ++ran;
    }
    tl_inChunk = false;
    if (ran > 0)
        obs::count("sched.tasks", ran);
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        wake_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (stop_)
            return;
        Job &job = *jobs_.front();
        ++job.holders;
        lock.unlock();
        runChunks(job);
        lock.lock();
        // Its cursor ran out: no lane can find work in it any more.
        std::erase(jobs_, &job);
        if (--job.holders == 0)
            done_.notify_all();
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
    // must not be used (nested call from inside a chunk — running
    // inline keeps nesting deadlock-free and, per the determinism
    // contract, cannot change results). An explicit grain still gets
    // the exact (n, grain) partition so chunk-ordered reductions see
    // the same boundaries at every pool size; auto grain makes no
    // boundary promise and runs as one chunk.
    if (size_ == 1 || n <= grain || tl_inChunk) {
        if (autoGrain || n <= grain) {
            fn(0, n);
        } else {
            for (std::size_t begin = 0; begin < n; begin += grain)
                fn(begin, std::min(n, begin + grain));
        }
        return;
    }

    Job job(fn, n, grain);
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_.push_back(&job);
    }
    // The caller takes a chunk too, so at most chunks-1 workers help.
    const std::size_t helpers = std::min(workers_.size(), job.chunks - 1);
    for (std::size_t i = 0; i < helpers; ++i)
        wake_.notify_one();
    runChunks(job);

    std::unique_lock<std::mutex> lock(mu_);
    std::erase(jobs_, &job);
    done_.wait(lock, [&job] { return job.holders == 0; });
    const std::exception_ptr err = job.err;
    lock.unlock();
    if (err)
        std::rethrow_exception(err);
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
