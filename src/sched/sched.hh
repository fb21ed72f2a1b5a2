/**
 * @file
 * Deterministic parallel execution engine. A fixed-size fork-join
 * ThreadPool with a blocking parallelFor primitive drives every
 * embarrassingly parallel stage of the attack pipeline (per-model
 * trace capture, fingerprint dataset generation, batch inference,
 * extraction planning/decoding, robustness sweeps).
 *
 * The determinism contract (DESIGN.md §9): results must be
 * bit-identical regardless of thread count or scheduling order.
 * parallelFor guarantees its half — the index space is partitioned
 * into chunks that depend only on (n, grain), never on the pool size
 * or timing — and callers guarantee theirs:
 *
 *  - each index writes only its own output slot;
 *  - any randomness is derived per task, either from a seed schedule
 *    drawn serially before the loop (preserving a legacy stream) or
 *    via util::Rng::split(task_index) (a pure function of generator
 *    state and index, no draw-order dependence);
 *  - reductions combine per-chunk partials in chunk order.
 *
 * Pool size comes from DECEPTICON_THREADS (default: hardware
 * concurrency). Size 1 is the exact legacy serial path: no worker
 * threads exist and parallelFor degenerates to the plain loop.
 */

#ifndef DECEPTICON_SCHED_SCHED_HH
#define DECEPTICON_SCHED_SCHED_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace decepticon::sched {

/** Loop body over one index. */
using IndexFn = std::function<void(std::size_t)>;

/** Loop body over a contiguous index range [begin, end). */
using RangeFn = std::function<void(std::size_t, std::size_t)>;

/** Hardware concurrency, never reported as 0. */
std::size_t hardwareThreads();

/**
 * Parse a DECEPTICON_THREADS-style spec. Null, empty, zero, or
 * unparseable specs resolve to hardwareThreads(); anything else is
 * clamped to [1, 512].
 */
std::size_t threadsFromSpec(const char *spec);

/**
 * Fixed-size fork-join pool. Each parallelForRange call is one job on
 * a mutex-guarded queue; the calling thread and the pool's workers
 * claim its chunks from one shared cursor, so an N-lane pool spawns
 * N-1 workers. Every chunk run this way counts toward the
 * "sched.tasks" obs counter.
 */
class ThreadPool
{
  public:
    /**
     * @param threads total lanes, the caller included; spawns
     *        threads-1 workers (none for the serial pool).
     */
    explicit ThreadPool(std::size_t threads);

    /** Joins all workers. @pre no parallelFor is in flight. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of lanes (workers plus the calling thread). */
    std::size_t size() const { return size_; }

    /**
     * Run fn(begin, end) over a chunked partition of [0, n) and block
     * until every chunk finished. With an explicit grain, chunk
     * boundaries are a pure function of (n, grain) — never of the pool
     * size or whether chunks run inline — so a conforming body (see
     * file header) produces identical results at any thread count,
     * including chunk-ordered reductions.
     *
     * @param grain max indices per chunk; 0 picks a default that
     *        yields ~4 chunks per lane (boundaries then depend on the
     *        pool size, so grain 0 is only for bodies whose chunking
     *        is unobservable — each index filling its own slot). When
     *        n <= grain, the pool is serial, or the caller is itself
     *        running a chunk (nested parallelism), chunks run inline
     *        on the caller.
     *
     * The first exception thrown by any chunk is rethrown on the
     * caller after all chunks have completed.
     */
    void parallelForRange(std::size_t n, std::size_t grain,
                          const RangeFn &fn);

    /** parallelForRange with a per-index body. */
    void parallelFor(std::size_t n, std::size_t grain, const IndexFn &fn);

  private:
    struct Job;

    void runChunks(Job &job);
    void workerLoop();

    std::size_t size_;

    /** Guards jobs_, stop_ and every Job's holders and error. */
    std::mutex mu_;
    std::condition_variable wake_; ///< workers: a job or stop arrived
    std::condition_variable done_; ///< callers: a job lost its holders
    std::vector<Job *> jobs_; ///< may have unclaimed chunks; oldest first
    bool stop_ = false;

    /** Last: built after, and destroyed before, all a worker uses. */
    std::vector<std::thread> workers_;
};

/**
 * The process-wide pool, created on first use with
 * threadsFromSpec(getenv("DECEPTICON_THREADS")) lanes.
 */
ThreadPool &pool();

/** Lanes of the global pool (creates it on first call). */
std::size_t configuredThreads();

/**
 * Rebuild the global pool with n lanes (0 = re-read the environment).
 * Test/bench hook for exercising several thread counts in one
 * process. @pre no parallelFor is in flight on the global pool.
 */
void setThreads(std::size_t n);

/** parallelFor on the global pool. */
void parallelFor(std::size_t n, std::size_t grain, const IndexFn &fn);

/** parallelForRange on the global pool. */
void parallelForRange(std::size_t n, std::size_t grain, const RangeFn &fn);

} // namespace decepticon::sched

#endif // DECEPTICON_SCHED_SCHED_HH
