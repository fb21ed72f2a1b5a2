// Unit tests for the deterministic parallel execution engine: pool
// lifecycle, chunking/edge cases, exception propagation, nested
// parallelFor, the caller as a lane, concurrent callers, seed
// splitting, and a contention stress test.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <iterator>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "util/rng.hh"

namespace obs = decepticon::obs;
namespace sched = decepticon::sched;
namespace util = decepticon::util;

namespace {

/** Chunks that ran through a pool while `body` ran: the delta of the
 *  "sched.tasks" counter, read with metrics on. */
template <typename Body>
std::uint64_t
pooledChunks(Body body)
{
    obs::ObsConfig cfg;
    cfg.metricsEnabled = true;
    obs::configure(cfg);
    body();
    const std::uint64_t n = obs::metrics().counter("sched.tasks");
    obs::shutdown();
    return n;
}

} // namespace

TEST(ThreadsFromSpec, NullAndEmptyFallBackToHardware)
{
    const std::size_t hw = sched::hardwareThreads();
    EXPECT_GE(hw, 1u);
    EXPECT_EQ(sched::threadsFromSpec(nullptr), hw);
    EXPECT_EQ(sched::threadsFromSpec(""), hw);
}

TEST(ThreadsFromSpec, UnparseableAndNonPositiveFallBackToHardware)
{
    const std::size_t hw = sched::hardwareThreads();
    EXPECT_EQ(sched::threadsFromSpec("bogus"), hw);
    EXPECT_EQ(sched::threadsFromSpec("0"), hw);
    EXPECT_EQ(sched::threadsFromSpec("-3"), hw);
}

TEST(ThreadsFromSpec, ParsesAndClamps)
{
    EXPECT_EQ(sched::threadsFromSpec("1"), 1u);
    EXPECT_EQ(sched::threadsFromSpec("8"), 8u);
    EXPECT_EQ(sched::threadsFromSpec("99999"), 512u);
}

TEST(ThreadPool, SerialPoolSpawnsNoWorkersAndRunsInline)
{
    sched::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> out(100, 0);
    const std::uint64_t chunks = pooledChunks([&] {
        pool.parallelFor(out.size(), 0, [&](std::size_t i) {
            out[i] = static_cast<int>(i);
        });
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i));
    // Inline execution: nothing went through a worker.
    EXPECT_EQ(chunks, 0u);
}

TEST(ThreadPool, LifecycleConstructDestructRepeatedly)
{
    for (int round = 0; round < 5; ++round) {
        sched::ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4u);
        std::atomic<int> hits{0};
        pool.parallelFor(64, 1, [&](std::size_t) {
            hits.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(hits.load(), 64);
    }
    // Destruction with an idle queue must also be clean (no tasks).
    sched::ThreadPool idle(3);
    (void)idle;
}

TEST(ThreadPool, ZeroItemsIsANoOp)
{
    sched::ThreadPool pool(4);
    bool touched = false;
    pool.parallelFor(0, 0, [&](std::size_t) { touched = true; });
    pool.parallelForRange(0, 7,
                          [&](std::size_t, std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, OneItemRunsExactlyOnce)
{
    sched::ThreadPool pool(4);
    std::atomic<int> hits{0};
    pool.parallelFor(1, 0, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        hits.fetch_add(1);
    });
    EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPool, RangeChunksCoverIndexSpaceExactlyOnce)
{
    sched::ThreadPool pool(4);
    const std::size_t n = 1003; // not a multiple of any grain below
    for (std::size_t grain : {std::size_t{1}, std::size_t{7},
                              std::size_t{100}, std::size_t{5000}}) {
        std::vector<std::atomic<int>> seen(n);
        for (auto &s : seen)
            s.store(0);
        pool.parallelForRange(n, grain,
                              [&](std::size_t begin, std::size_t end) {
                                  ASSERT_LE(begin, end);
                                  ASSERT_LE(end, n);
                                  for (std::size_t i = begin; i < end; ++i)
                                      seen[i].fetch_add(1);
                              });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(seen[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ChunkBoundariesDependOnlyOnSizeAndGrain)
{
    // The determinism contract: the (begin, end) partition must be
    // the same for a 1-lane and an 8-lane pool.
    const std::size_t n = 250, grain = 16;
    auto boundaries = [&](sched::ThreadPool &pool) {
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> out;
        pool.parallelForRange(n, grain,
                              [&](std::size_t begin, std::size_t end) {
                                  std::lock_guard<std::mutex> lock(mu);
                                  out.emplace_back(begin, end);
                              });
        std::sort(out.begin(), out.end());
        return out;
    };
    sched::ThreadPool serial(1);
    sched::ThreadPool wide(8);
    EXPECT_EQ(boundaries(serial), boundaries(wide));
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    sched::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100, 1,
                                  [&](std::size_t i) {
                                      if (i == 57)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must survive the throw and keep executing work.
    std::atomic<int> hits{0};
    pool.parallelFor(10, 1, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPool, ExceptionOnSerialPoolPropagates)
{
    sched::ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(3, 1,
                                  [](std::size_t) {
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    sched::ThreadPool pool(4);
    std::vector<std::atomic<int>> cell(16 * 16);
    for (auto &c : cell)
        c.store(0);
    pool.parallelFor(16, 1, [&](std::size_t i) {
        // A worker calling back into the pool must not block on
        // itself; the inner loop runs inline on the worker.
        pool.parallelFor(16, 1, [&](std::size_t j) {
            cell[i * 16 + j].fetch_add(1);
        });
    });
    for (auto &c : cell)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, CallerIsOneOfTheLanes)
{
    // Two lanes are the caller and one worker: the two chunks can only
    // both reach the barrier if the caller runs one of them.
    sched::ThreadPool pool(2);
    std::barrier meet(2);
    std::thread::id ids[2];
    const std::uint64_t chunks = pooledChunks([&] {
        pool.parallelFor(2, 1, [&](std::size_t i) {
            ids[i] = std::this_thread::get_id();
            meet.arrive_and_wait();
        });
    });
    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_EQ(std::count(std::begin(ids), std::end(ids), caller), 1);
    EXPECT_NE(ids[0], ids[1]);
    EXPECT_EQ(chunks, 2u);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirIndexSpace)
{
    sched::ThreadPool pool(3);
    constexpr std::size_t kCallers = 4, kRounds = 20, kN = 257;
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto &h : hits)
        h = std::vector<std::atomic<int>>(kN);
    // lint: suppress(R4) several outside threads must share one pool,
    // which no sched call can set up: parallelFor nests inline
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c)
        callers.emplace_back([&, c] {
            for (std::size_t round = 0; round < kRounds; ++round)
                pool.parallelFor(kN, 3, [&](std::size_t i) {
                    hits[c][i].fetch_add(1, std::memory_order_relaxed);
                });
        });
    for (auto &t : callers)
        t.join();
    for (std::size_t c = 0; c < kCallers; ++c)
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[c][i].load(), static_cast<int>(kRounds))
                << "caller " << c << " index " << i;
}

TEST(ThreadPool, StressManyRoundsOfSmallTasks)
{
    sched::ThreadPool pool(8);
    const std::size_t n = 512;
    std::vector<std::uint64_t> out(n);
    for (int round = 0; round < 50; ++round) {
        pool.parallelFor(n, 1, [&](std::size_t i) {
            // A little arithmetic so tasks are not pure overhead.
            std::uint64_t acc = i;
            for (int k = 0; k < 100; ++k)
                acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
            out[i] = acc;
        });
    }
    // Spot-check one slot against a serial recomputation.
    std::uint64_t acc = 7;
    for (int k = 0; k < 100; ++k)
        acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    EXPECT_EQ(out[7], acc);
}

TEST(GlobalPool, SetThreadsRebuildsAndParallelForWorks)
{
    sched::setThreads(3);
    EXPECT_EQ(sched::configuredThreads(), 3u);
    std::vector<int> out(40, 0);
    sched::parallelFor(out.size(), 1,
                       [&](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 40);
    sched::setThreads(1);
    EXPECT_EQ(sched::configuredThreads(), 1u);
    sched::setThreads(0); // back to the environment default
}

TEST(RngSplit, PureFunctionOfStateAndTag)
{
    util::Rng a(1234), b(1234);
    // split must not advance the parent stream.
    util::Rng c1 = a.split(5);
    util::Rng c2 = a.split(5);
    EXPECT_EQ(c1.nextU64(), c2.nextU64());
    EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RngSplit, DistinctTagsGiveDistinctStreams)
{
    util::Rng parent(99);
    util::Rng c0 = parent.split(0);
    util::Rng c1 = parent.split(1);
    bool differs = false;
    for (int i = 0; i < 4 && !differs; ++i)
        differs = c0.nextU64() != c1.nextU64();
    EXPECT_TRUE(differs);
}

TEST(RngSplit, PerTaskStreamsIndependentOfThreadCount)
{
    // The engine's seed-derivation idiom: task i draws from split(i).
    // The resulting values must not depend on the pool width.
    const std::size_t n = 64;
    auto run = [&](std::size_t threads) {
        sched::ThreadPool pool(threads);
        util::Rng parent(4242);
        std::vector<std::uint64_t> out(n);
        pool.parallelFor(n, 1, [&](std::size_t i) {
            util::Rng task_rng = parent.split(i);
            out[i] = task_rng.nextU64();
        });
        return out;
    };
    const auto serial = run(1);
    EXPECT_EQ(serial, run(2));
    EXPECT_EQ(serial, run(8));
}
