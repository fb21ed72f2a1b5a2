/**
 * @file
 * Deterministic pseudo-random number generation for all Decepticon
 * components. Every stochastic element of the reproduction (weight
 * initialization, fine-tuning noise, kernel timing jitter, dataset
 * synthesis) draws from a seeded Rng so experiments are replayable
 * bit-for-bit.
 */

#ifndef DECEPTICON_UTIL_RNG_HH
#define DECEPTICON_UTIL_RNG_HH

#include <cstdint>
#include <vector>

namespace decepticon::util {

/**
 * SplitMix64 stream, used to expand a single user seed into the four
 * 64-bit words of xoshiro256++ state. Also usable standalone for cheap
 * hashing of strings into seeds.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /** Next 64-bit value of the stream. */
    std::uint64_t next();

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256++ generator. Fast, high-quality, and fully deterministic
 * across platforms (unlike std::mt19937 distributions, whose outputs
 * are implementation-defined for e.g. std::normal_distribution).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit output. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal draw (Box-Muller with cached spare). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli draw with success probability p. */
    bool bernoulli(double p);

    /**
     * Sample k distinct indices from [0, n) without replacement
     * (partial Fisher-Yates). @pre k <= n
     */
    std::vector<std::size_t> sampleWithoutReplacement(std::size_t n,
                                                      std::size_t k);

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /**
     * Derive an independent child generator keyed by tag WITHOUT
     * advancing this generator's state: split(t) is a pure function
     * of (current state, t). This is the seed-derivation primitive of
     * the parallel execution engine (sched): a task indexed i draws
     * from split(i), so its stream is identical no matter how many
     * threads run the tasks or in which order they are scheduled.
     */
    Rng split(std::uint64_t tag) const;

  private:
    std::uint64_t s_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

/** Stable 64-bit FNV-1a hash of a string, for seeding from names. */
std::uint64_t hashString(const char *s);

} // namespace decepticon::util

#endif // DECEPTICON_UTIL_RNG_HH
