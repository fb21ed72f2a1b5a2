#include "util/rng.hh"

#include <cassert>
#include <cmath>

namespace decepticon::util {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &w : s_)
        w = sm.next();
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        std::uint64_t r = nextU64();
        if (r >= threshold)
            return r % n;
    }
}

double
Rng::gaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586;
    spare_ = mag * std::sin(two_pi * u2);
    hasSpare_ = true;
    return mag * std::cos(two_pi * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::vector<std::size_t>
Rng::sampleWithoutReplacement(std::size_t n, std::size_t k)
{
    assert(k <= n);
    std::vector<std::size_t> pool(n);
    for (std::size_t i = 0; i < n; ++i)
        pool[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = i + uniformInt(n - i);
        std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    return pool;
}

Rng
Rng::split(std::uint64_t tag) const
{
    // Pure mix of the full current state with the tag; nearby tags
    // land in unrelated SplitMix64 streams.
    SplitMix64 sm(s_[0] ^ rotl(s_[1], 17) ^ rotl(s_[2], 31) ^ s_[3] ^
                  (tag + 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL);
    return Rng(sm.next());
}

std::uint64_t
hashString(const char *s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (; *s; ++s) {
        h ^= static_cast<unsigned char>(*s);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace decepticon::util
