#include "extraction/ieee.hh"

#include <cassert>
#include <cmath>
#include <cstring>

namespace decepticon::extraction {

std::uint32_t
floatToBits(float v)
{
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

float
bitsFromFloat(std::uint32_t bits)
{
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool
signBit(float v)
{
    return (floatToBits(v) >> 31) != 0;
}

int
exponentField(float v)
{
    return static_cast<int>((floatToBits(v) >> 23) & 0xff);
}

int
unbiasedExponent(float v)
{
    return exponentField(v) - kFloat32.bias();
}

bool
fractionBit(float v, int k)
{
    assert(k >= 1 && k <= 23);
    return (floatToBits(v) >> (23 - k)) & 1u;
}

double
fractionBitPlaceValue(float v, int k)
{
    assert(k >= 1 && k <= 23);
    return std::ldexp(1.0, unbiasedExponent(v) - k);
}

double
leadingPlaceValue(float v)
{
    return std::ldexp(1.0, unbiasedExponent(v));
}

float
quantizeTo(float v, const FloatFormat &fmt)
{
    assert(fmt.fractionBits <= kFloat32.fractionBits);
    assert(fmt.exponentBits <= kFloat32.exponentBits);

    if (v == 0.0f || !std::isfinite(v))
        return v;

    // Round-to-nearest-even on the dropped fraction bits.
    const int drop = kFloat32.fractionBits - fmt.fractionBits;
    std::uint32_t bits = floatToBits(v);
    if (drop > 0) {
        const std::uint32_t lsb = 1u << drop;
        const std::uint32_t half = lsb >> 1;
        const std::uint32_t rem = bits & (lsb - 1);
        bits &= ~(lsb - 1);
        if (rem > half || (rem == half && (bits & lsb)))
            bits += lsb;
    }
    float q = bitsFromFloat(bits);

    // Clamp into the narrower exponent range (flush to zero / inf).
    if (fmt.exponentBits < kFloat32.exponentBits) {
        const int e = unbiasedExponent(q);
        const int emax = fmt.bias();
        const int emin = 1 - fmt.bias();
        if (e > emax)
            return std::signbit(q) ? -INFINITY : INFINITY;
        if (e < emin)
            return std::signbit(q) ? -0.0f : 0.0f;
    }
    return q;
}

int
fractionPosToWordBit(int k)
{
    assert(k >= 1 && k <= 23);
    return 23 - k;
}

} // namespace decepticon::extraction
