/**
 * @file
 * Branch-light float math shared by the optimized kernels
 * (DESIGN.md §10): a Cody–Waite range-reduced degree-6 polynomial
 * expf (~3e-7 relative error) and a tanh/GELU built on it, in scalar
 * form and — under GCC/Clang — as 8-lane vector-extension variants.
 * Inputs below the expf underflow cutoff flush to exactly zero, so a
 * masked (-1e30) softmax entry is exactly 0, as under libm underflow;
 * the paper digests depend on this flush. All results are pure
 * functions of the input values; nothing here depends on thread count
 * or scheduling order.
 *
 * The reference kernels (gemmNaive, the test's softmax) do NOT use
 * these: they keep libm (std::exp / std::tanh), so the differential
 * kernel tests also bound the polynomial approximation error.
 */

#ifndef DECEPTICON_TENSOR_KERNELS_VECMATH_HH
#define DECEPTICON_TENSOR_KERNELS_VECMATH_HH

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace decepticon::tensor::kernels {

inline constexpr float kExpLog2e = 1.4426950408889634f;
inline constexpr float kExpLn2Hi = 0.693145751953125f;
inline constexpr float kExpLn2Lo = 1.428606765330187e-06f;
inline constexpr float kExpMagic = 12582912.0f; // 1.5*2^23: rne trick
inline constexpr float kExpLo = -87.0f;
inline constexpr float kExpHi = 88.0f;

/**
 * Scalar fast expf: exact power-of-two scaling of a degree-6 Taylor
 * polynomial on the reduced argument r in [-ln2/2, ln2/2].
 */
inline float
fastExp(float x)
{
    if (x < kExpLo)
        return 0.0f;
    x = std::min(kExpHi, x);
    const float nf = (x * kExpLog2e + kExpMagic) - kExpMagic;
    const float r = (x - nf * kExpLn2Hi) - nf * kExpLn2Lo;
    float p = 1.0f / 720.0f;
    p = p * r + 1.0f / 120.0f;
    p = p * r + 1.0f / 24.0f;
    p = p * r + 1.0f / 6.0f;
    p = p * r + 0.5f;
    p = p * r + 1.0f;
    p = p * r + 1.0f;
    const std::int32_t bits =
        (static_cast<std::int32_t>(nf) + 127) << 23;
    float scale;
    std::memcpy(&scale, &bits, sizeof scale);
    return p * scale;
}

/** Scalar fast tanh via tanh(u) = (e^{2u} - 1) / (e^{2u} + 1). */
inline float
fastTanh(float u)
{
    const float e = fastExp(2.0f * u);
    return (e - 1.0f) / (e + 1.0f);
}

/** GELU (tanh approximation) with the fast tanh above. */
inline float
fastGelu(float v)
{
    constexpr float c = 0.7978845608028654f; // sqrt(2/pi)
    constexpr float a = 0.044715f;
    const float t = fastTanh(c * (v + a * v * v * v));
    return 0.5f * v * (1.0f + t);
}

#if defined(__GNUC__) || defined(__clang__)
#define DECEPTICON_KERNEL_VECEXT 1

using V8 = float __attribute__((vector_size(32)));
using I8 = std::int32_t __attribute__((vector_size(32)));

inline constexpr std::size_t kV8Lanes = sizeof(V8) / sizeof(float);

inline V8
vbroadcast(float v)
{
    return V8{} + v;
}

/** Eight fastExp lanes at once; same formula as the scalar version. */
inline V8
fastExpV(V8 x)
{
    const V8 lo = vbroadcast(kExpLo), hi = vbroadcast(kExpHi);
    const V8 orig = x;
    x = x < lo ? lo : x;
    x = x > hi ? hi : x;
    const V8 magic = vbroadcast(kExpMagic);
    const V8 t = x * vbroadcast(kExpLog2e) + magic;
    const V8 nf = t - magic;
    const V8 r =
        (x - nf * vbroadcast(kExpLn2Hi)) - nf * vbroadcast(kExpLn2Lo);
    V8 p = vbroadcast(1.0f / 720.0f);
    p = p * r + vbroadcast(1.0f / 120.0f);
    p = p * r + vbroadcast(1.0f / 24.0f);
    p = p * r + vbroadcast(1.0f / 6.0f);
    p = p * r + vbroadcast(0.5f);
    p = p * r + vbroadcast(1.0f);
    p = p * r + vbroadcast(1.0f);
    const I8 bits = (__builtin_convertvector(nf, I8) + 127) << 23;
    V8 scale;
    std::memcpy(&scale, &bits, sizeof scale);
    const V8 e = p * scale;
    return orig < lo ? V8{} : e; // underflow flush, see fastExp
}

inline V8
fastTanhV(V8 u)
{
    const V8 one = vbroadcast(1.0f);
    const V8 e = fastExpV(u + u);
    return (e - one) / (e + one);
}

inline V8
fastGeluV(V8 v)
{
    const V8 c = vbroadcast(0.7978845608028654f);
    const V8 a = vbroadcast(0.044715f);
    const V8 t = fastTanhV(c * (v + a * v * v * v));
    return vbroadcast(0.5f) * v * (vbroadcast(1.0f) + t);
}

#endif // GCC/Clang vector extensions

} // namespace decepticon::tensor::kernels

#endif // DECEPTICON_TENSOR_KERNELS_VECMATH_HH
