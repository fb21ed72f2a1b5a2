/**
 * @file
 * Optimized compute kernels behind the tensor/nn substrates
 * (DESIGN.md §10): a cache-blocked, register-tiled, panel-packed GEMM
 * serving all three transpose variants through one micro-kernel, with
 * fused bias/activation epilogues and BLAS-style leading dimensions
 * so attention heads and conv patch matrices can be multiplied in
 * place without slice copies.
 *
 * Determinism contract: for a given shape (n, m, k) the floating-
 * point summation order is a pure function of the shape — k is walked
 * in ascending KC-sized blocks and ascending within a block, and each
 * output element is produced in full by exactly one task — never of
 * DECEPTICON_THREADS or scheduling order. Optimized results therefore
 * match themselves bit-for-bit at any lane count (§9), while they may
 * differ from the reference loops (gemmNaive) by rounding (the
 * differential kernel tests allow 1e-5 relative). There is one
 * implementation per operation at run time: the reference loops are
 * test oracles only.
 */

#ifndef DECEPTICON_TENSOR_KERNELS_KERNELS_HH
#define DECEPTICON_TENSOR_KERNELS_KERNELS_HH

#include <cmath>
#include <cstddef>

namespace decepticon::tensor::kernels {

/** Which operand of C = op(A)·op(B) is transposed. */
enum class Trans : unsigned char {
    NN, ///< C(n,m) = A(n,k) · B(k,m)
    NT, ///< C(n,m) = A(n,k) · B(m,k)^T
    TN, ///< C(n,m) = A(k,n)^T · B(k,m)
};

/** Activation fused into the GEMM epilogue. */
enum class Act : unsigned char { None, Relu, Gelu };

/**
 * One GEMM invocation. Leading dimensions are the row strides of the
 * *stored* operands (before any transpose), so a head slice of a
 * (T, D) matrix is simply {ptr + h*dh, ld = D}.
 *
 * Epilogue semantics, applied once per element after the full-k
 * product is accumulated:
 *
 *     v = sum + colBias[j] + rowBias[i]      (absent terms are 0)
 *     preact[i*m + j] = v                    (when preact != nullptr)
 *     C[i*ldc + j] (=|+=) act(v)             (+= when accumulate)
 *
 * accumulate adds the epilogue result onto the existing C contents
 * (C must be initialized by the caller); bias/act compose with it
 * only in the trivial ways the nn layers need, so the common
 * accumulate use (dW += dy^T x) passes no bias and Act::None.
 */
struct GemmCall
{
    std::size_t n = 0, m = 0, k = 0;
    const float *a = nullptr;
    std::size_t lda = 0; ///< 0 = tight (k for NN/NT, n for TN)
    const float *b = nullptr;
    std::size_t ldb = 0; ///< 0 = tight (m for NN/TN, k for NT)
    float *c = nullptr;
    std::size_t ldc = 0; ///< 0 = tight (m)
    const float *colBias = nullptr; ///< length m, added per column
    const float *rowBias = nullptr; ///< length n, added per row
    Act act = Act::None;
    bool accumulate = false;
    float *preact = nullptr; ///< optional (n, m) pre-activation copy
};

/** C = act(op(A)·op(B) + bias): blocked, packed and parallel. */
void gemm(Trans t, const GemmCall &call);

/** The reference loop nest gemm() is tested against (same semantics). */
// lint: suppress(R11) the differential suite's oracle: kernels_test
// compares gemm() and the layers built on it with these loops
void gemmNaive(Trans t, const GemmCall &call);

/**
 * Row softmax of an (rows, cols) matrix using a vectorizable
 * range-reduced polynomial exp (~4e-8 relative). The backend of
 * tensor::softmaxRows; kernels_test checks it against libm expf.
 */
void softmaxRowsFast(const float *x, float *y, std::size_t rows,
                     std::size_t cols);

/** GELU (tanh approximation), shared by nn::Gelu and the epilogue. */
inline float
geluForward(float v)
{
    constexpr float c = 0.7978845608028654f; // sqrt(2/pi)
    constexpr float a = 0.044715f;
    const float t = std::tanh(c * (v + a * v * v * v));
    return 0.5f * v * (1.0f + t);
}

/** d gelu(v) / dv at pre-activation v. */
inline float
geluBackward(float v)
{
    constexpr float c = 0.7978845608028654f;
    constexpr float a = 0.044715f;
    const float u = c * (v + a * v * v * v);
    const float t = std::tanh(u);
    const float sech2 = 1.0f - t * t;
    const float du = c * (1.0f + 3.0f * a * v * v);
    return 0.5f * (1.0f + t) + 0.5f * v * sech2 * du;
}

/** Activation forward at pre-activation v. */
inline float
actForward(Act act, float v)
{
    switch (act) {
    case Act::Relu:
        return v > 0.0f ? v : 0.0f;
    case Act::Gelu:
        return geluForward(v);
    case Act::None:
        break;
    }
    return v;
}

/** Activation derivative at pre-activation v. */
inline float
actBackward(Act act, float v)
{
    switch (act) {
    case Act::Relu:
        return v > 0.0f ? 1.0f : 0.0f;
    case Act::Gelu:
        return geluBackward(v);
    case Act::None:
        break;
    }
    return 1.0f;
}

} // namespace decepticon::tensor::kernels

#endif // DECEPTICON_TENSOR_KERNELS_KERNELS_HH
