/**
 * @file
 * Cache-blocked, register-tiled, panel-packed GEMM (DESIGN.md §10).
 *
 * Loop structure (BLIS-style, NC/KC/MC blocking):
 *
 *   for jc over m step NC:                 column panel
 *     for pc over k step KC:               ascending — fixes sum order
 *       pack op(B)[pc:pc+kc, jc:jc+nc]     NR-strip layout, zero-padded
 *       for ic over n step MC:             sched::parallelForRange
 *         pack op(A)[ic:ic+mc, pc:pc+kc]   MR-strip layout, zero-padded
 *         for jr, ir strips: micro-kernel  MR×NR register tile
 *     epilogue over C[:, jc:jc+nc]         fused bias/activation
 *
 * Determinism: k is consumed in ascending KC blocks and ascending
 * order inside the micro-kernel, and each C element belongs to
 * exactly one (ic) task, so the summation order is a pure function of
 * (n, m, k) — never of the lane count. Parallel row-panel chunking
 * uses grain 1 over MC blocks, whose boundaries depend only on n.
 */

#include "tensor/kernels/kernels.hh"

#include <algorithm>
#include <cstring>

#include "sched/sched.hh"
#include "tensor/kernels/arena.hh"
#include "tensor/kernels/vecmath.hh"

#if defined(__GNUC__) || defined(__clang__)
#define DECEPTICON_RESTRICT __restrict__
#else
#define DECEPTICON_RESTRICT
#endif

namespace decepticon::tensor::kernels {

namespace {

// Register tile and cache-block parameters. MR×NR accumulators fit the
// vector register file (6×16 floats = 12 AVX2 / 6 AVX-512 registers);
// an MC×KC A panel (~72 KiB) sits in L2 while KC×NC of B (~512 KiB)
// streams through; NR-wide B rows are the unit-stride vector axis.
constexpr std::size_t MR = 6;
constexpr std::size_t NR = 16;
constexpr std::size_t MC = 72;
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 512;

// Work below this (n*m*k) runs single-task: the row-panel fan-out
// costs more than it saves. Pure function of shape, so thread-count
// invariance is unaffected.
constexpr std::size_t kParallelFlopFloor = 1u << 20;

/** Row stride of the stored operand when the caller passed 0. */
std::size_t
resolveLda(Trans t, const GemmCall &g)
{
    if (g.lda != 0)
        return g.lda;
    return t == Trans::TN ? g.n : g.k;
}

std::size_t
resolveLdb(Trans t, const GemmCall &g)
{
    if (g.ldb != 0)
        return g.ldb;
    return t == Trans::NT ? g.k : g.m;
}

bool
hasEpilogue(const GemmCall &g)
{
    return g.colBias != nullptr || g.rowBias != nullptr ||
           g.act != Act::None || g.preact != nullptr;
}

/**
 * Pack an mc×kc block of op(A) starting at (ic, pc) into MR-row
 * strips: ap[strip][p*MR + r]. Rows beyond mc stay zero (the arena
 * zeroed the panel), so the micro-kernel never branches on mr.
 */
void
packA(Trans t, const float *DECEPTICON_RESTRICT a, std::size_t lda,
      std::size_t ic, std::size_t pc, std::size_t mc, std::size_t kc,
      float *DECEPTICON_RESTRICT ap)
{
    for (std::size_t s = 0; s < mc; s += MR) {
        const std::size_t rows = std::min(MR, mc - s);
        float *panel = ap + s * kc;
        if (t == Trans::TN) {
            // op(A)[i][p] = a[p*lda + i]: contiguous in r.
            for (std::size_t p = 0; p < kc; ++p) {
                const float *src = a + (pc + p) * lda + ic + s;
                float *dst = panel + p * MR;
                for (std::size_t r = 0; r < rows; ++r)
                    dst[r] = src[r];
            }
        } else {
            // op(A)[i][p] = a[i*lda + p]: contiguous in p.
            for (std::size_t r = 0; r < rows; ++r) {
                const float *src = a + (ic + s + r) * lda + pc;
                for (std::size_t p = 0; p < kc; ++p)
                    panel[p * MR + r] = src[p];
            }
        }
    }
}

/**
 * Pack a kc×nc block of op(B) starting at (pc, jc) into NR-column
 * strips: bp[strip][p*NR + j], zero-padded past nc.
 */
void
packB(Trans t, const float *DECEPTICON_RESTRICT b, std::size_t ldb,
      std::size_t pc, std::size_t jc, std::size_t kc, std::size_t nc,
      float *DECEPTICON_RESTRICT bp)
{
    for (std::size_t s = 0; s < nc; s += NR) {
        const std::size_t cols = std::min(NR, nc - s);
        float *panel = bp + s * kc;
        if (t == Trans::NT) {
            // op(B)[p][j] = b[j*ldb + p]: contiguous in p.
            for (std::size_t j = 0; j < cols; ++j) {
                const float *src = b + (jc + s + j) * ldb + pc;
                for (std::size_t p = 0; p < kc; ++p)
                    panel[p * NR + j] = src[p];
            }
        } else {
            // op(B)[p][j] = b[p*ldb + j]: contiguous in j.
            for (std::size_t p = 0; p < kc; ++p) {
                const float *src = b + (pc + p) * ldb + jc + s;
                float *dst = panel + p * NR;
                for (std::size_t j = 0; j < cols; ++j)
                    dst[j] = src[j];
            }
        }
    }
}

/**
 * MR×NR register-tiled micro-kernel over packed panels: kc ascending,
 * B rows the unit-stride vector axis, one broadcast-FMA per (r, lane
 * group). Per-element summation order equals the scalar j-loop (lanes
 * are independent), so vectorization does not reassociate. Stores
 * (first k block) or adds (later blocks / accumulate mode) the valid
 * mr×nr corner into C.
 *
 * GCC/Clang vector extensions are used instead of relying on
 * auto-vectorization: the plain loop nest was verified to come out of
 * GCC 12 -O3 -march=native at ~2 GFLOP/s (SLP shuffles), while this
 * formulation reaches ~80 GFLOP/s. A scalar fallback covers other
 * compilers.
 */
#if defined(__GNUC__) || defined(__clang__)

using Vec = float __attribute__((vector_size(32)));
constexpr std::size_t VL = sizeof(Vec) / sizeof(float);
constexpr std::size_t NV = NR / VL;

void
microKernel(std::size_t kc, const float *DECEPTICON_RESTRICT ap,
            const float *DECEPTICON_RESTRICT bp,
            float *DECEPTICON_RESTRICT c, std::size_t ldc,
            std::size_t mr, std::size_t nr, bool overwrite)
{
    Vec acc[MR][NV] = {};
    for (std::size_t p = 0; p < kc; ++p) {
        Vec b[NV];
        std::memcpy(b, bp + p * NR, sizeof b);
        const float *DECEPTICON_RESTRICT acol = ap + p * MR;
        for (std::size_t r = 0; r < MR; ++r) {
            const Vec av = acol[r] - Vec{}; // broadcast
            for (std::size_t v = 0; v < NV; ++v)
                acc[r][v] += av * b[v];
        }
    }
    float out[MR][NR];
    std::memcpy(out, acc, sizeof out);
    if (overwrite) {
        for (std::size_t r = 0; r < mr; ++r) {
            float *crow = c + r * ldc;
            for (std::size_t j = 0; j < nr; ++j)
                crow[j] = out[r][j];
        }
    } else {
        for (std::size_t r = 0; r < mr; ++r) {
            float *crow = c + r * ldc;
            for (std::size_t j = 0; j < nr; ++j)
                crow[j] += out[r][j];
        }
    }
}

#else // scalar fallback, same summation order

void
microKernel(std::size_t kc, const float *DECEPTICON_RESTRICT ap,
            const float *DECEPTICON_RESTRICT bp,
            float *DECEPTICON_RESTRICT c, std::size_t ldc,
            std::size_t mr, std::size_t nr, bool overwrite)
{
    float acc[MR][NR] = {};
    for (std::size_t p = 0; p < kc; ++p) {
        const float *DECEPTICON_RESTRICT brow = bp + p * NR;
        const float *DECEPTICON_RESTRICT acol = ap + p * MR;
        for (std::size_t r = 0; r < MR; ++r) {
            const float av = acol[r];
            for (std::size_t j = 0; j < NR; ++j)
                acc[r][j] += av * brow[j];
        }
    }
    if (overwrite) {
        for (std::size_t r = 0; r < mr; ++r) {
            float *crow = c + r * ldc;
            for (std::size_t j = 0; j < nr; ++j)
                crow[j] = acc[r][j];
        }
    } else {
        for (std::size_t r = 0; r < mr; ++r) {
            float *crow = c + r * ldc;
            for (std::size_t j = 0; j < nr; ++j)
                crow[j] += acc[r][j];
        }
    }
}

#endif

/**
 * Fused epilogue over C[:, jc:jc+nc]: bias add, optional pre-
 * activation capture, activation. Element-wise, each slot written by
 * its own row task.
 */
void
applyEpilogue(const GemmCall &g, std::size_t ldc, std::size_t jc,
              std::size_t nc)
{
    for (std::size_t i = 0; i < g.n; ++i) {
        float *DECEPTICON_RESTRICT crow = g.c + i * ldc + jc;
        float *DECEPTICON_RESTRICT prow =
            g.preact != nullptr ? g.preact + i * g.m + jc : nullptr;
        const float rb = g.rowBias != nullptr ? g.rowBias[i] : 0.0f;
        const float *DECEPTICON_RESTRICT cb =
            g.colBias != nullptr ? g.colBias + jc : nullptr;
        // Bias pass (auto-vectorizes), then the activation pass.
        for (std::size_t j = 0; j < nc; ++j) {
            const float v = crow[j] + rb + (cb != nullptr ? cb[j] : 0.0f);
            if (prow != nullptr)
                prow[j] = v;
            crow[j] = v;
        }
        switch (g.act) {
        case Act::None:
            break;
        case Act::Relu:
            for (std::size_t j = 0; j < nc; ++j)
                crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
            break;
        case Act::Gelu: {
            // libm tanh per element would dominate small-model
            // forwards; use the polynomial GELU from vecmath.hh
            // (vector body, matching scalar tail).
            std::size_t j = 0;
#ifdef DECEPTICON_KERNEL_VECEXT
            for (; j + kV8Lanes <= nc; j += kV8Lanes) {
                V8 v;
                std::memcpy(&v, crow + j, sizeof v);
                v = fastGeluV(v);
                std::memcpy(crow + j, &v, sizeof v);
            }
#endif
            for (; j < nc; ++j)
                crow[j] = fastGelu(crow[j]);
            break;
        }
        }
    }
}

} // anonymous namespace

void
gemm(Trans t, const GemmCall &g)
{
    // Accumulation composes with the epilogue only in the reference
    // definition (gemmNaive); the blocked path stages partial sums in
    // C, so forbid the combination (no caller needs it).
    assert(!(g.accumulate && hasEpilogue(g)));
    const std::size_t lda = resolveLda(t, g);
    const std::size_t ldb = resolveLdb(t, g);
    const std::size_t ldc = g.ldc != 0 ? g.ldc : g.m;

    if (g.n == 0 || g.m == 0)
        return;

    if (g.k == 0) {
        // No product: C (or the bias-only epilogue) defines the output.
        if (!g.accumulate) {
            for (std::size_t i = 0; i < g.n; ++i)
                std::fill(g.c + i * ldc, g.c + i * ldc + g.m, 0.0f);
            applyEpilogue(g, ldc, 0, g.m);
        }
        return;
    }

    const bool parallel =
        g.n > MC && g.n * g.m * g.k >= kParallelFlopFloor;
    const std::size_t num_ic = (g.n + MC - 1) / MC;

    for (std::size_t jc = 0; jc < g.m; jc += NC) {
        const std::size_t nc = std::min(NC, g.m - jc);
        const std::size_t nc_pad = (nc + NR - 1) / NR * NR;
        for (std::size_t pc = 0; pc < g.k; pc += KC) {
            const std::size_t kc = std::min(KC, g.k - pc);
            ScratchArena::Frame bframe(scratch());
            float *bp = scratch().alloc(kc * nc_pad);
            packB(t, g.b, ldb, pc, jc, kc, nc, bp);
            const bool overwrite = pc == 0 && !g.accumulate;

            const auto row_block = [&](std::size_t blk) {
                const std::size_t ic = blk * MC;
                const std::size_t mc = std::min(MC, g.n - ic);
                const std::size_t mc_pad = (mc + MR - 1) / MR * MR;
                ScratchArena::Frame aframe(scratch());
                float *ap = scratch().alloc(kc * mc_pad);
                packA(t, g.a, lda, ic, pc, mc, kc, ap);
                for (std::size_t jr = 0; jr < nc; jr += NR) {
                    const float *bpanel = bp + jr * kc;
                    const std::size_t nr = std::min(NR, nc - jr);
                    for (std::size_t ir = 0; ir < mc; ir += MR) {
                        microKernel(kc, ap + ir * kc, bpanel,
                                    g.c + (ic + ir) * ldc + jc + jr,
                                    ldc, std::min(MR, mc - ir), nr,
                                    overwrite);
                    }
                }
            };

            if (parallel) {
                sched::parallelFor(num_ic, 1, row_block);
            } else {
                for (std::size_t blk = 0; blk < num_ic; ++blk)
                    row_block(blk);
            }
        }
        if (hasEpilogue(g))
            applyEpilogue(g, ldc, jc, nc);
    }
}

void
gemmNaive(Trans t, const GemmCall &g)
{
    const std::size_t lda = resolveLda(t, g);
    const std::size_t ldb = resolveLdb(t, g);
    const std::size_t ldc = g.ldc != 0 ? g.ldc : g.m;

    if (g.n == 0 || g.m == 0)
        return;
    if (g.k == 0 && g.accumulate)
        return;

    for (std::size_t i = 0; i < g.n; ++i) {
        float *crow = g.c + i * ldc;
        const float rb = g.rowBias != nullptr ? g.rowBias[i] : 0.0f;
        for (std::size_t j = 0; j < g.m; ++j) {
            float s = 0.0f;
            for (std::size_t p = 0; p < g.k; ++p) {
                const float av = t == Trans::TN ? g.a[p * lda + i]
                                                : g.a[i * lda + p];
                const float bv = t == Trans::NT ? g.b[j * ldb + p]
                                                : g.b[p * ldb + j];
                s += av * bv;
            }
            const float v =
                s + rb + (g.colBias != nullptr ? g.colBias[j] : 0.0f);
            if (g.preact != nullptr)
                g.preact[i * g.m + j] = v;
            const float r = actForward(g.act, v);
            crow[j] = g.accumulate ? crow[j] + r : r;
        }
    }
}

} // namespace decepticon::tensor::kernels
