/**
 * @file
 * Scratch memory for the optimized kernel layer (DESIGN.md §10).
 *
 * Two lifetimes are provided:
 *
 *  - ScratchArena: a per-thread bump allocator for buffers that live
 *    only for the duration of one kernel call (GEMM packing panels,
 *    col2im staging). A Frame restores the watermark on scope exit,
 *    so repeated kernel calls reuse the same hot pages instead of
 *    hitting malloc. Storage is slab-based: growing the arena never
 *    moves previously returned buffers, so a packed B panel stays
 *    valid while later chunks allocate their A panels. Arena contents
 *    never feed back into results, so thread-locality cannot break
 *    the §9 determinism contract.
 *
 *  - ActivationCache: a layer-owned slot for activations that must
 *    survive from forward() to the matching backward() (the cached
 *    input of Linear, the im2col panel of Conv2d, pre-activation
 *    values under a fused epilogue). Storage is reused across calls —
 *    no per-forward allocation once warm — and every store stamps the
 *    global activation epoch. recycleActivations() (called by
 *    trainers after each optimizer step) advances the epoch, after
 *    which a backward() against the stale cache trips an assert
 *    instead of silently using recycled data.
 */

#ifndef DECEPTICON_TENSOR_KERNELS_ARENA_HH
#define DECEPTICON_TENSOR_KERNELS_ARENA_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace decepticon::tensor::kernels {

/** Per-thread bump allocator for kernel-call-scoped float buffers. */
class ScratchArena
{
  public:
    /**
     * RAII watermark: buffers obtained while a Frame is alive are
     * reclaimed (not freed) when it goes out of scope.
     */
    class Frame
    {
      public:
        explicit Frame(ScratchArena &arena)
            : arena_(arena), slab_(arena.slab_), used_(arena.used_)
        {
        }
        ~Frame()
        {
            arena_.slab_ = slab_;
            arena_.used_ = used_;
        }
        Frame(const Frame &) = delete;
        Frame &operator=(const Frame &) = delete;

      private:
        ScratchArena &arena_;
        std::size_t slab_;
        std::size_t used_;
    };

    /**
     * n floats of zeroed scratch, valid until the enclosing Frame (or
     * the arena) is destroyed. Pointer-stable: later alloc() calls
     * never move earlier buffers.
     */
    float *
    alloc(std::size_t n)
    {
        if (n == 0)
            n = 1;
        while (slab_ < slabs_.size() &&
               used_ + n > slabs_[slab_].size) {
            ++slab_;
            used_ = 0;
        }
        if (slab_ == slabs_.size()) {
            const std::size_t size = n > kSlabFloats ? n : kSlabFloats;
            slabs_.push_back(
                {std::make_unique<float[]>(size), size});
            used_ = 0;
        }
        float *p = slabs_[slab_].data.get() + used_;
        used_ += n;
        std::memset(p, 0, n * sizeof(float));
        return p;
    }

  private:
    static constexpr std::size_t kSlabFloats = 1u << 20; // 4 MiB

    struct Slab
    {
        std::unique_ptr<float[]> data;
        std::size_t size;
    };

    std::vector<Slab> slabs_;
    std::size_t slab_ = 0; ///< slab the bump pointer is in
    std::size_t used_ = 0; ///< floats used within slabs_[slab_]
};

/** The calling thread's scratch arena. */
ScratchArena &scratch();

/**
 * Current activation epoch. Starts at 1 so a default-constructed
 * ActivationCache (epoch 0) is never considered valid.
 */
std::uint64_t activationEpoch();

/**
 * Advance the activation epoch, invalidating every ActivationCache
 * stamped before the call. Trainers call this after each optimizer
 * step; a backward() issued against a recycled cache asserts.
 */
void recycleActivations();

/**
 * Layer-owned forward→backward activation slot with storage reuse and
 * epoch validation (see file header).
 */
class ActivationCache
{
  public:
    /**
     * Reserve n floats of reusable storage and stamp the current
     * epoch. Contents are uninitialized; the caller writes them
     * (e.g. a GEMM epilogue or im2col writes straight into the slot).
     */
    float *
    prepare(std::size_t n)
    {
        if (buf_.size() < n)
            buf_.resize(n);
        n_ = n;
        epoch_ = activationEpoch();
        return buf_.data();
    }

    /** prepare() + copy from src. */
    void
    store(const float *src, std::size_t n)
    {
        std::memcpy(prepare(n), src, n * sizeof(float));
    }

    /** True while no recycleActivations() happened since the stamp. */
    bool valid() const { return epoch_ != 0 && epoch_ == activationEpoch(); }

    const float *data() const { return buf_.data(); }
    float *data() { return buf_.data(); }
    std::size_t size() const { return n_; }

  private:
    std::vector<float> buf_;
    std::size_t n_ = 0;
    std::uint64_t epoch_ = 0;
};

} // namespace decepticon::tensor::kernels

#endif // DECEPTICON_TENSOR_KERNELS_ARENA_HH
