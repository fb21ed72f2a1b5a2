/**
 * @file
 * GPU kernel execution records and traces — the architectural-hint
 * side channel of the paper (Sec. 5.2). A trace is the time series of
 * (T_invocation, T_termination) pairs for every kernel launched during
 * one model inference, exactly what the paper's attacker collects via
 * EM/bus side channels.
 */

#ifndef DECEPTICON_GPUSIM_KERNEL_HH
#define DECEPTICON_GPUSIM_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace decepticon::gpusim {

/** Execution phase a kernel belongs to (ground truth for evaluation). */
enum class Phase
{
    Prologue,    ///< embedding lookup / input staging
    Encoder,     ///< repeated per-encoder kernel group
    XlaRegion,   ///< XLA compilation/fusion burst (corner case, Fig. 12)
    OutputLayer, ///< task-specific last layer
};

/** Functional class of a kernel, driving its duration model. */
enum class KernelClass
{
    Gemm,        ///< large matrix multiply
    AttnGemm,    ///< seq-len-squared attention score/context multiply
    Softmax,     ///< attention softmax
    LayerNorm,
    Elementwise, ///< bias/activation/residual
    Reduction,   ///< short reduce kernels (Meta-style traces)
    Memory,      ///< copies / index selects
    Fusion,      ///< XLA fused region kernel (last: KernelCatalog
                 ///< sizes its per-class pools by it)
};

/** One kernel invocation. Timestamps are microseconds from t=0. */
struct KernelRecord
{
    int kernelId = 0;        ///< index into KernelTrace::kernelNames
    double tStart = 0.0;     ///< T_invocation
    double tEnd = 0.0;       ///< T_termination
    Phase phase = Phase::Encoder;
    KernelClass klass = KernelClass::Elementwise;
    /** Encoder index this kernel implements, or -1 outside encoders. */
    int layerIndex = -1;

    double duration() const { return tEnd - tStart; }
};

/**
 * The kernel names of one release, indexed by kernel id, in one
 * contiguous buffer: each name's bytes followed by a NUL. operator[]
 * serves a view of the bytes, and the NUL after them is readable too,
 * so a name's data() is a C string. A table costs two buffers, not one
 * heap string per kernel.
 */
class KernelNameTable
{
  public:
    /** Room for @p names names of @p chars bytes in all, NULs included. */
    void reserve(std::size_t names, std::size_t chars);

    /** Append the next id's name: the concatenation of @p pieces. */
    void push(std::initializer_list<std::string_view> pieces);

    std::size_t size() const { return starts_.size() - 1; }

    std::string_view
    operator[](std::size_t id) const
    {
        return {chars_.data() + starts_[id],
                starts_[id + 1] - starts_[id] - 1};
    }

    bool operator==(const KernelNameTable &) const = default;

  private:
    /** Every name, each followed by its NUL. */
    std::string chars_;
    /** Name id spans [starts_[id], starts_[id + 1] - 1) of chars_. */
    std::vector<std::uint32_t> starts_{0};
};

/** A full inference trace: kernel name table + time-ordered records. */
struct KernelTrace
{
    /**
     * Name of every kernel id the release can launch. Immutable and
     * shared: the TraceGenerator builds it once, and every trace it
     * emits, and every trace derived from one (corrupted, repaired,
     * cropped), points at that same table instead of copying it.
     */
    std::shared_ptr<const KernelNameTable> kernelNames;
    std::vector<KernelRecord> records;

    /** Total wall time (end of last kernel). */
    double totalTime() const;

    /** Durations of all records, in invocation order. */
    std::vector<double> durations() const;

    /**
     * Number of distinct kernel ids actually invoked: one pass over a
     * bitmap sized by kernelNames, or a sort when the table is null or
     * an id falls outside it.
     */
    std::size_t uniqueKernelCount() const;

    /** Maximum single-kernel duration. */
    double peakDuration() const;

    /** Kernel-id sequence in invocation order (for LER baselines). */
    std::vector<int> kernelIdSequence() const;
};

} // namespace decepticon::gpusim

#endif // DECEPTICON_GPUSIM_KERNEL_HH
