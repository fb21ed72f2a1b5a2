/**
 * @file
 * Synthesizes GPU kernel execution traces for transformer inference
 * under a given software signature. The generator reproduces the
 * structural properties the paper measures on real GPUs:
 *
 *  - each encoder executes an identically shaped kernel group, so a
 *    model with L encoders shows L repetitions (Fig. 10);
 *  - the group's composition (which kernels, how many) is a pure
 *    function of the software signature, so releases from different
 *    sources look completely different (Figs. 7, 9) while a fine-tuned
 *    model inherits its pre-trained model's pattern (Fig. 8);
 *  - peak kernel duration scales with hidden size (Fig. 10);
 *  - XLA-optimized releases interleave an irregular fusion region
 *    (Fig. 12); head pruning shortens the short attention kernels
 *    (Fig. 21).
 */

#ifndef DECEPTICON_GPUSIM_TRACE_GENERATOR_HH
#define DECEPTICON_GPUSIM_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "gpusim/catalog.hh"
#include "gpusim/kernel.hh"
#include "gpusim/signature.hh"

namespace decepticon::gpusim {

/** Architecture of the model whose inference is being traced. */
struct ArchParams
{
    std::size_t numLayers = 12;
    std::size_t hidden = 768;
    std::size_t numHeads = 12;
    std::size_t seqLen = 128;
    /** Heads removed by head pruning (0 = dense model). */
    std::size_t prunedHeads = 0;
    /** Output (task) layer width; drives the tiny epilogue kernels. */
    std::size_t numClasses = 2;

    double
    activeHeadRatio() const
    {
        return numHeads == 0
                   ? 1.0
                   : static_cast<double>(numHeads - prunedHeads) /
                         static_cast<double>(numHeads);
    }
};

/**
 * Deterministic trace synthesizer for one software signature. The
 * per-encoder kernel-group template is fixed at construction (it is
 * the model's fingerprint); generate() instantiates it with per-run
 * timing jitter.
 *
 * Everything per release — the catalog, the templates, the signature
 * seed and the kernel-name table every trace shares — is built once in
 * the constructor. The generate*() members are const and write no
 * member, so one generator may serve many seeds and be called
 * from several sched lanes at once.
 */
class TraceGenerator
{
  public:
    explicit TraceGenerator(const SoftwareSignature &sig);

    /** Synthesize one inference trace. run_seed varies jitter only. */
    KernelTrace generate(const ArchParams &arch,
                         std::uint64_t run_seed) const;

    /**
     * Synthesize a trace under the paper's proposed countermeasure
     * (Sec. 8): the runtime randomizes kernel/library selection per
     * invocation so the schedule stops being a stable fingerprint.
     *
     * @param strength in [0, 1]: probability that each kernel launch
     *        is re-routed to a randomly chosen same-class
     *        implementation with run-specific timing. 0 reduces to
     *        generate().
     *
     * Randomly chosen implementations are generally not the fastest
     * available, so defended kernels pay a timing penalty that grows
     * with strength — the overhead side of the trade-off.
     */
    KernelTrace generateDefended(const ArchParams &arch,
                                 std::uint64_t run_seed,
                                 double strength) const;

    /** Number of kernels in the per-encoder group template. */
    // lint: suppress(R11) the generator's ground truth: the boundary
    // detection tests compare the detected period against it
    std::size_t groupSize() const { return groupTemplate_.size(); }

  private:
    /** One slot of the per-encoder kernel-group template. */
    struct Slot
    {
        int kernelId;
        KernelClass klass;
        /** Relative compute volume multiplier (e.g. 4x FFN GEMMs). */
        double sizeFactor;
        /**
         * Per-release timing personality: kernel implementations from
         * different library builds run at different speeds, which is
         * part of what makes fingerprints release-specific. Fixed per
         * slot at construction; inherited by fine-tuned descendants.
         */
        double personality = 1.0;
    };

    double slotDuration(const Slot &slot, const ArchParams &arch) const;

    SoftwareSignature sig_;
    /** sig_.seed(), cached: it hashes the signature's string form. */
    std::uint64_t seed_;
    /** Its names() table is the one every generated trace points at. */
    KernelCatalog catalog_;
    std::vector<Slot> groupTemplate_;
    std::vector<Slot> prologueTemplate_;
    std::vector<Slot> epilogueTemplate_;
};

} // namespace decepticon::gpusim

#endif // DECEPTICON_GPUSIM_TRACE_GENERATOR_HH
