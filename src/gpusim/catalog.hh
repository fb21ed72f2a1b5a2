/**
 * @file
 * Kernel name catalogs per framework/developer, mirroring the census
 * the paper reports in Fig. 9: PyTorch releases launch a handful of
 * cuBLAS/ATen kernels, TensorFlow releases launch hundreds of backend
 * and fusion kernels, NVIDIA releases prefer tensor-core half-precision
 * GEMMs, and Meta releases issue many short reduction kernels.
 */

#ifndef DECEPTICON_GPUSIM_CATALOG_HH
#define DECEPTICON_GPUSIM_CATALOG_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "gpusim/kernel.hh"
#include "gpusim/signature.hh"

namespace decepticon::gpusim {

/**
 * The set of kernels available to one software signature. Built
 * deterministically from the signature so the same release always
 * exposes the same kernel population.
 */
class KernelCatalog
{
  public:
    /**
     * Build the catalog implied by a software signature; @p seed is
     * sig.seed(), which a TraceGenerator computes once and caches
     * (it hashes the signature's string form).
     */
    KernelCatalog(const SoftwareSignature &sig, std::uint64_t seed);

    /**
     * Name of every kernel, indexed by id. Immutable and shared: this
     * is the KernelTrace::kernelNames table every trace of the
     * release points at.
     */
    const std::shared_ptr<const KernelNameTable> &
    names() const
    {
        return names_;
    }

    /** Indices of entries of the given class, in catalog order. */
    std::span<const int> entriesOfClass(KernelClass klass) const
    {
        const auto k = static_cast<std::size_t>(klass);
        return {byClass_.data() + classStart_[k],
                classStart_[k + 1] - classStart_[k]};
    }

    /** Number of distinct kernels the release can launch. */
    std::size_t size() const { return klasses_.size(); }

    std::string_view name(int id) const { return (*names_)[id]; }
    KernelClass klass(int id) const { return klasses_[id]; }

  private:
    std::shared_ptr<const KernelNameTable> names_;
    std::vector<KernelClass> klasses_;
    /** Every id, grouped by class (catalog order within a class):
     *  the entriesOfClass() pools, built once. */
    std::vector<int> byClass_;
    /** Class k's pool is byClass_[classStart_[k], classStart_[k + 1]). */
    std::array<std::size_t, static_cast<std::size_t>(KernelClass::Fusion) + 2>
        classStart_{};
};

} // namespace decepticon::gpusim

#endif // DECEPTICON_GPUSIM_CATALOG_HH
