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
#include <memory>
#include <string>
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
    /** Build the catalog implied by a software signature. */
    explicit KernelCatalog(const SoftwareSignature &sig);

    /**
     * Name of every kernel, indexed by id. Immutable and shared: this
     * is the KernelTrace::kernelNames table every trace of the
     * release points at.
     */
    const std::shared_ptr<const std::vector<std::string>> &
    names() const
    {
        return names_;
    }

    /** Indices of entries of the given class, in catalog order. */
    const std::vector<int> &entriesOfClass(KernelClass klass) const
    {
        return byClass_[static_cast<std::size_t>(klass)];
    }

    /** Number of distinct kernels the release can launch. */
    std::size_t size() const { return klasses_.size(); }

    const std::string &name(int id) const { return (*names_)[id]; }
    KernelClass klass(int id) const { return klasses_[id]; }

  private:
    std::shared_ptr<const std::vector<std::string>> names_;
    std::vector<KernelClass> klasses_;
    /** entriesOfClass() pools, one per KernelClass, built once. */
    std::array<std::vector<int>,
               static_cast<std::size_t>(KernelClass::Fusion) + 1>
        byClass_;
};

} // namespace decepticon::gpusim

#endif // DECEPTICON_GPUSIM_CATALOG_HH
