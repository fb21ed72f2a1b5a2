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
#include <string>
#include <vector>

#include "gpusim/kernel.hh"
#include "gpusim/signature.hh"

namespace decepticon::gpusim {

/** A kernel the catalog can launch: name plus functional class. */
struct CatalogEntry
{
    std::string name;
    KernelClass klass = KernelClass::Elementwise;
};

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

    const std::vector<CatalogEntry> &entries() const { return entries_; }

    /** Indices of entries of the given class, in catalog order. */
    const std::vector<int> &entriesOfClass(KernelClass klass) const
    {
        return byClass_[static_cast<std::size_t>(klass)];
    }

    /** Number of distinct kernels the release can launch. */
    std::size_t size() const { return entries_.size(); }

    const std::string &name(int id) const { return entries_[id].name; }
    KernelClass klass(int id) const { return entries_[id].klass; }

  private:
    std::vector<CatalogEntry> entries_;
    /** entriesOfClass() pools, one per KernelClass, built once. */
    std::array<std::vector<int>,
               static_cast<std::size_t>(KernelClass::Fusion) + 1>
        byClass_;
};

} // namespace decepticon::gpusim

#endif // DECEPTICON_GPUSIM_CATALOG_HH
