#include "gpusim/catalog.hh"

#include <charconv>

#include "util/rng.hh"

namespace decepticon::gpusim {

namespace {

/** GEMM tile shapes seen in real cuBLAS kernel names. */
const char *const kTileShapes[] = {
    "128x128", "128x64", "64x128", "32x128", "128x32", "64x64", "256x64",
};

const char *const kTransposes[] = {"nn", "tn", "nt", "tt"};

const char *
pick(util::Rng &rng, const char *const *options, std::size_t n)
{
    return options[rng.uniformInt(n)];
}

/** Framework-specific GEMM name prefix: each stack ships its own
 *  BLAS backend, so kernel names never coincide across frameworks. */
const char *
gemmPrefix(Framework f)
{
    switch (f) {
      case Framework::PyTorch:
        return "volta_sgemm_";
      case Framework::TensorFlow:
        return "tf_gemm_backend_";
      case Framework::Mxnet:
        return "mxnet_sgemm_";
    }
    return "sgemm_";
}

/** Decimal text of an integer, as a name piece. */
class Decimal
{
  public:
    explicit Decimal(long long v)
        : len_(static_cast<std::size_t>(
              std::to_chars(buf_, buf_ + sizeof buf_, v).ptr - buf_))
    {}
    operator std::string_view() const { return {buf_, len_}; }

  private:
    char buf_[24];
    std::size_t len_;
};

} // anonymous namespace

KernelCatalog::KernelCatalog(const SoftwareSignature &sig,
                             std::uint64_t seed)
{
    util::Rng rng(seed);

    const bool tf = sig.framework == Framework::TensorFlow;
    auto names = std::make_shared<KernelNameTable>();
    // About the largest TF and non-TF catalogs: no buffer regrows.
    names->reserve(tf ? 280 : 96, tf ? 6144 : 2048);
    klasses_.reserve(tf ? 280 : 96);
    auto add = [&](std::initializer_list<std::string_view> name,
                   KernelClass klass) {
        names->push(name);
        klasses_.push_back(klass);
    };

    // --- GEMM population -------------------------------------------------
    // PyTorch releases call a handful of cuBLAS kernels; TensorFlow
    // releases expose many specialized backend variants (Fig. 9).
    // Each GEMM name draws its transpose before its tile shape: the
    // draw order every existing release's names were made with.
    const std::size_t gemm_variants =
        tf ? 12 + rng.uniformInt(8) : 2 + rng.uniformInt(3);
    for (std::size_t i = 0; i < gemm_variants; ++i) {
        const char *transpose = pick(rng, kTransposes, 4);
        const char *tile = pick(rng, kTileShapes, 7);
        if (sig.useTensorCores) {
            // Tensor-core half-precision GEMM, e.g. Ampere s16816.
            add({"ampere_fp16_s16816gemm_fp16_", tile, "_ldg8_", transpose},
                KernelClass::Gemm);
        } else {
            // BLAS GEMM, e.g. "volta_sgemm_128x64_tn".
            add({gemmPrefix(sig.framework), tile, "_", transpose},
                KernelClass::Gemm);
        }
    }
    switch (sig.framework) {
      case Framework::PyTorch:
        add({"splitKreduce_kernel"}, KernelClass::Gemm);
        break;
      case Framework::TensorFlow:
        add({"tf_split_k_reduce"}, KernelClass::Gemm);
        break;
      case Framework::Mxnet:
        add({"mxnet_split_k"}, KernelClass::Gemm);
        break;
    }

    // --- Attention-specific kernels --------------------------------------
    if (sig.useTensorCores) {
        add({"ampere_fp16_sgemm_fp16_64x64_sliced1x2_nn"},
            KernelClass::AttnGemm);
    } else {
        add({gemmPrefix(sig.framework), "32x32_sliced1x4_tn"},
            KernelClass::AttnGemm);
    }
    switch (sig.framework) {
      case Framework::PyTorch:
        add({"softmax_warp_forward"}, KernelClass::Softmax);
        break;
      case Framework::TensorFlow:
        add({"softmax_fused_warp_kernel"}, KernelClass::Softmax);
        break;
      case Framework::Mxnet:
        add({"mxnet_softmax_fused"}, KernelClass::Softmax);
        break;
    }

    // --- Normalization / element-wise -----------------------------------
    switch (sig.framework) {
      case Framework::PyTorch:
        add({sig.developer == Developer::Nvidia
                 ? "cuApplyLayerNorm"
                 : "LayerNormForwardCUDAKernel"},
            KernelClass::LayerNorm);
        add({"vectorized_elementwise_kernel"}, KernelClass::Elementwise);
        add({"unrolled_elementwise_kernel"}, KernelClass::Elementwise);
        add({"elementwise_kernel_with_index"}, KernelClass::Elementwise);
        break;
      case Framework::TensorFlow:
        add({"AddV2_GPU_DT_FLOAT_DT_FLOAT_kernel"}, KernelClass::Elementwise);
        add({"Mul_GPU_DT_FLOAT_DT_FLOAT_kernel"}, KernelClass::Elementwise);
        add({"Sub_GPU_DT_FLOAT_DT_FLOAT_kernel"}, KernelClass::Elementwise);
        add({"FusedBatchNormV3_GPU"}, KernelClass::LayerNorm);
        break;
      case Framework::Mxnet:
        add({"mxnet_op_broadcast_kernel"}, KernelClass::Elementwise);
        add({"mxnet_layer_norm_fused"}, KernelClass::LayerNorm);
        break;
    }

    // --- Memory / staging -------------------------------------------------
    switch (sig.framework) {
      case Framework::PyTorch:
        add({"indexSelectLargeIndex"}, KernelClass::Memory);
        add({"CatArrayBatchedCopy"}, KernelClass::Memory);
        break;
      case Framework::TensorFlow:
        add({"convert_", Decimal(400 + rng.uniformInt(40))},
            KernelClass::Memory);
        add({"tf_gather_v2_gpu"}, KernelClass::Memory);
        break;
      case Framework::Mxnet:
        add({"mxnet_take_kernel"}, KernelClass::Memory);
        add({"mxnet_concat_copy"}, KernelClass::Memory);
        break;
    }

    // --- Reductions: Meta-style releases run many short reduce ops -------
    const std::size_t reduce_variants =
        sig.developer == Developer::Meta ? 5 : 1;
    for (std::size_t i = 0; i < reduce_variants; ++i) {
        add({"reduce_1Block_kernel_v", Decimal(i)}, KernelClass::Reduction);
    }
    if (sig.developer == Developer::Meta) {
        add({"dot_kernel"}, KernelClass::Reduction);
        add({"gemv2T_kernel_val"}, KernelClass::Reduction);
        add({"DeviceScanKernel"}, KernelClass::Reduction);
    }

    // --- TensorFlow backend sprawl ---------------------------------------
    // The paper measures ~40x more unique kernels for TF releases; add a
    // large population of backend/fusion kernels.
    if (tf) {
        const std::size_t sprawl = 160 + rng.uniformInt(80);
        for (std::size_t i = 0; i < sprawl; ++i) {
            const double roll = rng.uniform();
            if (roll < 0.35) {
                add({"fusion_", Decimal(i)}, KernelClass::Fusion);
            } else if (roll < 0.6) {
                add({"convert_", Decimal(i)}, KernelClass::Memory);
            } else if (roll < 0.85) {
                add({"tf_op_gpu_kernel_", Decimal(i)},
                    KernelClass::Elementwise);
            } else {
                add({"wrapped_reduce_", Decimal(i)},
                    KernelClass::Reduction);
            }
        }
    } else if (sig.framework == Framework::Mxnet) {
        // MXNet sits between PyTorch and TF: dozens of per-operator
        // kernels (paper Table 2: 2652 executions of 59 kernels).
        const std::size_t sprawl = 25 + rng.uniformInt(15);
        for (std::size_t i = 0; i < sprawl; ++i) {
            add({"mxnet_op_kernel_", Decimal(i)},
                rng.bernoulli(0.7) ? KernelClass::Elementwise
                                   : KernelClass::Reduction);
        }
    }
    if (!tf && (sig.useXla || sig.fusionLevel > 0)) {
        for (std::size_t i = 0; i < 12; ++i)
            add({"fusion_", Decimal(i)}, KernelClass::Fusion);
    }

    // --- Dialect salt ------------------------------------------------------
    // Library-version differences surface as a few extra private kernels.
    const std::size_t dialect_extras = 1 + rng.uniformInt(3);
    for (std::size_t i = 0; i < dialect_extras; ++i) {
        add({"private_kernel_d", Decimal(sig.kernelDialect), "_",
             Decimal(i)},
            KernelClass::Elementwise);
    }

    names_ = std::move(names);
    // Counting sort of the ids by class, stable, into one buffer.
    for (KernelClass klass : klasses_)
        ++classStart_[static_cast<std::size_t>(klass) + 1];
    for (std::size_t k = 1; k < classStart_.size(); ++k)
        classStart_[k] += classStart_[k - 1];
    byClass_.resize(klasses_.size());
    auto next = classStart_;
    for (std::size_t i = 0; i < klasses_.size(); ++i)
        byClass_[next[static_cast<std::size_t>(klasses_[i])]++] =
            static_cast<int>(i);
}

} // namespace decepticon::gpusim
