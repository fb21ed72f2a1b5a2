#include "gpusim/catalog.hh"

#include "util/rng.hh"

namespace decepticon::gpusim {

namespace {

/** GEMM tile shapes seen in real cuBLAS kernel names. */
const char *const kTileShapes[] = {
    "128x128", "128x64", "64x128", "32x128", "128x32", "64x64", "256x64",
};

const char *const kTransposes[] = {"nn", "tn", "nt", "tt"};

std::string
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

/** BLAS GEMM name, e.g. "volta_sgemm_128x64_tn". */
std::string
sgemmName(util::Rng &rng, Framework f)
{
    return std::string(gemmPrefix(f)) + pick(rng, kTileShapes, 7) + "_" +
           pick(rng, kTransposes, 4);
}

/** Tensor-core half-precision GEMM, e.g. Ampere s16816 kernels. */
std::string
tensorCoreGemmName(util::Rng &rng)
{
    return "ampere_fp16_s16816gemm_fp16_" + pick(rng, kTileShapes, 7) +
           "_ldg8_" + pick(rng, kTransposes, 4);
}

} // anonymous namespace

KernelCatalog::KernelCatalog(const SoftwareSignature &sig)
{
    util::Rng rng(sig.seed());

    std::vector<std::string> names;
    auto add = [&](std::string name, KernelClass klass) {
        names.push_back(std::move(name));
        klasses_.push_back(klass);
    };

    // --- GEMM population -------------------------------------------------
    // PyTorch releases call a handful of cuBLAS kernels; TensorFlow
    // releases expose many specialized backend variants (Fig. 9).
    const bool tf = sig.framework == Framework::TensorFlow;
    const std::size_t gemm_variants =
        tf ? 12 + rng.uniformInt(8) : 2 + rng.uniformInt(3);
    for (std::size_t i = 0; i < gemm_variants; ++i) {
        if (sig.useTensorCores)
            add(tensorCoreGemmName(rng), KernelClass::Gemm);
        else
            add(sgemmName(rng, sig.framework), KernelClass::Gemm);
    }
    switch (sig.framework) {
      case Framework::PyTorch:
        add("splitKreduce_kernel", KernelClass::Gemm);
        break;
      case Framework::TensorFlow:
        add("tf_split_k_reduce", KernelClass::Gemm);
        break;
      case Framework::Mxnet:
        add("mxnet_split_k", KernelClass::Gemm);
        break;
    }

    // --- Attention-specific kernels --------------------------------------
    if (sig.useTensorCores) {
        add("ampere_fp16_sgemm_fp16_64x64_sliced1x2_nn",
            KernelClass::AttnGemm);
    } else {
        add(std::string(gemmPrefix(sig.framework)) + "32x32_sliced1x4_tn",
            KernelClass::AttnGemm);
    }
    switch (sig.framework) {
      case Framework::PyTorch:
        add("softmax_warp_forward", KernelClass::Softmax);
        break;
      case Framework::TensorFlow:
        add("softmax_fused_warp_kernel", KernelClass::Softmax);
        break;
      case Framework::Mxnet:
        add("mxnet_softmax_fused", KernelClass::Softmax);
        break;
    }

    // --- Normalization / element-wise -----------------------------------
    switch (sig.framework) {
      case Framework::PyTorch:
        add(sig.developer == Developer::Nvidia
                ? "cuApplyLayerNorm"
                : "LayerNormForwardCUDAKernel",
            KernelClass::LayerNorm);
        add("vectorized_elementwise_kernel", KernelClass::Elementwise);
        add("unrolled_elementwise_kernel", KernelClass::Elementwise);
        add("elementwise_kernel_with_index", KernelClass::Elementwise);
        break;
      case Framework::TensorFlow:
        add("AddV2_GPU_DT_FLOAT_DT_FLOAT_kernel", KernelClass::Elementwise);
        add("Mul_GPU_DT_FLOAT_DT_FLOAT_kernel", KernelClass::Elementwise);
        add("Sub_GPU_DT_FLOAT_DT_FLOAT_kernel", KernelClass::Elementwise);
        add("FusedBatchNormV3_GPU", KernelClass::LayerNorm);
        break;
      case Framework::Mxnet:
        add("mxnet_op_broadcast_kernel", KernelClass::Elementwise);
        add("mxnet_layer_norm_fused", KernelClass::LayerNorm);
        break;
    }

    // --- Memory / staging -------------------------------------------------
    switch (sig.framework) {
      case Framework::PyTorch:
        add("indexSelectLargeIndex", KernelClass::Memory);
        add("CatArrayBatchedCopy", KernelClass::Memory);
        break;
      case Framework::TensorFlow:
        add("convert_" + std::to_string(400 + rng.uniformInt(40)),
            KernelClass::Memory);
        add("tf_gather_v2_gpu", KernelClass::Memory);
        break;
      case Framework::Mxnet:
        add("mxnet_take_kernel", KernelClass::Memory);
        add("mxnet_concat_copy", KernelClass::Memory);
        break;
    }

    // --- Reductions: Meta-style releases run many short reduce ops -------
    const std::size_t reduce_variants =
        sig.developer == Developer::Meta ? 5 : 1;
    for (std::size_t i = 0; i < reduce_variants; ++i) {
        add("reduce_1Block_kernel_v" + std::to_string(i),
            KernelClass::Reduction);
    }
    if (sig.developer == Developer::Meta) {
        add("dot_kernel", KernelClass::Reduction);
        add("gemv2T_kernel_val", KernelClass::Reduction);
        add("DeviceScanKernel", KernelClass::Reduction);
    }

    // --- TensorFlow backend sprawl ---------------------------------------
    // The paper measures ~40x more unique kernels for TF releases; add a
    // large population of backend/fusion kernels.
    if (tf) {
        const std::size_t sprawl = 160 + rng.uniformInt(80);
        for (std::size_t i = 0; i < sprawl; ++i) {
            const double roll = rng.uniform();
            if (roll < 0.35) {
                add("fusion_" + std::to_string(i), KernelClass::Fusion);
            } else if (roll < 0.6) {
                add("convert_" + std::to_string(i), KernelClass::Memory);
            } else if (roll < 0.85) {
                add("tf_op_gpu_kernel_" + std::to_string(i),
                    KernelClass::Elementwise);
            } else {
                add("wrapped_reduce_" + std::to_string(i),
                    KernelClass::Reduction);
            }
        }
    } else if (sig.framework == Framework::Mxnet) {
        // MXNet sits between PyTorch and TF: dozens of per-operator
        // kernels (paper Table 2: 2652 executions of 59 kernels).
        const std::size_t sprawl = 25 + rng.uniformInt(15);
        for (std::size_t i = 0; i < sprawl; ++i) {
            add("mxnet_op_kernel_" + std::to_string(i),
                rng.bernoulli(0.7) ? KernelClass::Elementwise
                                   : KernelClass::Reduction);
        }
    }
    if (!tf && (sig.useXla || sig.fusionLevel > 0)) {
        for (std::size_t i = 0; i < 12; ++i)
            add("fusion_" + std::to_string(i), KernelClass::Fusion);
    }

    // --- Dialect salt ------------------------------------------------------
    // Library-version differences surface as a few extra private kernels.
    const std::size_t dialect_extras = 1 + rng.uniformInt(3);
    for (std::size_t i = 0; i < dialect_extras; ++i) {
        add("private_kernel_d" + std::to_string(sig.kernelDialect) + "_" +
                std::to_string(i),
            KernelClass::Elementwise);
    }

    names_ = std::make_shared<const std::vector<std::string>>(
        std::move(names));
    for (std::size_t i = 0; i < klasses_.size(); ++i) {
        byClass_[static_cast<std::size_t>(klasses_[i])].push_back(
            static_cast<int>(i));
    }
}

} // namespace decepticon::gpusim
