#include "gpusim/trace_generator.hh"

#include <cassert>
#include <cmath>

#include "obs/obs.hh"
#include "util/rng.hh"

namespace decepticon::gpusim {

namespace {

// Duration-model coefficients, calibrated so a BERT-base-shaped
// inference (hidden 768, seq 128) has ~150 us QKV GEMMs and a ~600 us
// peak FFN GEMM (the paper's Fig. 10 scale), with short kernels in
// the tens of microseconds — the "typical kernel duration" the
// paper's 20 us noise unit refers to.
constexpr double kGemmCoeff = 2.0e-6;        // us per (seq * hidden^2)
constexpr double kAttnCoeff = 2.0e-6;        // us per (seq^2 * hidden)
constexpr double kSoftmaxCoeff = 5.0e-5;     // us per (seq^2 * heads)
constexpr double kElementwiseCoeff = 1.0e-4; // us per (seq * hidden)
constexpr double kMemoryCoeff = 5.0e-5;      // us per (seq * hidden)
constexpr double kTensorCoreSpeedup = 0.45;
constexpr double kLaunchGapUs = 2.0;
// Fixed per-launch overhead baked into a kernel's duration.
constexpr double kGemmBaseUs = 3.0;
constexpr double kShortBaseUs = 2.0;
constexpr double kReduceBaseUs = 1.5;
// An XLA fusion burst runs kXlaBurstMin + [0, kXlaBurstSpread) kernels.
constexpr std::size_t kXlaBurstMin = 25;
constexpr std::size_t kXlaBurstSpread = 20;

} // anonymous namespace

TraceGenerator::TraceGenerator(const SoftwareSignature &sig)
    : sig_(sig), seed_(sig.seed()), catalog_(sig, seed_)
{
    util::Rng rng(seed_ ^ 0x7ace9e4e7a7e5eedULL);

    const auto gemms = catalog_.entriesOfClass(KernelClass::Gemm);
    const auto attns = catalog_.entriesOfClass(KernelClass::AttnGemm);
    const auto softmaxes = catalog_.entriesOfClass(KernelClass::Softmax);
    const auto norms = catalog_.entriesOfClass(KernelClass::LayerNorm);
    const auto elems = catalog_.entriesOfClass(KernelClass::Elementwise);
    const auto reduces = catalog_.entriesOfClass(KernelClass::Reduction);
    const auto mems = catalog_.entriesOfClass(KernelClass::Memory);
    const auto fusions = catalog_.entriesOfClass(KernelClass::Fusion);
    assert(!gemms.empty() && !attns.empty() && !softmaxes.empty());
    assert(!norms.empty() && !elems.empty() && !mems.empty());

    auto pick = [&](std::span<const int> pool) {
        return pool[rng.uniformInt(pool.size())];
    };

    auto add = [&](std::vector<Slot> &dst, int id, double factor) {
        Slot slot;
        slot.kernelId = id;
        slot.klass = catalog_.klass(id);
        slot.sizeFactor = factor;
        slot.personality = std::exp(rng.gaussian(0.0, 0.25));
        dst.push_back(slot);
    };

    const bool tf = sig.framework == Framework::TensorFlow;
    // About the largest templates: no template regrows.
    groupTemplate_.reserve(tf ? 128 : 48);
    prologueTemplate_.reserve(tf ? 18 : 3);
    epilogueTemplate_.reserve(2);

    // Developer/framework-dependent decoration applied around core ops.
    auto decorate = [&](std::vector<Slot> &dst) {
        if (tf) {
            // TF wraps ops with converts and small backend kernels.
            const std::size_t extras = 3 + rng.uniformInt(4);
            for (std::size_t i = 0; i < extras; ++i) {
                const double roll = rng.uniform();
                if (roll < 0.4 && !fusions.empty())
                    add(dst, pick(fusions), 0.2);
                else if (roll < 0.7)
                    add(dst, pick(mems), 0.3);
                else
                    add(dst, pick(elems), 0.3);
            }
        }
        if (sig.developer == Developer::Meta && !reduces.empty()) {
            const std::size_t extras = 1 + rng.uniformInt(3);
            for (std::size_t i = 0; i < extras; ++i)
                add(dst, pick(reduces), 1.0);
        }
        if (sig.framework == Framework::Mxnet) {
            // MXNet dispatches several small per-operator kernels
            // around each core op.
            const std::size_t extras = 4 + rng.uniformInt(3);
            for (std::size_t i = 0; i < extras; ++i) {
                add(dst,
                    rng.bernoulli(0.6) ? pick(elems) : pick(reduces),
                    0.3);
            }
        }
    };

    // --- Per-encoder kernel group -----------------------------------------
    // Q/K/V projections (possibly fused into one larger GEMM).
    const bool fused_qkv = sig.fusionLevel >= 1;
    if (fused_qkv) {
        add(groupTemplate_, pick(gemms), 3.0);
    } else {
        for (int i = 0; i < 3; ++i)
            add(groupTemplate_, pick(gemms), 1.0);
    }
    decorate(groupTemplate_);

    // Attention scores, softmax, context.
    add(groupTemplate_, pick(attns), 1.0);
    add(groupTemplate_, pick(softmaxes), 1.0);
    add(groupTemplate_, pick(attns), 1.0);
    decorate(groupTemplate_);

    // Output projection + residual + norm.
    add(groupTemplate_, pick(gemms), 1.0);
    if (sig.fusionLevel < 2)
        add(groupTemplate_, pick(elems), 1.0);
    add(groupTemplate_, pick(norms), 1.0);
    decorate(groupTemplate_);

    // Feed-forward block (4x hidden expansion).
    add(groupTemplate_, pick(gemms), 4.0);
    if (sig.fusionLevel < 2)
        add(groupTemplate_, pick(elems), 4.0); // activation
    add(groupTemplate_, pick(gemms), 4.0);
    if (sig.fusionLevel < 2)
        add(groupTemplate_, pick(elems), 1.0);
    add(groupTemplate_, pick(norms), 1.0);
    decorate(groupTemplate_);

    // TensorFlow sprawl: many more executions per group (Fig. 9 shows
    // up to ~8x more kernel executions than PyTorch).
    if (tf) {
        const std::size_t sprawl = 30 + rng.uniformInt(20);
        for (std::size_t i = 0; i < sprawl; ++i) {
            const double roll = rng.uniform();
            if (roll < 0.5 && !fusions.empty())
                add(groupTemplate_, pick(fusions), 0.15);
            else if (roll < 0.8)
                add(groupTemplate_, pick(elems), 0.2);
            else
                add(groupTemplate_, pick(mems), 0.2);
        }
    }

    // --- Prologue (embedding staging) ------------------------------------
    add(prologueTemplate_, pick(mems), 1.0);
    add(prologueTemplate_, pick(mems), 0.5);
    add(prologueTemplate_, pick(elems), 0.5);
    if (tf)
        decorate(prologueTemplate_);

    // --- Epilogue (task head) ---------------------------------------------
    add(epilogueTemplate_, pick(gemms), 0.05);
    add(epilogueTemplate_, pick(elems), 0.1);
}

double
TraceGenerator::slotDuration(const Slot &slot, const ArchParams &arch) const
{
    const double seq = static_cast<double>(arch.seqLen);
    const double hid = static_cast<double>(arch.hidden);
    const double head_ratio = arch.activeHeadRatio();

    double d = 1.0;
    switch (slot.klass) {
      case KernelClass::Gemm:
        d = kGemmBaseUs + kGemmCoeff * seq * hid * hid * slot.sizeFactor;
        if (sig_.useTensorCores)
            d *= kTensorCoreSpeedup;
        break;
      case KernelClass::AttnGemm:
        // Attention compute scales with the number of live heads; the
        // whole kernel (grid included) shrinks when heads are pruned.
        d = (kShortBaseUs +
             kAttnCoeff * seq * seq * hid * slot.sizeFactor) *
            head_ratio;
        break;
      case KernelClass::Softmax:
        d = (kShortBaseUs + kSoftmaxCoeff * seq * seq *
                                static_cast<double>(arch.numHeads)) *
            head_ratio;
        break;
      case KernelClass::LayerNorm:
        d = kShortBaseUs + kElementwiseCoeff * seq * hid * 0.6;
        break;
      case KernelClass::Elementwise:
        d = kShortBaseUs + kElementwiseCoeff * seq * hid * slot.sizeFactor;
        break;
      case KernelClass::Reduction:
        // Short per-head reduce kernels shrink under head pruning.
        d = (kReduceBaseUs + 0.01 * seq) * head_ratio;
        break;
      case KernelClass::Memory:
        d = kShortBaseUs + kMemoryCoeff * seq * hid * slot.sizeFactor;
        break;
      case KernelClass::Fusion:
        d = kShortBaseUs +
            kElementwiseCoeff * seq * hid * slot.sizeFactor * 0.8;
        break;
    }
    return std::max(d * slot.personality, 1.0);
}

KernelTrace
TraceGenerator::generate(const ArchParams &arch,
                         std::uint64_t run_seed) const
{
    return generateDefended(arch, run_seed, 0.0);
}

KernelTrace
TraceGenerator::generateDefended(const ArchParams &arch,
                                 std::uint64_t run_seed,
                                 double strength) const
{
    assert(strength >= 0.0 && strength <= 1.0);
    assert(arch.numLayers > 0 && arch.hidden > 0 && arch.numHeads > 0);
    assert(arch.prunedHeads < arch.numHeads);

    obs::StageTimer stage_timer("trace_capture");

    util::Rng rng(run_seed ^ seed_);
    KernelTrace trace;
    trace.kernelNames = catalog_.names();
    trace.records.reserve(
        prologueTemplate_.size() + arch.numLayers * groupTemplate_.size() +
        epilogueTemplate_.size() +
        (sig_.useXla ? kXlaBurstMin + kXlaBurstSpread : 0));

    double t = 0.0;
    // @p base is slotDuration(slot, arch), passed in so a template slot
    // launched once per layer computes it once per trace.
    auto emit = [&](const Slot &slot, double base, Phase phase, int layer) {
        Slot launched = slot;
        if (strength > 0.0 && rng.uniform() < strength) {
            // Defense: re-route this launch to a random same-class
            // implementation with run-specific timing behaviour, and
            // pay the cost of not picking the tuned kernel.
            const auto pool = catalog_.entriesOfClass(slot.klass);
            launched.kernelId =
                pool[rng.uniformInt(pool.size())];
            launched.personality =
                std::exp(rng.gaussian(0.0, 0.25)) *
                (1.0 + strength * std::fabs(rng.gaussian(0.0, 0.3)));
            base = slotDuration(launched, arch);
        }
        const double jitter = std::exp(rng.gaussian(0.0, 0.03));
        const double dur = base * jitter;
        KernelRecord rec;
        rec.kernelId = launched.kernelId;
        rec.tStart = t;
        rec.tEnd = t + dur;
        rec.phase = phase;
        rec.klass = launched.klass;
        rec.layerIndex = layer;
        trace.records.push_back(rec);
        t = rec.tEnd + kLaunchGapUs * std::exp(rng.gaussian(0.0, 0.1));
    };

    for (const auto &slot : prologueTemplate_)
        emit(slot, slotDuration(slot, arch), Phase::Prologue, -1);

    std::vector<double> group_base(groupTemplate_.size());
    for (std::size_t k = 0; k < groupTemplate_.size(); ++k)
        group_base[k] = slotDuration(groupTemplate_[k], arch);

    // XLA releases run an irregular compiler/fusion burst between two
    // encoder regions (Fig. 12): encoders at the beginning and end.
    std::size_t xla_after = arch.numLayers; // no burst by default
    if (sig_.useXla)
        xla_after = arch.numLayers * 2 / 5;

    const auto fusions = catalog_.entriesOfClass(KernelClass::Fusion);
    for (std::size_t layer = 0; layer < arch.numLayers; ++layer) {
        if (sig_.useXla && layer == xla_after && !fusions.empty()) {
            const std::size_t burst =
                kXlaBurstMin + rng.uniformInt(kXlaBurstSpread);
            for (std::size_t i = 0; i < burst; ++i) {
                Slot s;
                s.kernelId = fusions[rng.uniformInt(fusions.size())];
                s.klass = KernelClass::Fusion;
                // Irregular: heavy-tailed size factors.
                s.sizeFactor = std::exp(rng.gaussian(0.0, 1.2));
                emit(s, slotDuration(s, arch), Phase::XlaRegion, -1);
            }
        }
        for (std::size_t k = 0; k < groupTemplate_.size(); ++k) {
            emit(groupTemplate_[k], group_base[k], Phase::Encoder,
                 static_cast<int>(layer));
        }
    }

    for (const auto &slot : epilogueTemplate_)
        emit(slot, slotDuration(slot, arch), Phase::OutputLayer, -1);

    obs::count("gpusim.traces_generated");
    obs::count("gpusim.kernels_emitted", trace.records.size());
    if (strength > 0.0)
        obs::count("gpusim.defended_traces");
    return trace;
}

} // namespace decepticon::gpusim
