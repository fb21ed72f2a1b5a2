#include "fingerprint/seq_predictor.hh"

#include <array>
#include <cassert>
#include <map>

#include "util/edit_distance.hh"
#include "util/rng.hh"

namespace decepticon::fingerprint {

LayerOp
groundTruthOp(const gpusim::KernelRecord &rec)
{
    switch (rec.klass) {
      case gpusim::KernelClass::Gemm:
        return LayerOp::Gemm;
      case gpusim::KernelClass::AttnGemm:
        return LayerOp::Attention;
      case gpusim::KernelClass::Softmax:
        return LayerOp::Softmax;
      case gpusim::KernelClass::LayerNorm:
        return LayerOp::Norm;
      default:
        return LayerOp::NoOp;
    }
}

std::vector<int>
groundTruthOpSequence(const gpusim::KernelTrace &trace)
{
    std::vector<int> out;
    for (const auto &rec : trace.records) {
        const LayerOp op = groundTruthOp(rec);
        if (op != LayerOp::NoOp)
            out.push_back(static_cast<int>(op));
    }
    return out;
}

void
KernelSequencePredictor::train(
    const std::vector<gpusim::KernelTrace> &traces)
{
    // Majority-vote operator per kernel name across the profile runs.
    // Ordered map on purpose: the tally below iterates it, and
    // iterating an unordered_map here would make the vote-resolution
    // order (and with it any future tie-break or logging added to
    // this loop) depend on the hash layout instead of the input.
    std::map<std::string, std::array<std::size_t, 5>> votes;
    for (const auto &trace : traces) {
        for (const auto &rec : trace.records) {
            const auto op = static_cast<std::size_t>(groundTruthOp(rec));
            ++votes[std::string((*trace.kernelNames)[rec.kernelId])][op];
        }
    }
    opOfKernel_.clear();
    for (const auto &[name, v] : votes) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < v.size(); ++i) {
            if (v[i] > v[best])
                best = i;
        }
        opOfKernel_[name] = static_cast<LayerOp>(best);
    }
}

std::vector<int>
KernelSequencePredictor::predict(const gpusim::KernelTrace &trace) const
{
    std::vector<int> out;
    for (const auto &rec : trace.records) {
        const std::string_view name = (*trace.kernelNames)[rec.kernelId];
        const auto it = opOfKernel_.find(std::string(name));
        LayerOp op;
        if (it != opOfKernel_.end()) {
            op = it->second;
        } else {
            // Out-of-vocabulary kernel: the decoder emits essentially
            // arbitrary operators (deterministic per name so the
            // experiment is reproducible). The name table ends each
            // name with a NUL, so its data() is a C string.
            op = static_cast<LayerOp>(
                util::hashString(name.data()) % 5);
        }
        if (op != LayerOp::NoOp)
            out.push_back(static_cast<int>(op));
    }
    return out;
}

double
KernelSequencePredictor::layerErrorRate(
    const gpusim::KernelTrace &trace) const
{
    const std::vector<int> truth = groundTruthOpSequence(trace);
    assert(!truth.empty());
    return util::layerErrorRate(predict(trace), truth);
}

} // namespace decepticon::fingerprint
