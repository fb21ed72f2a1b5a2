#include "fingerprint/index/embedding.hh"

#include <cassert>
#include <cmath>

namespace decepticon::fingerprint {

namespace {

constexpr std::size_t kNumKernelClasses = 8;

/** log1p compressed to a comparable O(1) range. */
float
squash(double v, double scale)
{
    return static_cast<float>(std::log1p(v) / scale);
}

} // anonymous namespace

std::vector<float>
traceEmbedding(const gpusim::KernelTrace &trace)
{
    std::vector<float> e(kTraceEmbeddingDim, 0.0f);
    const std::size_t n = trace.records.size();
    if (n == 0)
        return e;

    double class_count[kNumKernelClasses] = {};
    double class_duration[kNumKernelClasses] = {};
    double total_duration = 0.0;
    double peak = 0.0;
    std::size_t encoder_records = 0;
    int max_layer = -1;
    for (const auto &r : trace.records) {
        const auto k = static_cast<std::size_t>(r.klass);
        assert(k < kNumKernelClasses);
        const double d = r.duration();
        class_count[k] += 1.0;
        class_duration[k] += d;
        total_duration += d;
        peak = std::max(peak, d);
        if (r.phase == gpusim::Phase::Encoder)
            ++encoder_records;
        max_layer = std::max(max_layer, r.layerIndex);
    }

    const double inv_n = 1.0 / static_cast<double>(n);
    const double inv_d =
        total_duration > 0.0 ? 1.0 / total_duration : 0.0;
    for (std::size_t k = 0; k < kNumKernelClasses; ++k) {
        e[k] = static_cast<float>(class_count[k] * inv_n);
        e[8 + k] = static_cast<float>(class_duration[k] * inv_d);
    }
    e[16] = squash(static_cast<double>(n), 8.0);
    e[17] = squash(total_duration, 12.0);
    e[18] = squash(peak, 10.0);
    e[19] = squash(total_duration * inv_n, 8.0);
    e[20] = squash(static_cast<double>(trace.uniqueKernelCount()), 6.0);
    e[21] = squash(static_cast<double>(max_layer + 1), 6.0);
    e[22] = static_cast<float>(static_cast<double>(encoder_records) *
                               inv_n);
    e[23] = static_cast<float>(
        static_cast<double>(n - encoder_records) * inv_n);

    // L2 normalization: signed-random-projection hashing keys on the
    // embedding's direction, so scale differences between short and
    // long traces must not dominate the angle.
    double norm_sq = 0.0;
    for (float v : e)
        norm_sq += static_cast<double>(v) * v;
    if (norm_sq > 0.0) {
        const auto inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
        for (auto &v : e)
            v *= inv;
    }
    return e;
}

} // namespace decepticon::fingerprint
