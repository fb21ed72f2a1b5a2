#include "fingerprint/index/lsh.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "fingerprint/index/embedding.hh"
#include "util/rng.hh"

namespace decepticon::fingerprint {

namespace {

/** Independent hash tables; each adds one recall chance. */
constexpr std::size_t kTables = 8;
/**
 * Sharpness of the shortlist softmax that converts re-rank distances
 * into the probability vector consumed by the shared level-1 decision
 * tail.
 */
constexpr double kSoftmaxSharpness = 48.0;
/** Root seed of the per-table projection streams. */
constexpr std::uint64_t kProjectionSeed = 0x1d5eedULL;

constexpr std::size_t kDim = kTraceEmbeddingDim;

std::size_t
autoHashBits(std::size_t refs)
{
    std::size_t bits = 4;
    std::size_t capacity = std::size_t{1} << bits;
    while (capacity < refs && bits < 16) {
        ++bits;
        capacity <<= 1;
    }
    return bits;
}

/** emb - center in double: the coordinates every table hashes. */
void
centre(const float *emb, const std::vector<float> &center, double *out)
{
    for (std::size_t d = 0; d < kDim; ++d)
        out[d] = static_cast<double>(emb[d]) -
                 static_cast<double>(center[d]);
}

/** Floats in one pair block of FingerprintIndex::refBlocks_. */
constexpr std::size_t kBlockFloats = 2 * kDim;
/** Blocks scored per pass: independent add chains that overlap. */
constexpr std::size_t kBlocksPerPass = 4;

/**
 * Squared L2 distance from @p query to both references of each of
 * kBlocksPerPass pair blocks: out[2j + lane] for block j. Every
 * distance sums its dimensions 0..23 in order, in double, a multiply
 * then an add per dimension, exactly as a scalar loop would; a
 * register holds the two lanes of one block, so no dimension of one
 * reference is ever added to another's.
 */
void
blockDistances(const double *query, const float *const *blocks,
               double *out)
{
#if defined(__SSE2__)
    __m128d s0 = _mm_setzero_pd();
    __m128d s1 = _mm_setzero_pd();
    __m128d s2 = _mm_setzero_pd();
    __m128d s3 = _mm_setzero_pd();
    for (std::size_t d = 0; d < kDim; ++d) {
        const __m128d q = _mm_set1_pd(query[d]);
        // Dimension d of both lanes of block j, widened to double.
        // ref - q is -(q - ref) exactly, so its square is the same.
        auto lanes = [&](std::size_t j) {
            return _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(blocks[j] + 2 * d))));
        };
        const __m128d d0 = _mm_sub_pd(lanes(0), q);
        const __m128d d1 = _mm_sub_pd(lanes(1), q);
        const __m128d d2 = _mm_sub_pd(lanes(2), q);
        const __m128d d3 = _mm_sub_pd(lanes(3), q);
        s0 = _mm_add_pd(s0, _mm_mul_pd(d0, d0));
        s1 = _mm_add_pd(s1, _mm_mul_pd(d1, d1));
        s2 = _mm_add_pd(s2, _mm_mul_pd(d2, d2));
        s3 = _mm_add_pd(s3, _mm_mul_pd(d3, d3));
    }
    _mm_storeu_pd(out, s0);
    _mm_storeu_pd(out + 2, s1);
    _mm_storeu_pd(out + 4, s2);
    _mm_storeu_pd(out + 6, s3);
#else
    for (std::size_t j = 0; j < 2 * kBlocksPerPass; ++j) {
        const float *block = blocks[j / 2];
        double s = 0.0;
        for (std::size_t d = 0; d < kDim; ++d) {
            const double diff =
                query[d] - static_cast<double>(block[2 * d + j % 2]);
            s += diff * diff;
        }
        out[j] = s;
    }
#endif
}

} // anonymous namespace

std::size_t
FingerprintIndex::tableCount() const
{
    return kTables;
}

void
FingerprintIndex::build(std::vector<std::vector<float>> ref_embeddings,
                        std::vector<std::size_t> ref_class,
                        std::size_t num_classes)
{
    assert(!ref_embeddings.empty());
    assert(ref_embeddings.size() == ref_class.size());
    numClasses_ = num_classes;
    const std::size_t refs = ref_class.size();

    // Each class's references fill its own run of pair blocks in input
    // order, so the re-rank of class c reads the blocks
    // [classBlock_[c], classBlock_[c+1]) — O(refs per class), never
    // O(zoo).
    std::vector<std::size_t> class_refs(numClasses_, 0);
    for (std::size_t c : ref_class) {
        assert(c < numClasses_);
        ++class_refs[c];
    }
    classBlock_.assign(numClasses_ + 1, 0);
    for (std::size_t c = 0; c < numClasses_; ++c)
        classBlock_[c + 1] = classBlock_[c] + (class_refs[c] + 1) / 2;
    refBlocks_.assign(classBlock_[numClasses_] * kBlockFloats, 0.0f);
    std::vector<std::size_t> filled(numClasses_, 0);
    for (std::size_t i = 0; i < refs; ++i) {
        assert(ref_embeddings[i].size() == kDim);
        const std::size_t c = ref_class[i];
        const std::size_t slot = filled[c]++;
        float *block =
            refBlocks_.data() + (classBlock_[c] + slot / 2) * kBlockFloats;
        // The last reference of an odd count fills both lanes; scoring
        // it twice leaves its class's minimum as it was.
        const bool both = slot % 2 == 0 && slot + 1 == class_refs[c];
        for (std::size_t d = 0; d < kDim; ++d) {
            block[2 * d + slot % 2] = ref_embeddings[i][d];
            if (both)
                block[2 * d + 1] = ref_embeddings[i][d];
        }
    }
    bits_ = autoHashBits(refs);

    // Center of the reference cloud (see center_ in the header):
    // hashing emb - center_ turns the one-orthant embedding cone into
    // sign-balanced coordinates. Accumulated class by class, each in
    // input order, so the center is as deterministic as the
    // references themselves.
    center_.assign(kDim, 0.0f);
    for (std::size_t c = 0; c < numClasses_; ++c) {
        for (std::size_t slot = 0; slot < class_refs[c]; ++slot) {
            const float *block =
                refBlocks_.data() + (classBlock_[c] + slot / 2) * kBlockFloats;
            for (std::size_t d = 0; d < kDim; ++d)
                center_[d] += block[2 * d + slot % 2];
        }
    }
    const float inv = 1.0f / static_cast<float>(refs);
    for (auto &v : center_)
        v *= inv;

    // One projection matrix per table, derived via split(table) so the
    // hash family is a pure function of (seed, table) — independent of
    // build order, thread count, or any other draw in the process.
    const util::Rng root(kProjectionSeed);
    projections_.assign(kTables, {});
    for (std::size_t t = 0; t < kTables; ++t) {
        util::Rng rng = root.split(t);
        auto &proj = projections_[t];
        proj.resize(bits_ * kDim);
        for (auto &v : proj)
            v = static_cast<float>(rng.gaussian());
    }

    buckets_.assign(kTables, {});
    for (auto &table : buckets_)
        table.reserve(refs);
    double centred[kDim];
    for (std::size_t i = 0; i < refs; ++i) {
        centre(ref_embeddings[i].data(), center_, centred);
        for (std::size_t t = 0; t < kTables; ++t)
            buckets_[t].emplace_back(hashOf(t, centred),
                                     static_cast<std::uint32_t>(
                                         ref_class[i]));
    }
    for (auto &table : buckets_)
        std::sort(table.begin(), table.end());
}

std::uint64_t
FingerprintIndex::hashOf(std::size_t table, const double *centred) const
{
    const float *proj = projections_[table].data();
    std::uint64_t h = 0;
    for (std::size_t b = 0; b < bits_; ++b) {
        const float *row = proj + b * kDim;
        double dot = 0.0;
        for (std::size_t d = 0; d < kDim; ++d)
            dot += static_cast<double>(row[d]) * centred[d];
        h = (h << 1) | (dot >= 0.0 ? 1u : 0u);
    }
    return h;
}

std::vector<std::size_t>
FingerprintIndex::shortlist(const std::vector<float> &embedding,
                            IndexLookupStats *stats) const
{
    assert(!buckets_.empty() && "build() must run first");
    assert(embedding.size() == kDim);
    double centred[kDim];
    centre(embedding.data(), center_, centred);

    // Bucket union deduped in a per-call class bitmap; reading the
    // words out in order yields the classes ascending.
    std::vector<std::uint64_t> seen((numClasses_ + 63) / 64, 0);
    std::size_t probes = 0;
    std::size_t distinct = 0;
    for (std::size_t t = 0; t < kTables; ++t) {
        const std::uint64_t h = hashOf(t, centred);
        const auto &table = buckets_[t];
        const auto lo = std::lower_bound(
            table.begin(), table.end(),
            std::make_pair(h, std::uint32_t{0}));
        for (auto it = lo; it != table.end() && it->first == h; ++it) {
            const std::size_t c = it->second;
            const std::uint64_t bit = std::uint64_t{1} << (c % 64);
            distinct += (seen[c / 64] & bit) == 0 ? 1 : 0;
            seen[c / 64] |= bit;
            ++probes;
        }
    }
    std::vector<std::size_t> classes;
    classes.reserve(distinct);
    for (std::size_t w = 0; w < seen.size(); ++w) {
        for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1)
            classes.push_back(w * 64 +
                              static_cast<std::size_t>(
                                  std::countr_zero(bits)));
    }

    bool fallback = false;
    if (classes.empty()) {
        // A query whose bucket is empty in every table (an embedding
        // far from every reference) degrades to the exhaustive scan
        // rather than returning an empty verdict.
        classes = allClasses();
        fallback = true;
    }
    if (stats != nullptr) {
        stats->shortlistClasses = classes.size();
        stats->bucketProbes = probes;
        stats->exhaustiveFallback = fallback;
    }
    return classes;
}

std::vector<std::size_t>
FingerprintIndex::allClasses() const
{
    std::vector<std::size_t> out(numClasses_);
    for (std::size_t c = 0; c < numClasses_; ++c)
        out[c] = c;
    return out;
}

std::vector<double>
FingerprintIndex::scores(const std::vector<float> &embedding,
                         const std::vector<std::size_t> &candidates) const
{
    assert(!candidates.empty());
    assert(embedding.size() == kDim);
    double query[kDim];
    for (std::size_t d = 0; d < kDim; ++d)
        query[d] = static_cast<double>(embedding[d]);

    // Min reference distance per candidate class (1e9 for a class
    // without references). A candidate's blocks join a pass of
    // kBlocksPerPass in order, and their lanes fold into the minimum
    // in reference order: the first reference sets it, and each later
    // one replaces it only when strictly smaller. A short last pass
    // repeats its first block in the unused slots.
    std::vector<double> dist(candidates.size(), 1e9);
    const float *pass[kBlocksPerPass];
    std::size_t owner[kBlocksPerPass];
    bool first[kBlocksPerPass];
    std::size_t queued = 0;
    auto score_pass = [&] {
        for (std::size_t j = queued; j < kBlocksPerPass; ++j)
            pass[j] = pass[0];
        double lane_dist[2 * kBlocksPerPass];
        blockDistances(query, pass, lane_dist);
        for (std::size_t j = 0; j < queued; ++j) {
            double &best = dist[owner[j]];
            const double a = lane_dist[2 * j];
            const double b = lane_dist[2 * j + 1];
            best = first[j] || a < best ? a : best;
            best = b < best ? b : best;
        }
        queued = 0;
    };
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const std::size_t c = candidates[k];
        assert(c < numClasses_);
        for (std::size_t b = classBlock_[c]; b < classBlock_[c + 1]; ++b) {
            pass[queued] = refBlocks_.data() + b * kBlockFloats;
            owner[queued] = k;
            first[queued] = b == classBlock_[c];
            if (++queued == kBlocksPerPass)
                score_pass();
        }
    }
    if (queued > 0)
        score_pass();
    // Shortlist softmax in candidate (ascending class) order — a
    // fixed summation order keeps the probabilities bit-reproducible.
    // dist[k] becomes its exponential in place.
    double min_d = dist[0];
    for (double d : dist)
        min_d = std::min(min_d, d);
    double z = 0.0;
    for (double &d : dist) {
        d = std::exp(-kSoftmaxSharpness * (d - min_d));
        z += d;
    }
    std::vector<double> probs(numClasses_, 0.0);
    for (std::size_t k = 0; k < candidates.size(); ++k)
        probs[candidates[k]] = dist[k] / z;
    return probs;
}

std::size_t
FingerprintIndex::classify(const std::vector<float> &embedding,
                           IndexLookupStats *stats) const
{
    const std::vector<std::size_t> candidates =
        shortlist(embedding, stats);
    const std::vector<double> probs = scores(embedding, candidates);
    std::size_t best = candidates.front();
    for (std::size_t c : candidates) {
        if (probs[c] > probs[best])
            best = c;
    }
    return best;
}

} // namespace decepticon::fingerprint
