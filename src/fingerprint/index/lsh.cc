#include "fingerprint/index/lsh.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

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

/**
 * Squared L2 distance from @p query to each listed reference row.
 * Every distance sums its dimensions 0..23 in order, in double, as a
 * scalar loop would; four rows run side by side so their independent
 * chains overlap, which changes no bit of any one of them.
 */
void
rowDistances(const double *query, const float *matrix,
             const std::vector<std::uint32_t> &rows, double *out)
{
    std::size_t r = 0;
    for (; r + 4 <= rows.size(); r += 4) {
        const float *a = matrix + std::size_t{rows[r]} * kDim;
        const float *b = matrix + std::size_t{rows[r + 1]} * kDim;
        const float *c = matrix + std::size_t{rows[r + 2]} * kDim;
        const float *e = matrix + std::size_t{rows[r + 3]} * kDim;
        double sa = 0.0, sb = 0.0, sc = 0.0, se = 0.0;
        for (std::size_t d = 0; d < kDim; ++d) {
            const double da = query[d] - static_cast<double>(a[d]);
            const double db = query[d] - static_cast<double>(b[d]);
            const double dc = query[d] - static_cast<double>(c[d]);
            const double de = query[d] - static_cast<double>(e[d]);
            sa += da * da;
            sb += db * db;
            sc += dc * dc;
            se += de * de;
        }
        out[r] = sa;
        out[r + 1] = sb;
        out[r + 2] = sc;
        out[r + 3] = se;
    }
    for (; r < rows.size(); ++r) {
        const float *a = matrix + std::size_t{rows[r]} * kDim;
        double s = 0.0;
        for (std::size_t d = 0; d < kDim; ++d) {
            const double da = query[d] - static_cast<double>(a[d]);
            s += da * da;
        }
        out[r] = s;
    }
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

    // Store references grouped by class (stable within a class) so the
    // re-rank of class c reads the rows [offset[c], offset[c+1]) —
    // O(refs per class), never O(zoo).
    std::vector<std::size_t> order(ref_embeddings.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return ref_class[a] < ref_class[b];
                     });
    refRows_.clear();
    refClass_.clear();
    refRows_.reserve(order.size() * kDim);
    refClass_.reserve(order.size());
    for (std::size_t i : order) {
        assert(ref_embeddings[i].size() == kDim);
        refRows_.insert(refRows_.end(), ref_embeddings[i].begin(),
                        ref_embeddings[i].end());
        refClass_.push_back(ref_class[i]);
    }
    const std::size_t refs = refClass_.size();
    classOffset_.assign(numClasses_ + 1, 0);
    for (std::size_t c : refClass_)
        ++classOffset_[c + 1];
    for (std::size_t c = 0; c < numClasses_; ++c)
        classOffset_[c + 1] += classOffset_[c];
    bits_ = autoHashBits(refs);

    // Center of the reference cloud (see center_ in the header):
    // hashing emb - center_ turns the one-orthant embedding cone into
    // sign-balanced coordinates. Accumulated in reference order, so
    // the center is as deterministic as the references themselves.
    center_.assign(kDim, 0.0f);
    for (std::size_t i = 0; i < refs; ++i) {
        const float *row = refRows_.data() + i * kDim;
        for (std::size_t d = 0; d < kDim; ++d)
            center_[d] += row[d];
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
        centre(refRows_.data() + i * kDim, center_, centred);
        for (std::size_t t = 0; t < kTables; ++t)
            buckets_[t].emplace_back(hashOf(t, centred),
                                     static_cast<std::uint32_t>(i));
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
    assert(!refClass_.empty() && "build() must run first");
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
            const std::size_t c = refClass_[it->second];
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

    // The candidates' reference rows, in candidate order. References
    // are grouped by class, so each candidate costs O(refs per class)
    // — the re-rank stays independent of total zoo size.
    std::vector<std::uint32_t> rows;
    rows.reserve(candidates.size() * kIndexProfilesPerLineage);
    for (std::size_t c : candidates) {
        assert(c < numClasses_);
        for (std::size_t i = classOffset_[c]; i < classOffset_[c + 1]; ++i)
            rows.push_back(static_cast<std::uint32_t>(i));
    }
    std::vector<double> row_dist(rows.size());
    rowDistances(query, refRows_.data(), rows, row_dist.data());

    // Min reference distance per candidate class.
    std::vector<double> dist(candidates.size());
    std::size_t r = 0;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const std::size_t c = candidates[k];
        double best = -1.0;
        for (std::size_t i = classOffset_[c]; i < classOffset_[c + 1];
             ++i, ++r) {
            const double d = row_dist[r];
            if (best < 0.0 || d < best)
                best = d;
        }
        dist[k] = best < 0.0 ? 1e9 : best;
    }
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
