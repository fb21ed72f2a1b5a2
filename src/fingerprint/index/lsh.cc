#include "fingerprint/index/lsh.hh"

#include <algorithm>
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
    dim_ = ref_embeddings.front().size();

    // Store references grouped by class (stable within a class) so the
    // re-rank loop touches exactly [offset[c], offset[c+1]) — O(refs
    // per class), never O(zoo).
    std::vector<std::size_t> order(ref_embeddings.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return ref_class[a] < ref_class[b];
                     });
    refs_.clear();
    refClass_.clear();
    refs_.reserve(order.size());
    refClass_.reserve(order.size());
    for (std::size_t i : order) {
        refs_.push_back(std::move(ref_embeddings[i]));
        refClass_.push_back(ref_class[i]);
    }
    classOffset_.assign(numClasses_ + 1, 0);
    for (std::size_t c : refClass_)
        ++classOffset_[c + 1];
    for (std::size_t c = 0; c < numClasses_; ++c)
        classOffset_[c + 1] += classOffset_[c];
    bits_ = autoHashBits(refs_.size());

    // Center of the reference cloud (see center_ in the header):
    // hashing emb - center_ turns the one-orthant embedding cone into
    // sign-balanced coordinates. Accumulated in reference order, so
    // the center is as deterministic as the references themselves.
    center_.assign(dim_, 0.0f);
    for (const auto &r : refs_) {
        for (std::size_t d = 0; d < dim_; ++d)
            center_[d] += r[d];
    }
    const float inv = 1.0f / static_cast<float>(refs_.size());
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
        proj.resize(bits_ * dim_);
        for (auto &v : proj)
            v = static_cast<float>(rng.gaussian());
    }

    buckets_.assign(kTables, {});
    for (std::size_t t = 0; t < kTables; ++t) {
        auto &table = buckets_[t];
        table.reserve(refs_.size());
        for (std::size_t i = 0; i < refs_.size(); ++i) {
            assert(refs_[i].size() == dim_);
            table.emplace_back(hashOf(t, refs_[i]),
                               static_cast<std::uint32_t>(i));
        }
        std::sort(table.begin(), table.end());
    }
}

std::uint64_t
FingerprintIndex::hashOf(std::size_t table,
                         const std::vector<float> &embedding) const
{
    assert(embedding.size() == dim_);
    const float *proj = projections_[table].data();
    std::uint64_t h = 0;
    for (std::size_t b = 0; b < bits_; ++b) {
        double dot = 0.0;
        const float *row = proj + b * dim_;
        for (std::size_t d = 0; d < dim_; ++d)
            dot += static_cast<double>(row[d]) *
                   (static_cast<double>(embedding[d]) -
                    static_cast<double>(center_[d]));
        h = (h << 1) | (dot >= 0.0 ? 1u : 0u);
    }
    return h;
}

std::vector<std::size_t>
FingerprintIndex::shortlist(const std::vector<float> &embedding,
                            IndexLookupStats *stats) const
{
    assert(!refs_.empty() && "build() must run first");
    std::vector<std::size_t> classes;
    std::size_t probes = 0;
    for (std::size_t t = 0; t < kTables; ++t) {
        const std::uint64_t h = hashOf(t, embedding);
        const auto &table = buckets_[t];
        const auto lo = std::lower_bound(
            table.begin(), table.end(),
            std::make_pair(h, std::uint32_t{0}));
        for (auto it = lo; it != table.end() && it->first == h; ++it) {
            classes.push_back(refClass_[it->second]);
            ++probes;
        }
    }
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()),
                  classes.end());

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
    // Min reference distance per candidate class. References are
    // grouped by class, so each candidate costs O(refs per class) —
    // the re-rank stays independent of total zoo size.
    std::vector<double> dist(candidates.size());
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const std::size_t c = candidates[k];
        assert(c < numClasses_);
        double best = -1.0;
        for (std::size_t i = classOffset_[c]; i < classOffset_[c + 1];
             ++i) {
            const double d = embeddingDistance(embedding, refs_[i]);
            if (best < 0.0 || d < best)
                best = d;
        }
        dist[k] = best < 0.0 ? 1e9 : best;
    }
    // Shortlist softmax in candidate (ascending class) order — a
    // fixed summation order keeps the probabilities bit-reproducible.
    double min_d = dist[0];
    for (double d : dist)
        min_d = std::min(min_d, d);
    double z = 0.0;
    std::vector<double> expd(candidates.size());
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        expd[k] = std::exp(-kSoftmaxSharpness * (dist[k] - min_d));
        z += expd[k];
    }
    std::vector<double> probs(numClasses_, 0.0);
    for (std::size_t k = 0; k < candidates.size(); ++k)
        probs[candidates[k]] = expd[k] / z;
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
