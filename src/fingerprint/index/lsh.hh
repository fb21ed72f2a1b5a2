/**
 * @file
 * Sublinear fingerprint lookup: a multi-table signed-random-projection
 * LSH over compact trace embeddings, with exact re-ranking on the
 * bucket-union shortlist. Replaces the exhaustive score-every-lineage
 * scan of level-1 once the zoo outgrows the CNN classifier
 * (DESIGN.md §15).
 *
 * Determinism contract: every projection is derived via
 * util::Rng::split(table), bucket tables are sorted vectors probed by
 * binary search, and the shortlist is returned as a sorted, deduped
 * class-id list — a pure function of (reference embeddings, query).
 * All lookup methods are const and touch no shared mutable state
 * (their scratch is local to the call), so campaign batches score
 * shortlists from parallel sched workers.
 *
 * Reference layout: each class's references, in build order, padded
 * to an even count with a copy of its last one, stored two per block
 * with the rows' dimensions interleaved, so the re-rank of class c
 * reads one contiguous run of blocks and scores two references per
 * SSE2 register. Each reference's distance is still summed in double
 * over dimensions 0..23 in order, as an explicit multiply then add
 * (this library builds without FMA contraction); only independent
 * references share a register, never the dimensions of one, so every
 * distance is bit-identical to a plain scalar loop (DESIGN.md §15).
 */

#ifndef DECEPTICON_FINGERPRINT_INDEX_LSH_HH
#define DECEPTICON_FINGERPRINT_INDEX_LSH_HH

#include <cstdint>
#include <vector>

namespace decepticon::fingerprint {

/** Reference profiling runs embedded per lineage. */
inline constexpr std::size_t kIndexProfilesPerLineage = 2;

/** Per-lookup accounting surfaced through src/obs by the caller. */
struct IndexLookupStats
{
    /** Distinct candidate classes in the shortlist. */
    std::size_t shortlistClasses = 0;
    /** Reference entries gathered across all table probes. */
    std::size_t bucketProbes = 0;
    /** Every table bucket was empty: exhaustive scan taken instead. */
    bool exhaustiveFallback = false;
};

/**
 * The index itself: reference embeddings labeled by class (lineage),
 * hashed into tableCount() sorted bucket tables, each keyed by
 * hashBits() sign bits: ~log2(reference count), clamped to [4, 16],
 * so expected bucket load stays O(1) as the zoo grows.
 */
class FingerprintIndex
{
  public:
    /**
     * Build from reference embeddings of kTraceEmbeddingDim floats
     * each. ref_class[i] labels ref_embeddings[i]; classes must cover
     * [0, num_classes).
     */
    void build(std::vector<std::vector<float>> ref_embeddings,
               std::vector<std::size_t> ref_class,
               std::size_t num_classes);

    std::size_t numClasses() const { return numClasses_; }
    std::size_t tableCount() const;
    std::size_t hashBits() const { return bits_; }

    /**
     * Candidate classes for a query embedding: the union of the
     * query's bucket across every table, deduped and sorted ascending.
     * Falls back to every class (stats->exhaustiveFallback) when all
     * probed buckets are empty, so a lookup never returns nothing.
     */
    std::vector<std::size_t>
    shortlist(const std::vector<float> &embedding,
              IndexLookupStats *stats = nullptr) const;

    /** Every class id — the exhaustive-scan candidate list. */
    std::vector<std::size_t> allClasses() const;

    /**
     * Exact re-rank: full-size probability vector over all classes,
     * softmax of -sharpness * (min reference distance) over the
     * candidates, exact zero elsewhere. Feeding this to the shared
     * decision tail keeps the tail bit-identical between the indexed
     * and exhaustive paths — only the candidate set differs.
     */
    std::vector<double>
    scores(const std::vector<float> &embedding,
           const std::vector<std::size_t> &candidates) const;

    /** Argmax class over the shortlist (ties to the lowest id). */
    std::size_t classify(const std::vector<float> &embedding,
                         IndexLookupStats *stats = nullptr) const;

  private:
    /** Hash of an already centred embedding (emb - center_). */
    std::uint64_t hashOf(std::size_t table, const double *centred) const;

    std::size_t numClasses_ = 0;
    std::size_t bits_ = 0;
    /**
     * Reference embeddings in pair blocks of 2 * kTraceEmbeddingDim
     * floats: dimension d of a block's two references sits at
     * [2d, 2d + 1]. A class with an odd reference count repeats its
     * last reference in its last block's second lane.
     */
    std::vector<float> refBlocks_;
    /** Blocks of class c are [classBlock_[c], classBlock_[c+1]). */
    std::vector<std::size_t> classBlock_;
    /**
     * Mean reference embedding, subtracted before hashing. Trace
     * embeddings are all-nonnegative (count/duration fractions), so
     * uncentered they crowd one orthant and every signed projection
     * bit degenerates to a constant — centering is what makes the
     * hash family discriminative.
     */
    std::vector<float> center_;
    /** Per table: bits_ stacked projection rows of kTraceEmbeddingDim. */
    std::vector<std::vector<float>> projections_;
    /** Per table: (hash, class of one reference), sorted for binary
     *  search. Sorted vectors instead of a hash map keep iteration
     *  order a non-question (lint R3) and probes cache-friendly. */
    std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>>
        buckets_;
};

} // namespace decepticon::fingerprint

#endif // DECEPTICON_FINGERPRINT_INDEX_LSH_HH
