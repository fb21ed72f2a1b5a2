/**
 * @file
 * Compact fingerprint embeddings — the cheap first-stage key of the
 * sublinear zoo index. Instead of rasterizing a trace into a CNN
 * image, the embedding summarizes it with InferNet-style aggregate
 * profiler features (kernel-class mix, duration shares, depth and
 * scale statistics): PAPERS.md's InferNet shows such aggregates
 * suffice for architecture-level inference, and DeepSniffer-style
 * fingerprints cluster by family, so nearby embeddings are exactly
 * the candidates worth exact re-ranking.
 */

#ifndef DECEPTICON_FINGERPRINT_INDEX_EMBEDDING_HH
#define DECEPTICON_FINGERPRINT_INDEX_EMBEDDING_HH

#include <cstddef>
#include <vector>

#include "gpusim/kernel.hh"

namespace decepticon::fingerprint {

/** Dimensionality of traceEmbedding output. */
inline constexpr std::size_t kTraceEmbeddingDim = 24;

/**
 * Embed one kernel trace into a fixed L2-normalized feature vector.
 * Pure function of the trace (no RNG, no global state), so two
 * captures of the same release differ only through run jitter — which
 * the aggregate features average out. Layout:
 *
 *   [0..7]   per-KernelClass record-count fractions
 *   [8..15]  per-KernelClass duration fractions
 *   [16..23] scale/shape statistics (record count, total/peak/mean
 *            duration, distinct kernels, encoder depth, encoder and
 *            non-encoder record shares), log-compressed
 */
std::vector<float> traceEmbedding(const gpusim::KernelTrace &trace);

} // namespace decepticon::fingerprint

#endif // DECEPTICON_FINGERPRINT_INDEX_EMBEDDING_HH
