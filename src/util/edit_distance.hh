/**
 * @file
 * Levenshtein edit distance over integer token sequences. Used by the
 * DeepSniffer-style baseline to compute the Layer prediction Error Rate
 * (LER): edit distance between predicted and ground-truth layer
 * sequences, normalized by ground-truth length (paper Table 2).
 */

#ifndef DECEPTICON_UTIL_EDIT_DISTANCE_HH
#define DECEPTICON_UTIL_EDIT_DISTANCE_HH

#include <cstddef>
#include <vector>

namespace decepticon::util {

/** Levenshtein distance between two integer token sequences. */
std::size_t editDistance(const std::vector<int> &a,
                         const std::vector<int> &b);

/**
 * Layer prediction Error Rate as defined by DeepSniffer:
 * editDistance(predicted, truth) / |truth|. Values above 1 mean the
 * prediction is not usable. @pre truth is non-empty
 */
double layerErrorRate(const std::vector<int> &predicted,
                      const std::vector<int> &truth);

} // namespace decepticon::util

#endif // DECEPTICON_UTIL_EDIT_DISTANCE_HH
