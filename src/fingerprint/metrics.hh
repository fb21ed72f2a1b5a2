/**
 * @file
 * Evaluation metrics for the pre-trained model extractor: confusion
 * matrix, per-class precision/recall, and top-k accuracy. Top-k
 * matters operationally: the Decepticon pipeline forwards the CNN's
 * top candidates to the query-output variant detector, so a victim is
 * recoverable whenever the true lineage appears in the top-k.
 */

#ifndef DECEPTICON_FINGERPRINT_METRICS_HH
#define DECEPTICON_FINGERPRINT_METRICS_HH

#include <string>
#include <vector>

#include "fingerprint/cnn.hh"
#include "fingerprint/dataset.hh"

namespace decepticon::fingerprint {

/** Row-major confusion matrix: counts[truth][prediction]. */
struct ConfusionMatrix
{
    std::vector<std::vector<std::size_t>> counts;
    std::vector<std::string> classNames;

    std::size_t numClasses() const { return counts.size(); }

    /** Precision of one class (0 when never predicted). */
    double precision(std::size_t c) const;

    /** Recall of one class (0 when never seen). */
    double recall(std::size_t c) const;
};

/** Evaluate a CNN over a dataset into a confusion matrix. */
ConfusionMatrix confusionMatrix(FingerprintCnn &cnn,
                                const FingerprintDataset &data);

/**
 * Top-k accuracy: fraction of samples whose true class appears among
 * the CNN's k highest-probability candidates.
 */
double topKAccuracy(FingerprintCnn &cnn, const FingerprintDataset &data,
                    std::size_t k);

} // namespace decepticon::fingerprint

#endif // DECEPTICON_FINGERPRINT_METRICS_HH
