/**
 * @file
 * Nearest-neighbor fingerprint classifier — the natural baseline for
 * the CNN extractor. The paper chooses a CNN for its inherent noise
 * tolerance (Sec. 5.4.2, citing error-tolerant CNN inference); this
 * baseline makes that design decision measurable: template matching
 * works on clean traces but degrades faster under timing noise.
 */

#ifndef DECEPTICON_FINGERPRINT_KNN_HH
#define DECEPTICON_FINGERPRINT_KNN_HH

#include "fingerprint/dataset.hh"

namespace decepticon::fingerprint {

/**
 * k-nearest-neighbor classifier over blurred fingerprint images with
 * L1 pixel distance and majority voting.
 */
class NearestNeighborClassifier
{
  public:
    explicit NearestNeighborClassifier(std::size_t k = 1) : k_(k) {}

    /** Store (blurred) training templates. */
    void train(const FingerprintDataset &data);

    /** Majority label of the k nearest templates. */
    int predict(const tensor::Tensor &image) const;

    /** Classification accuracy over a dataset. */
    double evaluate(const FingerprintDataset &data) const;

  private:
    std::size_t k_;
    std::size_t numClasses_ = 0;
    std::vector<tensor::Tensor> templates_; // blurred
    std::vector<int> labels_;
};

} // namespace decepticon::fingerprint

#endif // DECEPTICON_FINGERPRINT_KNN_HH
