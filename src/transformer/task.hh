/**
 * @file
 * Synthetic sequence-classification tasks standing in for the paper's
 * GLUE/SQuAD workloads. Each task is a family of per-class Markov
 * chains over a shared vocabulary; classification amounts to inferring
 * which chain generated a sequence. The shared vocabulary is what lets
 * a pre-trained backbone transfer across tasks, mirroring real
 * transfer learning.
 */

#ifndef DECEPTICON_TRANSFORMER_TASK_HH
#define DECEPTICON_TRANSFORMER_TASK_HH

#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace decepticon::transformer {

/** One labeled sequence. */
struct Example
{
    std::vector<int> tokens;
    int label = 0;
};

/** A labeled dataset with a known class count. */
struct Dataset
{
    std::vector<Example> examples;
    std::size_t numClasses = 2;

    std::size_t size() const { return examples.size(); }

    /** First max(1, fraction * size) examples (Fig. 17 sweeps). */
    Dataset fraction(double f) const;
};

/**
 * Markov-chain classification task. Class c's sequences follow a
 * class-specific token transition matrix; sharper matrices make the
 * task easier.
 */
class MarkovTask
{
  public:
    /**
     * @param vocab vocabulary size shared with the model
     * @param num_classes number of generating chains
     * @param seq_len sequence length of every example
     * @param seed determines the chains (task identity)
     * @param sharpness concentration of the transition rows (>0);
     *        higher is easier
     */
    MarkovTask(std::size_t vocab, std::size_t num_classes,
               std::size_t seq_len, std::uint64_t seed,
               double sharpness = 3.0);

    /** Sample a dataset of n examples with balanced classes. */
    Dataset sample(std::size_t n, std::uint64_t seed) const;

    std::size_t numClasses() const { return numClasses_; }
    std::size_t seqLen() const { return seqLen_; }
    std::size_t vocab() const { return vocab_; }

  private:
    std::size_t vocab_;
    std::size_t numClasses_;
    std::size_t seqLen_;
    // transitions_[c] is a (vocab x vocab) row-stochastic matrix,
    // stored as cumulative rows for O(log V) sampling.
    std::vector<std::vector<double>> cumulative_;
    std::vector<std::vector<double>> initial_;
};

} // namespace decepticon::transformer

#endif // DECEPTICON_TRANSFORMER_TASK_HH
