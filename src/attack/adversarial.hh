/**
 * @file
 * Adversarial-input attack (paper Sec. 6.2 / Fig. 18): the attacker
 * crafts inputs on a surrogate model (the Decepticon clone, or a
 * baseline substitute) and fires them at the black-box victim. Token
 * sequences are attacked HotFlip-style: the gradient of the loss with
 * respect to the embedding output scores candidate token
 * substitutions by first-order loss increase.
 */

#ifndef DECEPTICON_ATTACK_ADVERSARIAL_HH
#define DECEPTICON_ATTACK_ADVERSARIAL_HH

#include <vector>

#include "transformer/classifier.hh"
#include "transformer/task.hh"

namespace decepticon::attack {

/** Adversarial crafting knobs. */
struct AdversarialOptions
{
    /** Maximum token substitutions per input; every vocabulary token
     *  is scored at every position. */
    std::size_t maxFlips = 2;
};

/**
 * Craft one adversarial variant of a sequence using the surrogate's
 * gradients. Returns the perturbed tokens (may equal the input when
 * no loss-increasing flip exists).
 */
std::vector<int> craftAdversarial(
    transformer::TransformerClassifier &surrogate,
    const std::vector<int> &tokens, int true_label,
    const AdversarialOptions &opts);

/** Outcome of an adversarial transfer evaluation. */
struct TransferResult
{
    /** Seeds the victim originally classified correctly. */
    std::size_t eligible = 0;
    /** Of those, inputs whose adversarial variant fooled the victim. */
    std::size_t fooled = 0;

    double
    successRate() const
    {
        return eligible == 0 ? 0.0
                             : static_cast<double>(fooled) /
                                   static_cast<double>(eligible);
    }
};

/**
 * Craft adversarial inputs on the surrogate for every seed the victim
 * classifies correctly, then measure how many flips the victim's
 * prediction — the success-rate metric of Fig. 18.
 */
TransferResult evaluateTransfer(
    transformer::TransformerClassifier &victim,
    transformer::TransformerClassifier &surrogate,
    const std::vector<transformer::Example> &seeds,
    const AdversarialOptions &opts);

} // namespace decepticon::attack

#endif // DECEPTICON_ATTACK_ADVERSARIAL_HH
