#include "attack/adversarial.hh"

#include <cassert>

#include "nn/param.hh"

namespace decepticon::attack {

std::vector<int>
craftAdversarial(transformer::TransformerClassifier &surrogate,
                 const std::vector<int> &tokens, int true_label,
                 const AdversarialOptions &opts)
{
    std::vector<int> adv = tokens;
    const auto &emb = surrogate.embedding();
    const std::size_t vocab = emb.vocab();
    const std::size_t dim = emb.dim();

    for (std::size_t flip = 0; flip < opts.maxFlips; ++flip) {
        // Gradient of the loss w.r.t. the embedding output; positive
        // dot products with (e_new - e_old) increase the loss.
        tensor::Tensor g = surrogate.embeddingGradient(adv, true_label);
        nn::zeroGrads(surrogate.params()); // probing, not training

        double best_score = 0.0;
        std::size_t best_pos = 0;
        int best_tok = -1;
        for (std::size_t pos = 0; pos < adv.size(); ++pos) {
            const float *grow = g.data() + pos * dim;
            const float *eold = emb.table.value.data() +
                static_cast<std::size_t>(adv[pos]) * dim;
            for (std::size_t v = 0; v < vocab; ++v) {
                if (static_cast<int>(v) == adv[pos])
                    continue;
                const float *enew = emb.table.value.data() + v * dim;
                double score = 0.0;
                for (std::size_t j = 0; j < dim; ++j)
                    score += static_cast<double>(grow[j]) *
                             (enew[j] - eold[j]);
                if (score > best_score) {
                    best_score = score;
                    best_pos = pos;
                    best_tok = static_cast<int>(v);
                }
            }
        }
        if (best_tok < 0)
            break; // no loss-increasing substitution exists
        adv[best_pos] = best_tok;
        // Early exit once the surrogate itself is fooled.
        if (surrogate.predict(adv) != true_label)
            break;
    }
    return adv;
}

TransferResult
evaluateTransfer(transformer::TransformerClassifier &victim,
                 transformer::TransformerClassifier &surrogate,
                 const std::vector<transformer::Example> &seeds,
                 const AdversarialOptions &opts)
{
    TransferResult result;
    for (const auto &ex : seeds) {
        if (victim.predict(ex.tokens) != ex.label)
            continue; // only originally correct predictions count
        ++result.eligible;
        const std::vector<int> adv =
            craftAdversarial(surrogate, ex.tokens, ex.label, opts);
        if (victim.predict(adv) != ex.label)
            ++result.fooled;
    }
    return result;
}

} // namespace decepticon::attack
