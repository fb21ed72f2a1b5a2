#include "transformer/classifier.hh"

#include <string>

#include "sched/sched.hh"

namespace decepticon::transformer {

TransformerClassifier::TransformerClassifier(const TransformerConfig &cfg,
                                             std::uint64_t seed)
    : cfg_(cfg),
      rng_(seed),
      tokEmb_("tok_emb", cfg.vocab, cfg.hidden, rng_),
      posEmb_("pos_emb", {cfg.maxSeqLen, cfg.hidden})
{
    assert(cfg.valid());
    posEmb_.value.fillGaussian(rng_, 0.02f);
    encoders_.reserve(cfg.numLayers);
    for (std::size_t i = 0; i < cfg.numLayers; ++i) {
        encoders_.push_back(std::make_unique<EncoderLayer>(
            "encoder" + std::to_string(i), cfg, rng_));
    }
    head_ = std::make_unique<nn::Linear>("head", cfg.hidden,
                                         cfg.numClasses, rng_);
}

TransformerClassifier::TransformerClassifier(
    const TransformerClassifier &other)
    : TransformerClassifier(other.cfg_, /*seed=*/0)
{
    copyWeightsFrom(other);
    for (std::size_t i = 0; i < encoders_.size(); ++i)
        encoders_[i]->setActiveHeads(other.encoders_[i]->activeHeads());
}

tensor::Tensor
TransformerClassifier::forwardBackbone(const std::vector<int> &tokens)
{
    assert(!tokens.empty() && tokens.size() <= cfg_.maxSeqLen);
    tensor::Tensor x = tokEmb_.forward(tokens);
    const std::size_t t = tokens.size();
    for (std::size_t i = 0; i < t; ++i) {
        float *row = x.data() + i * cfg_.hidden;
        const float *pos = posEmb_.value.data() + i * cfg_.hidden;
        for (std::size_t j = 0; j < cfg_.hidden; ++j)
            row[j] += pos[j];
    }
    for (auto &enc : encoders_)
        x = enc->forward(x);
    return x;
}

tensor::Tensor
TransformerClassifier::logits(const std::vector<int> &tokens)
{
    tensor::Tensor x = forwardBackbone(tokens);
    // Pool the first ([CLS]-style) token.
    tensor::Tensor pooled({1, cfg_.hidden});
    for (std::size_t j = 0; j < cfg_.hidden; ++j)
        pooled[j] = x.at(0, j);
    return head_->forward(pooled);
}

int
TransformerClassifier::predict(const std::vector<int> &tokens)
{
    return nn::argmaxRows(logits(tokens))[0];
}

tensor::Tensor
TransformerClassifier::backwardFromLogits(const tensor::Tensor &dlogits,
                                          std::size_t seq_len)
{
    tensor::Tensor dpooled = head_->backward(dlogits);
    tensor::Tensor dx({seq_len, cfg_.hidden});
    for (std::size_t j = 0; j < cfg_.hidden; ++j)
        dx.at(0, j) = dpooled[j];
    for (auto it = encoders_.rbegin(); it != encoders_.rend(); ++it)
        dx = (*it)->backward(dx);

    // dx is now the gradient at the embedding-sum output.
    for (std::size_t i = 0; i < seq_len; ++i) {
        const float *src = dx.data() + i * cfg_.hidden;
        float *dst = posEmb_.grad.data() + i * cfg_.hidden;
        for (std::size_t j = 0; j < cfg_.hidden; ++j)
            dst[j] += src[j];
    }
    tokEmb_.backward(dx);
    return dx;
}

float
TransformerClassifier::lossAndBackward(const std::vector<int> &tokens,
                                       int label)
{
    tensor::Tensor lg = logits(tokens);
    const float loss = loss_.forward(lg, {label});
    backwardFromLogits(loss_.backward(), tokens.size());
    return loss;
}

tensor::Tensor
TransformerClassifier::embeddingGradient(const std::vector<int> &tokens,
                                         int label)
{
    tensor::Tensor lg = logits(tokens);
    loss_.forward(lg, {label});
    return backwardFromLogits(loss_.backward(), tokens.size());
}

nn::ParamRefs
TransformerClassifier::params()
{
    nn::ParamRefs out = backboneParams();
    auto hp = headParams();
    out.insert(out.end(), hp.begin(), hp.end());
    return out;
}

nn::ParamRefs
TransformerClassifier::backboneParams()
{
    nn::ParamRefs out = embeddingParams();
    for (auto &enc : encoders_) {
        auto ps = enc->params();
        out.insert(out.end(), ps.begin(), ps.end());
    }
    return out;
}

nn::ParamRefs
TransformerClassifier::embeddingParams()
{
    nn::ParamRefs out = tokEmb_.params();
    out.push_back(&posEmb_);
    return out;
}

nn::ParamRefs
TransformerClassifier::headParams()
{
    return head_->params();
}

nn::ParamRefs
TransformerClassifier::encoderParams(std::size_t layer)
{
    assert(layer < encoders_.size());
    return encoders_[layer]->params();
}

void
TransformerClassifier::copyWeightsFrom(const TransformerClassifier &other)
{
    auto *self = this;
    auto *src = const_cast<TransformerClassifier *>(&other);
    copyBackboneFrom(other);
    if (head_->outFeatures() != src->head_->outFeatures()) {
        cfg_.numClasses = src->cfg_.numClasses;
        head_ = std::make_unique<nn::Linear>("head", cfg_.hidden,
                                             cfg_.numClasses, rng_);
    }
    auto dst_head = self->headParams();
    auto src_head = src->headParams();
    for (std::size_t i = 0; i < dst_head.size(); ++i)
        dst_head[i]->value = src_head[i]->value;
}

void
TransformerClassifier::copyBackboneFrom(const TransformerClassifier &other)
{
    auto *src = const_cast<TransformerClassifier *>(&other);
    auto dst = backboneParams();
    auto sp = src->backboneParams();
    assert(dst.size() == sp.size());
    for (std::size_t i = 0; i < dst.size(); ++i) {
        assert(dst[i]->size() == sp[i]->size());
        dst[i]->value = sp[i]->value;
    }
}

void
TransformerClassifier::copyEncoderFrom(const TransformerClassifier &other,
                                       std::size_t layer)
{
    auto *src = const_cast<TransformerClassifier *>(&other);
    auto dst = encoderParams(layer);
    auto sp = src->encoderParams(layer);
    assert(dst.size() == sp.size());
    for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i]->value = sp[i]->value;
}

void
TransformerClassifier::resetHead(std::size_t num_classes, std::uint64_t seed)
{
    cfg_.numClasses = num_classes;
    util::Rng rng(seed);
    head_ = std::make_unique<nn::Linear>("head", cfg_.hidden, num_classes,
                                         rng);
}

std::vector<int>
predictBatch(const TransformerClassifier &model,
             const std::vector<std::vector<int>> &sequences)
{
    std::vector<int> out(sequences.size());
    sched::parallelForRange(
        sequences.size(), 0, [&](std::size_t begin, std::size_t end) {
            TransformerClassifier local(model); // private forward caches
            for (std::size_t i = begin; i < end; ++i)
                out[i] = local.predict(sequences[i]);
        });
    return out;
}

} // namespace decepticon::transformer
