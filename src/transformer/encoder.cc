#include "transformer/encoder.hh"

#include <cmath>

#include "tensor/kernels/kernels.hh"

namespace decepticon::transformer {

namespace kernels = tensor::kernels;

EncoderLayer::EncoderLayer(const std::string &name,
                           const TransformerConfig &cfg, util::Rng &rng)
    : hidden_(cfg.hidden),
      numHeads_(cfg.numHeads),
      headDim_(cfg.headDim()),
      wq_(name + ".attn.q", cfg.hidden, cfg.hidden, rng),
      wk_(name + ".attn.k", cfg.hidden, cfg.hidden, rng),
      wv_(name + ".attn.v", cfg.hidden, cfg.hidden, rng),
      wo_(name + ".attn.out", cfg.hidden, cfg.hidden, rng),
      ln1_(name + ".ln1", cfg.hidden),
      ln2_(name + ".ln2", cfg.hidden),
      ff1_(name + ".ffn.1", cfg.hidden, cfg.ffnDim, rng),
      ff2_(name + ".ffn.2", cfg.ffnDim, cfg.hidden, rng),
      activeHeads_(cfg.numHeads, true)
{
    assert(cfg.valid());
    ff1_.setActivation(tensor::kernels::Act::Gelu);
}

tensor::Tensor
EncoderLayer::forward(const tensor::Tensor &x)
{
    assert(x.rank() == 2 && x.dim(1) == hidden_);
    const std::size_t t = x.dim(0);

    cachedQ_ = wq_.forward(x);
    cachedK_ = wk_.forward(x);
    cachedV_ = wv_.forward(x);
    cachedProbs_.assign(numHeads_, tensor::Tensor());

    // Per-head attention runs on column slices of the packed Q/K/V
    // matrices through the strided-GEMM interface (lda = hidden), so
    // no head is ever copied out; the context GEMM writes its result
    // straight into head h's columns of attn_cat (ldc = hidden).
    // Pruned heads leave their zero-initialized columns untouched.
    tensor::Tensor attn_cat({t, hidden_});
    const float scale = 1.0f / std::sqrt(static_cast<float>(headDim_));
    for (std::size_t h = 0; h < numHeads_; ++h) {
        if (!activeHeads_[h])
            continue;
        tensor::Tensor scores({t, t});
        kernels::GemmCall sc;
        sc.n = t;
        sc.m = t;
        sc.k = headDim_;
        sc.a = cachedQ_.data() + h * headDim_;
        sc.lda = hidden_;
        sc.b = cachedK_.data() + h * headDim_;
        sc.ldb = hidden_;
        sc.c = scores.data();
        kernels::gemm(kernels::Trans::NT, sc);
        tensor::scaleInPlace(scores, scale);
        cachedProbs_[h] = tensor::softmaxRows(scores);
        kernels::GemmCall ctx;
        ctx.n = t;
        ctx.m = headDim_;
        ctx.k = t;
        ctx.a = cachedProbs_[h].data();
        ctx.b = cachedV_.data() + h * headDim_;
        ctx.ldb = hidden_;
        ctx.c = attn_cat.data() + h * headDim_;
        ctx.ldc = hidden_;
        kernels::gemm(kernels::Trans::NN, ctx);
    }

    tensor::Tensor ao = wo_.forward(attn_cat);
    tensor::Tensor r1 = tensor::add(x, ao);
    tensor::Tensor h1 = ln1_.forward(r1);

    tensor::Tensor f = ff2_.forward(ff1_.forward(h1));
    tensor::Tensor r2 = tensor::add(h1, f);
    return ln2_.forward(r2);
}

tensor::Tensor
EncoderLayer::backward(const tensor::Tensor &dy)
{
    const std::size_t t = dy.dim(0);

    tensor::Tensor dr2 = ln2_.backward(dy);
    // r2 = h1 + f: gradient flows unchanged to both addends.
    tensor::Tensor dh1_ffn = ff1_.backward(ff2_.backward(dr2));
    tensor::Tensor dh1 = tensor::add(dr2, dh1_ffn);

    tensor::Tensor dr1 = ln1_.backward(dh1);
    tensor::Tensor d_attn_cat = wo_.backward(dr1);

    // Head gradients mirror the forward slicing: every per-head GEMM
    // reads head columns in place (lda/ldb = hidden) and the dq/dk/dv
    // results land directly in their head's columns (ldc = hidden);
    // the columns of pruned heads stay zero.
    tensor::Tensor dq({t, hidden_});
    tensor::Tensor dk({t, hidden_});
    tensor::Tensor dv({t, hidden_});
    const float scale = 1.0f / std::sqrt(static_cast<float>(headDim_));

    for (std::size_t h = 0; h < numHeads_; ++h) {
        if (!activeHeads_[h])
            continue;
        const tensor::Tensor &p = cachedProbs_[h];
        const std::size_t off = h * headDim_;

        // oh = P vh: dp = doh vh^T, dvh = P^T doh.
        tensor::Tensor dp({t, t});
        kernels::GemmCall dpc;
        dpc.n = t;
        dpc.m = t;
        dpc.k = headDim_;
        dpc.a = d_attn_cat.data() + off;
        dpc.lda = hidden_;
        dpc.b = cachedV_.data() + off;
        dpc.ldb = hidden_;
        dpc.c = dp.data();
        kernels::gemm(kernels::Trans::NT, dpc);

        kernels::GemmCall dvc;
        dvc.n = t;
        dvc.m = headDim_;
        dvc.k = t;
        dvc.a = p.data();
        dvc.b = d_attn_cat.data() + off;
        dvc.ldb = hidden_;
        dvc.c = dv.data() + off;
        dvc.ldc = hidden_;
        kernels::gemm(kernels::Trans::TN, dvc);

        // Softmax backward per row: ds = P .* (dp - rowsum(dp .* P)).
        tensor::Tensor ds({t, t});
        for (std::size_t i = 0; i < t; ++i) {
            const float *prow = p.data() + i * t;
            const float *dprow = dp.data() + i * t;
            float dot = 0.0f;
            for (std::size_t j = 0; j < t; ++j)
                dot += dprow[j] * prow[j];
            float *dsrow = ds.data() + i * t;
            for (std::size_t j = 0; j < t; ++j)
                dsrow[j] = prow[j] * (dprow[j] - dot);
        }
        tensor::scaleInPlace(ds, scale);

        // scores = qh kh^T (pre-scale): dq = ds kh, dk = ds^T qh.
        kernels::GemmCall dqc;
        dqc.n = t;
        dqc.m = headDim_;
        dqc.k = t;
        dqc.a = ds.data();
        dqc.b = cachedK_.data() + off;
        dqc.ldb = hidden_;
        dqc.c = dq.data() + off;
        dqc.ldc = hidden_;
        kernels::gemm(kernels::Trans::NN, dqc);

        kernels::GemmCall dkc;
        dkc.n = t;
        dkc.m = headDim_;
        dkc.k = t;
        dkc.a = ds.data();
        dkc.b = cachedQ_.data() + off;
        dkc.ldb = hidden_;
        dkc.c = dk.data() + off;
        dkc.ldc = hidden_;
        kernels::gemm(kernels::Trans::TN, dkc);
    }

    tensor::Tensor dx = wq_.backward(dq);
    dx = tensor::add(dx, wk_.backward(dk));
    dx = tensor::add(dx, wv_.backward(dv));
    dx = tensor::add(dx, dr1); // residual path r1 = x + ao
    return dx;
}

nn::ParamRefs
EncoderLayer::params()
{
    nn::ParamRefs out;
    for (auto *group : {&wq_, &wk_, &wv_, &wo_, &ff1_, &ff2_}) {
        auto ps = group->params();
        out.insert(out.end(), ps.begin(), ps.end());
    }
    for (auto *ln : {&ln1_, &ln2_}) {
        auto ps = ln->params();
        out.insert(out.end(), ps.begin(), ps.end());
    }
    return out;
}

void
EncoderLayer::setActiveHeads(std::vector<bool> active)
{
    assert(active.size() == numHeads_);
    activeHeads_ = std::move(active);
}

const tensor::Tensor &
EncoderLayer::attentionProbs(std::size_t h) const
{
    assert(h < cachedProbs_.size());
    return cachedProbs_[h];
}

} // namespace decepticon::transformer
