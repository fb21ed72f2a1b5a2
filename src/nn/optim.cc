#include "nn/optim.hh"

#include <cmath>

namespace decepticon::nn {

Adam::Adam(ParamRefs params, float lr, float beta1, float beta2, float eps,
           float weight_decay)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps), weightDecay_(weight_decay)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (auto *p : params_) {
        m_.emplace_back(p->value.shape());
        v_.emplace_back(p->value.shape());
    }
}

void
Adam::step()
{
    ++t_;
    const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
    for (std::size_t pi = 0; pi < params_.size(); ++pi) {
        Parameter &p = *params_[pi];
        for (std::size_t i = 0; i < p.value.size(); ++i) {
            const float g = p.grad[i];
            float &m = m_[pi][i];
            float &v = v_[pi][i];
            m = beta1_ * m + (1.0f - beta1_) * g;
            v = beta2_ * v + (1.0f - beta2_) * g * g;
            const float mhat = m / bc1;
            const float vhat = v / bc2;
            float update = mhat / (std::sqrt(vhat) + eps_);
            if (weightDecay_ != 0.0f)
                update += weightDecay_ * p.value[i];
            p.value[i] -= lr_ * update;
        }
    }
}

void
Adam::zeroGrad()
{
    zeroGrads(params_);
}

} // namespace decepticon::nn
