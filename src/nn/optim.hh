/**
 * @file
 * The Adam optimizer over flat parameter lists. Fine-tuning in the
 * paper uses small learning rates, weight decay, and few epochs; both
 * knobs are explicit here.
 */

#ifndef DECEPTICON_NN_OPTIM_HH
#define DECEPTICON_NN_OPTIM_HH

#include <vector>

#include "nn/param.hh"

namespace decepticon::nn {

/** Adam with decoupled weight decay (AdamW-style). */
class Adam
{
  public:
    Adam(ParamRefs params, float lr, float beta1 = 0.9f,
         float beta2 = 0.999f, float eps = 1e-8f,
         float weight_decay = 0.0f);

    void step();
    void zeroGrad();

    float lr() const { return lr_; }

  private:
    ParamRefs params_;
    float lr_;
    float beta1_;
    float beta2_;
    float eps_;
    float weightDecay_;
    long t_ = 0;
    std::vector<tensor::Tensor> m_;
    std::vector<tensor::Tensor> v_;
};

} // namespace decepticon::nn

#endif // DECEPTICON_NN_OPTIM_HH
