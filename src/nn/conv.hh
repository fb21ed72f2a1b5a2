/**
 * @file
 * 2-D convolution and max-pooling layers for the fingerprint CNN
 * (paper Sec. 5.4.2) and the ResNet-style generalization study
 * (paper Sec. 7.7). Batched NCHW layout, stride-1 valid convolution,
 * non-overlapping pooling.
 */

#ifndef DECEPTICON_NN_CONV_HH
#define DECEPTICON_NN_CONV_HH

#include <string>
#include <vector>

#include "nn/param.hh"
#include "tensor/kernels/arena.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace decepticon::nn {

/**
 * Valid (no padding), stride-1 2-D convolution over a rank-4
 * (N, C_in, H, W) input producing (N, C_out, H-k+1, W-k+1).
 *
 * Forward lowers each example to an im2col patch matrix
 * (C_in·k², oh·ow) and runs the shared packed GEMM with the bias (and
 * any activation set via setActivation()) fused into the epilogue.
 * The patch panel — which backward needs for dW anyway — lives in an
 * ActivationCache slot, so forward keeps no copy of the raw input at
 * all; backward after recycleActivations() asserts. kernels_test
 * checks both passes against a direct loop nest.
 */
class Conv2d
{
  public:
    Conv2d(std::string name, std::size_t in_channels,
           std::size_t out_channels, std::size_t kernel, util::Rng &rng);

    /** Fuse an activation into forward/backward (default: none). */
    void setActivation(tensor::kernels::Act act) { act_ = act; }

    tensor::Tensor forward(const tensor::Tensor &x);

    /** Accumulates dW/db and returns dx. */
    tensor::Tensor backward(const tensor::Tensor &dy);

    ParamRefs params() { return {&weight, &bias}; }

    std::size_t kernel() const { return kernel_; }

    Parameter weight; // (C_out, C_in, k, k)
    Parameter bias;   // (C_out)

  private:
    std::size_t inChannels_;
    std::size_t outChannels_;
    std::size_t kernel_;
    tensor::kernels::Act act_ = tensor::kernels::Act::None;
    std::vector<std::size_t> inShape_;
    tensor::kernels::ActivationCache colCache_;
    tensor::kernels::ActivationCache preactCache_;
};

/**
 * Max pooling with square kernel and equal stride over (N, C, H, W);
 * trailing rows/columns that do not fill a window are dropped,
 * matching PyTorch's default floor mode.
 */
class MaxPool2d
{
  public:
    MaxPool2d(std::size_t kernel, std::size_t stride);

    tensor::Tensor forward(const tensor::Tensor &x);

    tensor::Tensor backward(const tensor::Tensor &dy);

    std::size_t kernel() const { return kernel_; }
    std::size_t stride() const { return stride_; }

  private:
    std::size_t kernel_;
    std::size_t stride_;
    std::vector<std::size_t> argmax_; // flat input index per output cell
    std::vector<std::size_t> inShape_;
};

} // namespace decepticon::nn

#endif // DECEPTICON_NN_CONV_HH
