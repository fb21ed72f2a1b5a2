#include "nn/conv.hh"

#include <cstring>
#include <limits>

namespace decepticon::nn {

namespace kernels = tensor::kernels;

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel, util::Rng &rng)
    : weight(name + ".weight", {out_channels, in_channels, kernel, kernel}),
      bias(name + ".bias", {out_channels}),
      inChannels_(in_channels),
      outChannels_(out_channels),
      kernel_(kernel)
{
    weight.value.fillXavier(rng, in_channels * kernel * kernel,
                            out_channels * kernel * kernel);
}

tensor::Tensor
Conv2d::forward(const tensor::Tensor &x)
{
    assert(x.rank() == 4);
    assert(x.dim(1) == inChannels_);
    const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    assert(h >= kernel_ && w >= kernel_);

    const std::size_t oh = h - kernel_ + 1;
    const std::size_t ow = w - kernel_ + 1;
    const std::size_t in_plane = h * w;
    const std::size_t out_plane = oh * ow;
    const std::size_t ck2 = inChannels_ * kernel_ * kernel_;
    inShape_ = x.shape();

    tensor::Tensor y({n, outChannels_, oh, ow});
    float *col_all = colCache_.prepare(n * ck2 * out_plane);
    float *preact_all = act_ != kernels::Act::None
        ? preactCache_.prepare(n * outChannels_ * out_plane)
        : nullptr;

    for (std::size_t b = 0; b < n; ++b) {
        // im2col: patch row q = (ci*k + kr)*k + kc holds the input
        // window element (ci, r+kr, c+kc) for every output cell
        // (r, c). Each (q, r) segment is ow contiguous input floats.
        float *col = col_all + b * ck2 * out_plane;
        const float *xb = x.data() + b * inChannels_ * in_plane;
        std::size_t q = 0;
        for (std::size_t ci = 0; ci < inChannels_; ++ci) {
            const float *xplane = xb + ci * in_plane;
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
                for (std::size_t kc = 0; kc < kernel_; ++kc, ++q) {
                    float *crow = col + q * out_plane;
                    for (std::size_t r = 0; r < oh; ++r)
                        std::memcpy(crow + r * ow,
                                    xplane + (r + kr) * w + kc,
                                    ow * sizeof(float));
                }
            }
        }
        // y_b = act(W_(Cout, ck2) · col + bias) in one fused GEMM.
        kernels::GemmCall call;
        call.n = outChannels_;
        call.m = out_plane;
        call.k = ck2;
        call.a = weight.value.data();
        call.b = col;
        call.c = y.data() + b * outChannels_ * out_plane;
        call.rowBias = bias.value.data();
        call.act = act_;
        if (preact_all)
            call.preact = preact_all + b * outChannels_ * out_plane;
        kernels::gemm(kernels::Trans::NN, call);
    }
    return y;
}

tensor::Tensor
Conv2d::backward(const tensor::Tensor &dy)
{
    assert(dy.rank() == 4 && dy.dim(1) == outChannels_);
    assert(colCache_.valid() &&
           "Conv2d::backward after recycleActivations()");

    const std::size_t n = inShape_[0], h = inShape_[2], w = inShape_[3];
    const std::size_t oh = dy.dim(2), ow = dy.dim(3);
    assert(dy.dim(0) == n);
    assert(oh == h - kernel_ + 1 && ow == w - kernel_ + 1);
    const std::size_t in_plane = h * w;
    const std::size_t out_plane = oh * ow;
    const std::size_t ck2 = inChannels_ * kernel_ * kernel_;

    // Fold the fused activation's derivative into the gradient.
    const float *g_all = dy.data();
    tensor::Tensor dpre;
    if (act_ != kernels::Act::None) {
        assert(preactCache_.valid());
        dpre = dy;
        const float *pre = preactCache_.data();
        for (std::size_t i = 0; i < dpre.size(); ++i)
            dpre[i] *= kernels::actBackward(act_, pre[i]);
        g_all = dpre.data();
    }

    tensor::Tensor dx({n, inChannels_, h, w});
    kernels::ScratchArena::Frame frame(kernels::scratch());
    float *dcol = kernels::scratch().alloc(ck2 * out_plane);

    for (std::size_t b = 0; b < n; ++b) {
        const float *gb = g_all + b * outChannels_ * out_plane;
        const float *col = colCache_.data() + b * ck2 * out_plane;

        for (std::size_t co = 0; co < outChannels_; ++co) {
            const float *gplane = gb + co * out_plane;
            for (std::size_t i = 0; i < out_plane; ++i)
                bias.grad[co] += gplane[i];
        }

        // dW += g_b · col_b^T.
        kernels::GemmCall dw;
        dw.n = outChannels_;
        dw.m = ck2;
        dw.k = out_plane;
        dw.a = gb;
        dw.b = col;
        dw.c = weight.grad.data();
        dw.accumulate = true;
        kernels::gemm(kernels::Trans::NT, dw);

        // dcol = W^T · g_b, then scatter back to input coordinates.
        kernels::GemmCall dc;
        dc.n = ck2;
        dc.m = out_plane;
        dc.k = outChannels_;
        dc.a = weight.value.data();
        dc.b = gb;
        dc.c = dcol;
        kernels::gemm(kernels::Trans::TN, dc);

        float *dxb = dx.data() + b * inChannels_ * in_plane;
        std::size_t q = 0;
        for (std::size_t ci = 0; ci < inChannels_; ++ci) {
            float *dxplane = dxb + ci * in_plane;
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
                for (std::size_t kc = 0; kc < kernel_; ++kc, ++q) {
                    const float *crow = dcol + q * out_plane;
                    for (std::size_t r = 0; r < oh; ++r) {
                        float *dxrow = dxplane + (r + kr) * w + kc;
                        const float *src = crow + r * ow;
                        for (std::size_t c = 0; c < ow; ++c)
                            dxrow[c] += src[c];
                    }
                }
            }
        }
    }
    return dx;
}

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride)
{
    assert(kernel > 0 && stride > 0);
}

tensor::Tensor
MaxPool2d::forward(const tensor::Tensor &x)
{
    assert(x.rank() == 4);
    const std::size_t n = x.dim(0), ch = x.dim(1), h = x.dim(2),
        w = x.dim(3);
    assert(h >= kernel_ && w >= kernel_);
    const std::size_t oh = (h - kernel_) / stride_ + 1;
    const std::size_t ow = (w - kernel_) / stride_ + 1;
    inShape_ = x.shape();

    tensor::Tensor y({n, ch, oh, ow});
    argmax_.assign(y.size(), 0);
    const std::size_t in_plane = h * w;
    const std::size_t out_plane = oh * ow;

    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t c = 0; c < ch; ++c) {
            const std::size_t in_base = (b * ch + c) * in_plane;
            const std::size_t out_base = (b * ch + c) * out_plane;
            for (std::size_t r = 0; r < oh; ++r) {
                for (std::size_t q = 0; q < ow; ++q) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::size_t best_idx = 0;
                    for (std::size_t kr = 0; kr < kernel_; ++kr) {
                        for (std::size_t kc = 0; kc < kernel_; ++kc) {
                            const std::size_t idx = in_base +
                                (r * stride_ + kr) * w +
                                (q * stride_ + kc);
                            if (x[idx] > best) {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    const std::size_t oidx = out_base + r * ow + q;
                    y[oidx] = best;
                    argmax_[oidx] = best_idx;
                }
            }
        }
    }
    return y;
}

tensor::Tensor
MaxPool2d::backward(const tensor::Tensor &dy)
{
    assert(dy.size() == argmax_.size());
    tensor::Tensor dx(inShape_);
    for (std::size_t i = 0; i < dy.size(); ++i)
        dx[argmax_[i]] += dy[i];
    return dx;
}

} // namespace decepticon::nn
