#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/kernels/kernels.hh"

namespace decepticon::tensor {

namespace {

std::size_t
elementCount(const std::vector<std::size_t> &shape)
{
    std::size_t n = 1;
    for (auto d : shape)
        n *= d;
    return shape.empty() ? 0 : n;
}

} // anonymous namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(elementCount(shape_), 0.0f)
{
}

Tensor::Tensor(std::vector<std::size_t> shape, float fill)
    : shape_(std::move(shape)), data_(elementCount(shape_), fill)
{
}

void
Tensor::fill(float v)
{
    std::fill(data_.begin(), data_.end(), v);
}

Tensor
Tensor::reshaped(std::vector<std::size_t> new_shape) const
{
    assert(elementCount(new_shape) == size());
    Tensor t;
    t.shape_ = std::move(new_shape);
    t.data_ = data_;
    return t;
}

void
Tensor::fillUniform(util::Rng &rng, float bound)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.uniform(-bound, bound));
}

void
Tensor::fillGaussian(util::Rng &rng, float stddev)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.gaussian(0.0, stddev));
}

void
Tensor::fillXavier(util::Rng &rng, std::size_t fan_in, std::size_t fan_out)
{
    const float bound = std::sqrt(6.0f /
        static_cast<float>(fan_in + fan_out));
    fillUniform(rng, bound);
}

double
Tensor::sum() const
{
    return std::accumulate(data_.begin(), data_.end(), 0.0);
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    assert(a.rank() == 2 && b.rank() == 2);
    assert(a.dim(1) == b.dim(0));
    const std::size_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
    Tensor c({n, m});
    kernels::GemmCall call;
    call.n = n;
    call.m = m;
    call.k = k;
    call.a = a.data();
    call.b = b.data();
    call.c = c.data();
    kernels::gemm(kernels::Trans::NN, call);
    return c;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    assert(a.size() == b.size());
    Tensor c = a;
    for (std::size_t i = 0; i < c.size(); ++i)
        c[i] += b[i];
    return c;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    assert(a.size() == b.size());
    Tensor c = a;
    for (std::size_t i = 0; i < c.size(); ++i)
        c[i] -= b[i];
    return c;
}

void
scaleInPlace(Tensor &a, float s)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] *= s;
}

Tensor
softmaxRows(const Tensor &a)
{
    assert(a.rank() == 2);
    const std::size_t n = a.dim(0), m = a.dim(1);
    Tensor out({n, m});
    if (n == 0 || m == 0)
        return out;
    kernels::softmaxRowsFast(a.data(), out.data(), n, m);
    return out;
}

} // namespace decepticon::tensor
