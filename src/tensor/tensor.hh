/**
 * @file
 * Minimal dense float tensor used by the neural-network substrate.
 * Row-major storage, dynamic rank, and the handful of BLAS-like kernels
 * needed by the transformer and CNN implementations.
 */

#ifndef DECEPTICON_TENSOR_TENSOR_HH
#define DECEPTICON_TENSOR_TENSOR_HH

#include <cassert>
#include <cstddef>
#include <vector>

#include "util/rng.hh"

namespace decepticon::tensor {

/**
 * Dense row-major float tensor of dynamic rank.
 *
 * Only the operations used by the nn/transformer substrates are
 * provided; the goal is a dependency-free, easily auditable kernel
 * set rather than a general array library.
 */
class Tensor
{
  public:
    /** Empty (rank-0, zero-element) tensor. */
    Tensor() = default;

    /** Zero-initialized tensor with the given shape. */
    explicit Tensor(std::vector<std::size_t> shape);

    /** Tensor with the given shape and fill value. */
    Tensor(std::vector<std::size_t> shape, float fill);

    /** Shape accessor. */
    const std::vector<std::size_t> &shape() const { return shape_; }

    /** Number of dimensions. */
    std::size_t rank() const { return shape_.size(); }

    /** Size of dimension d. */
    std::size_t dim(std::size_t d) const { return shape_[d]; }

    /** Total element count. */
    std::size_t size() const { return data_.size(); }

    /** Raw storage access. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::vector<float> &vec() { return data_; }
    const std::vector<float> &vec() const { return data_; }

    /** Flat element access. */
    float &operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** 2-D element access. @pre rank() == 2 */
    float &
    at(std::size_t r, std::size_t c)
    {
        assert(rank() == 2);
        return data_[r * shape_[1] + c];
    }

    float
    at(std::size_t r, std::size_t c) const
    {
        assert(rank() == 2);
        return data_[r * shape_[1] + c];
    }

    /** 3-D element access. @pre rank() == 3 */
    float &
    at(std::size_t i, std::size_t j, std::size_t k)
    {
        assert(rank() == 3);
        return data_[(i * shape_[1] + j) * shape_[2] + k];
    }

    float
    at(std::size_t i, std::size_t j, std::size_t k) const
    {
        assert(rank() == 3);
        return data_[(i * shape_[1] + j) * shape_[2] + k];
    }

    /** Set every element to v. */
    void fill(float v);

    /** Reinterpret with a new shape of identical element count. */
    Tensor reshaped(std::vector<std::size_t> new_shape) const;

    /** Fill i.i.d. uniform in [-bound, bound]. */
    void fillUniform(util::Rng &rng, float bound);

    /** Fill i.i.d. normal(0, stddev). */
    void fillGaussian(util::Rng &rng, float stddev);

    /** Xavier/Glorot uniform init for a (fan_out, fan_in) matrix. */
    void fillXavier(util::Rng &rng, std::size_t fan_in, std::size_t fan_out);

    /** Sum of all elements. */
    double sum() const;

  private:
    std::vector<std::size_t> shape_;
    std::vector<float> data_;
};

/**
 * C = A * B for 2-D tensors. @pre a is (n, k), b is (k, m)
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Element-wise sum; shapes must match. */
Tensor add(const Tensor &a, const Tensor &b);

/** Element-wise difference; shapes must match. */
Tensor sub(const Tensor &a, const Tensor &b);

/** Scale every element in place. */
void scaleInPlace(Tensor &a, float s);

/** Row-wise softmax of a 2-D tensor. */
Tensor softmaxRows(const Tensor &a);

} // namespace decepticon::tensor

#endif // DECEPTICON_TENSOR_TENSOR_HH
