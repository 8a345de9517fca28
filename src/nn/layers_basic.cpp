#include "nn/layers_basic.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace msa::nn {

std::size_t parameter_count(Layer& layer) {
  std::size_t n = 0;
  for (Tensor* p : layer.params()) n += p->numel();
  return n;
}

// ---- Dense -------------------------------------------------------------------

Dense::Dense(std::size_t in, std::size_t out, Rng& rng, bool bias)
    : in_(in),
      out_(out),
      has_bias_(bias),
      w_(Tensor::randn({in, out}, rng,
                       std::sqrt(2.0f / static_cast<float>(in)))),  // He init
      b_(Tensor::zeros({out})),
      gw_(Tensor::zeros({in, out})),
      gb_(Tensor::zeros({out})) {}

Tensor Dense::forward(const Tensor& x, bool /*training*/) {
  if (x.ndim() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("Dense: bad input shape " + x.shape_str());
  }
  x_cache_ = x;
  Tensor y = tensor::matmul(x, w_);
  if (has_bias_) {
    const float* b = b_.data();
    for (std::size_t i = 0; i < y.dim(0); ++i) {
      float* row = y.data() + i * out_;
      for (std::size_t j = 0; j < out_; ++j) row[j] += b[j];
    }
  }
  flops_ = tensor::gemm_flops(x.dim(0), out_, in_);
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  // gW += x^T g;  gb += colsum(g);  gx = g W^T.
  tensor::gemm(/*trans_a=*/true, /*trans_b=*/false, 1.0f, x_cache_, grad_out,
               1.0f, gw_);
  if (has_bias_) {
    float* gb = gb_.data();
    for (std::size_t i = 0; i < grad_out.dim(0); ++i) {
      const float* row = grad_out.data() + i * out_;
      for (std::size_t j = 0; j < out_; ++j) gb[j] += row[j];
    }
  }
  Tensor gx({grad_out.dim(0), in_});
  tensor::gemm(false, /*trans_b=*/true, 1.0f, grad_out, w_, 0.0f, gx);
  return gx;
}

std::vector<Tensor*> Dense::params() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

std::vector<Tensor*> Dense::grads() {
  if (has_bias_) return {&gw_, &gb_};
  return {&gw_};
}

// ---- ReLU --------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, bool /*training*/) {
  mask_ = Tensor(x.shape());
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    const bool pos = y[i] > 0.0f;
    mask_[i] = pos ? 1.0f : 0.0f;
    if (!pos) y[i] = 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  g.mul_(mask_);
  return g;
}

// ---- Flatten -----------------------------------------------------------------

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
  in_shape_ = x.shape();
  const std::size_t batch = x.dim(0);
  return x.reshaped({batch, x.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ---- Dropout -----------------------------------------------------------------

Dropout::Dropout(double p, std::uint64_t seed) : p_(p), rng_(seed) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  was_training_ = training;
  if (!training || p_ == 0.0) return x;
  mask_ = Tensor(x.shape());
  Tensor y = x;
  const float scale = 1.0f / static_cast<float>(1.0 - p_);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    const bool keep = !rng_.bernoulli(p_);
    mask_[i] = keep ? scale : 0.0f;
    y[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!was_training_ || p_ == 0.0) return grad_out;
  Tensor g = grad_out;
  g.mul_(mask_);
  return g;
}

}  // namespace msa::nn
