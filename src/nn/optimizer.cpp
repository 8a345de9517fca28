#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "par/pool.hpp"

namespace msa::nn {

namespace {
// Parameter updates are elementwise, so chunked execution is deterministic.
constexpr std::size_t kOptGrain = 1 << 14;

// The sweeps take their pointers and coefficients by value.  Read through
// a lambda's by-reference captures, Adam's loop stayed scalar (GCC: "no
// vectype for stmt"); its sqrt also needs msa_nn's -fno-math-errno.
// Vector and scalar code round every operation alike, so the result bits
// do not depend on which one runs.
struct SgdCoeffs {
  float lr, mu, wd;
  bool nesterov;
};

void sgd_sweep(float* p, const float* g, float* v, std::size_t n,
               SgdCoeffs c) {
  for (std::size_t j = 0; j < n; ++j) {
    const float grad = g[j] + c.wd * p[j];
    v[j] = c.mu * v[j] + grad;
    const float update = c.nesterov ? grad + c.mu * v[j] : v[j];
    p[j] -= c.lr * update;
  }
}

struct AdamCoeffs {
  float lr, b1, b2, wd, eps;
};

void adam_sweep(float* p, const float* g, float* m, float* v, std::size_t n,
                AdamCoeffs c) {
  for (std::size_t j = 0; j < n; ++j) {
    const float grad = g[j] + c.wd * p[j];
    m[j] = c.b1 * m[j] + (1.0f - c.b1) * grad;
    v[j] = c.b2 * v[j] + (1.0f - c.b2) * grad * grad;
    p[j] -= c.lr * m[j] / (std::sqrt(v[j]) + c.eps);
  }
}

void ensure_state(std::vector<Tensor>& state,
                  const std::vector<Tensor*>& params) {
  if (state.empty()) {
    state.reserve(params.size());
    for (const Tensor* p : params) state.emplace_back(Tensor::zeros(p->shape()));
  } else if (state.size() != params.size()) {
    throw std::invalid_argument("optimizer: parameter list changed size");
  }
}
}  // namespace

void Sgd::materialize_state(const std::vector<Tensor*>& params) {
  ensure_state(velocity_, params);
}

bool Sgd::step_flat(std::span<float> params, std::span<float> grads,
                    std::span<float> state) {
  if (velocity_.empty() || state.size() != params.size() ||
      grads.size() != params.size()) {
    return false;
  }
  const SgdCoeffs c{static_cast<float>(lr_), static_cast<float>(momentum_),
                    static_cast<float>(weight_decay_), nesterov_};
  float* p = params.data();
  const float* g = grads.data();
  float* v = state.data();
  par::parallel_for(0, params.size(), kOptGrain,
                    [=](std::size_t b, std::size_t e) {
                      sgd_sweep(p + b, g + b, v + b, e - b, c);
                    });
  return true;
}

void Sgd::step(const std::vector<Tensor*>& params,
               const std::vector<Tensor*>& grads) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Sgd::step: list size mismatch");
  }
  ensure_state(velocity_, params);
  const SgdCoeffs c{static_cast<float>(lr_), static_cast<float>(momentum_),
                    static_cast<float>(weight_decay_), nesterov_};
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data();
    const float* g = grads[i]->data();
    float* v = velocity_[i].data();
    par::parallel_for(0, params[i]->numel(), kOptGrain,
                      [=](std::size_t b, std::size_t e) {
                        sgd_sweep(p + b, g + b, v + b, e - b, c);
                      });
  }
}

void Adam::materialize_state(const std::vector<Tensor*>& params) {
  ensure_state(m_, params);
  ensure_state(v_, params);
}

bool Adam::step_flat(std::span<float> params, std::span<float> grads,
                     std::span<float> state) {
  // ParamStore slab layout mirrors state_tensors(): [all m | all v].
  if (m_.empty() || state.size() != 2 * params.size() ||
      grads.size() != params.size()) {
    return false;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const AdamCoeffs c{static_cast<float>(lr_ * std::sqrt(bc2) / bc1),
                     static_cast<float>(beta1_), static_cast<float>(beta2_),
                     static_cast<float>(weight_decay_),
                     static_cast<float>(eps_)};
  float* p = params.data();
  const float* g = grads.data();
  float* m = state.data();
  float* v = state.data() + params.size();
  par::parallel_for(0, params.size(), kOptGrain,
                    [=](std::size_t b, std::size_t e) {
                      adam_sweep(p + b, g + b, m + b, v + b, e - b, c);
                    });
  return true;
}

void Adam::step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Adam::step: list size mismatch");
  }
  ensure_state(m_, params);
  ensure_state(v_, params);
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const AdamCoeffs c{static_cast<float>(lr_ * std::sqrt(bc2) / bc1),
                     static_cast<float>(beta1_), static_cast<float>(beta2_),
                     static_cast<float>(weight_decay_),
                     static_cast<float>(eps_)};
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data();
    const float* g = grads[i]->data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    par::parallel_for(0, params[i]->numel(), kOptGrain,
                      [=](std::size_t b, std::size_t e) {
                        adam_sweep(p + b, g + b, m + b, v + b, e - b, c);
                      });
  }
}

}  // namespace msa::nn
