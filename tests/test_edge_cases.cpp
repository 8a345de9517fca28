// Edge-case and error-path coverage across modules.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "nn/layers_basic.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "par/pool.hpp"
#include "tensor/ops.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::Runtime;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;
using msa::tensor::Tensor;

// ---- tensor ------------------------------------------------------------------

TEST(TensorEdge, ShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  EXPECT_THROW(a.add_(b), std::invalid_argument);
  EXPECT_THROW(a.mul_(b), std::invalid_argument);
  EXPECT_THROW(a.axpy_(1.0f, b), std::invalid_argument);
}

TEST(TensorEdge, ReshapeValidation) {
  Tensor a({2, 6});
  EXPECT_NO_THROW(a.reshape({3, 4}));
  EXPECT_NO_THROW(a.reshape({12}));
  EXPECT_THROW(a.reshape({5, 2}), std::invalid_argument);
}

TEST(TensorEdge, ConstructorValidatesData) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
  EXPECT_NO_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f}));
}

TEST(TensorEdge, EmptyShapeHasZeroElements) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.ndim(), 0u);
}

TEST(TensorEdge, GemmDimensionChecks) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(msa::tensor::gemm(false, false, 1.0f, a, b, 0.0f, c),
               std::invalid_argument);
  Tensor b2({3, 5});
  EXPECT_NO_THROW(msa::tensor::gemm(false, false, 1.0f, a, b2, 0.0f, c));
  Tensor c_bad({3, 5});
  EXPECT_THROW(msa::tensor::gemm(false, false, 1.0f, a, b2, 0.0f, c_bad),
               std::invalid_argument);
}

TEST(TensorEdge, ArgmaxFirstOnTies) {
  Tensor t = Tensor::of({1.0f, 5.0f, 5.0f, 2.0f});
  EXPECT_EQ(t.argmax(), 1u);
}

// ---- rng ---------------------------------------------------------------------

TEST(RngEdge, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngEdge, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(RngEdge, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

// ---- layers ------------------------------------------------------------------

TEST(LayerEdge, DenseRejectsWrongWidth) {
  Rng rng(1);
  msa::nn::Dense d(4, 2, rng);
  Tensor bad({3, 5});
  EXPECT_THROW(d.forward(bad, true), std::invalid_argument);
}

TEST(LayerEdge, DropoutValidatesProbability) {
  EXPECT_THROW(msa::nn::Dropout(-0.1), std::invalid_argument);
  EXPECT_THROW(msa::nn::Dropout(1.0), std::invalid_argument);
  EXPECT_NO_THROW(msa::nn::Dropout(0.0));
}

TEST(LayerEdge, DropoutIdentityInEval) {
  msa::nn::Dropout d(0.5);
  Rng rng(2);
  Tensor x = Tensor::randn({4, 8}, rng);
  Tensor y = d.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(LayerEdge, DropoutPreservesScaleInTraining) {
  msa::nn::Dropout d(0.3);
  Rng rng(3);
  Tensor x = Tensor::full({100, 100}, 1.0f);
  Tensor y = d.forward(x, true);
  // Inverted dropout keeps the expectation: mean stays ~1.
  EXPECT_NEAR(y.mean(), 1.0f, 0.02f);
}

TEST(LayerEdge, ZeroGradsClearsAccumulation) {
  Rng rng(4);
  msa::nn::Dense d(3, 2, rng);
  Tensor x = Tensor::randn({2, 3}, rng);
  d.forward(x, true);
  Tensor g = Tensor::ones({2, 2});
  d.backward(g);
  const float before = d.grads()[0]->squared_norm();
  EXPECT_GT(before, 0.0f);
  d.zero_grads();
  EXPECT_EQ(d.grads()[0]->squared_norm(), 0.0f);
}

TEST(LayerEdge, GradientsAccumulateAcrossBackwards) {
  Rng rng(5);
  msa::nn::Dense d(3, 2, rng);
  Tensor x = Tensor::randn({2, 3}, rng);
  Tensor g = Tensor::ones({2, 2});
  d.zero_grads();
  d.forward(x, true);
  d.backward(g);
  const Tensor once = *d.grads()[0];
  d.forward(x, true);
  d.backward(g);
  for (std::size_t i = 0; i < once.numel(); ++i) {
    EXPECT_NEAR((*d.grads()[0])[i], 2.0f * once[i], 1e-5f);
  }
}

// ---- optimizers ----------------------------------------------------------------

TEST(OptimizerEdge, RejectsChangedParameterList) {
  Rng rng(6);
  msa::nn::Adam opt(1e-3);
  Tensor p1({4}), g1({4});
  std::vector<Tensor*> ps = {&p1}, gs = {&g1};
  opt.step(ps, gs);
  Tensor p2({4}), g2({4});
  ps.push_back(&p2);
  gs.push_back(&g2);
  EXPECT_THROW(opt.step(ps, gs), std::invalid_argument);
}

TEST(OptimizerEdge, WeightDecayShrinksWeights) {
  Tensor p = Tensor::full({4}, 1.0f);
  Tensor g = Tensor::zeros({4});
  msa::nn::Sgd opt(0.1, 0.0, /*weight_decay=*/0.5);
  std::vector<Tensor*> ps = {&p}, gs = {&g};
  opt.step(ps, gs);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(p[i], 0.95f, 1e-6f);
}

TEST(OptimizerEdge, NesterovDiffersFromPlainMomentum) {
  Rng rng(8);
  Tensor p1 = Tensor::full({3}, 1.0f), p2 = p1;
  Tensor g = Tensor::full({3}, 0.1f);
  msa::nn::Sgd plain(0.1, 0.9, 0.0, false);
  msa::nn::Sgd nesterov(0.1, 0.9, 0.0, true);
  std::vector<Tensor*> gs = {&g};
  std::vector<Tensor*> ps1 = {&p1}, ps2 = {&p2};
  for (int i = 0; i < 3; ++i) {
    plain.step(ps1, gs);
    nesterov.step(ps2, gs);
  }
  EXPECT_NE(p1[0], p2[0]);
  EXPECT_LT(p2[0], p1[0]);  // Nesterov looks ahead, moves further downhill
}

// Adam's element update as a plain scalar loop over one tensor: the
// reference for the library's sweeps, which must give the same bits.
void adam_reference(float* p, const float* g, float* m, float* v,
                    std::size_t n, float lr, float b1, float b2, float wd,
                    float eps) {
  for (std::size_t j = 0; j < n; ++j) {
    const float grad = g[j] + wd * p[j];
    m[j] = b1 * m[j] + (1.0f - b1) * grad;
    v[j] = b2 * v[j] + (1.0f - b2) * grad * grad;
    p[j] -= lr * m[j] / (std::sqrt(v[j]) + eps);
  }
}

TEST(Optimizer, AdamFlatMatchesScalarReference) {
  // step_flat over one slab and the list step() over per-tensor buffers
  // must both equal the scalar reference bit for bit, parameters and
  // moments, over sizes around the vector width and across the 2^14
  // element parallel chunk, with weight decay, for 1 and 8 pool threads.
  const std::vector<std::size_t> sizes = {1, 15, 17, 16384 + 3};
  std::size_t total = 0;
  for (const std::size_t s : sizes) total += s;
  constexpr double kLr = 1e-2, kB1 = 0.9, kB2 = 0.999, kEps = 1e-8, kWd = 0.05;
  constexpr int kSteps = 5;
  const std::size_t saved = msa::par::num_threads();
  for (const std::size_t threads : {1, 8}) {
    msa::par::set_num_threads(threads);
    Rng rng(31);
    const Tensor p0 = Tensor::randn({total}, rng);
    std::vector<Tensor> gs;
    for (int t = 0; t < kSteps; ++t) gs.push_back(Tensor::randn({total}, rng));

    // Reference: per element, with the step's bias-corrected rate.
    Tensor ref_p = p0;
    std::vector<float> ref_m(total, 0.0f), ref_v(total, 0.0f);
    for (int t = 1; t <= kSteps; ++t) {
      const double bc1 = 1.0 - std::pow(kB1, static_cast<double>(t));
      const double bc2 = 1.0 - std::pow(kB2, static_cast<double>(t));
      adam_reference(ref_p.data(), gs[t - 1].data(), ref_m.data(),
                     ref_v.data(), total,
                     static_cast<float>(kLr * std::sqrt(bc2) / bc1),
                     static_cast<float>(kB1), static_cast<float>(kB2),
                     static_cast<float>(kWd), static_cast<float>(kEps));
    }

    // Flat: one slab of parameters, one [m | v] state slab.
    Tensor flat_p = p0;
    std::vector<float> flat_state(2 * total, 0.0f);
    msa::nn::Adam flat(kLr, kB1, kB2, kEps, kWd);
    flat.materialize_state({&flat_p});
    for (int t = 0; t < kSteps; ++t) {
      Tensor g = gs[t];
      ASSERT_TRUE(flat.step_flat({flat_p.data(), total}, {g.data(), total},
                                 flat_state));
    }
    ASSERT_EQ(0, std::memcmp(flat_p.data(), ref_p.data(),
                             total * sizeof(float)))
        << "threads=" << threads;
    ASSERT_EQ(0, std::memcmp(flat_state.data(), ref_m.data(),
                             total * sizeof(float)));
    ASSERT_EQ(0, std::memcmp(flat_state.data() + total, ref_v.data(),
                             total * sizeof(float)));

    // List: one tensor per size, state in the optimizer's own tensors.
    std::vector<Tensor> ps, lgs;
    for (const std::size_t s : sizes) {
      ps.emplace_back(Tensor({s}));
      lgs.emplace_back(Tensor({s}));
    }
    std::vector<Tensor*> pptr, gptr;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      pptr.push_back(&ps[i]);
      gptr.push_back(&lgs[i]);
    }
    auto scatter = [&](const Tensor& from, std::vector<Tensor>& to) {
      std::size_t at = 0;
      for (Tensor& t : to) {
        std::memcpy(t.data(), from.data() + at, t.numel() * sizeof(float));
        at += t.numel();
      }
    };
    scatter(p0, ps);
    msa::nn::Adam list(kLr, kB1, kB2, kEps, kWd);
    for (int t = 0; t < kSteps; ++t) {
      scatter(gs[t], lgs);
      list.step(pptr, gptr);
    }
    const std::vector<Tensor*> state = list.state_tensors();
    ASSERT_EQ(state.size(), 2 * sizes.size());
    std::size_t at = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::size_t bytes = sizes[i] * sizeof(float);
      EXPECT_EQ(0, std::memcmp(ps[i].data(), ref_p.data() + at, bytes))
          << "threads=" << threads << " size=" << sizes[i];
      EXPECT_EQ(0, std::memcmp(state[i]->data(), ref_m.data() + at, bytes));
      EXPECT_EQ(0, std::memcmp(state[sizes.size() + i]->data(),
                               ref_v.data() + at, bytes));
      at += sizes[i];
    }
  }
  msa::par::set_num_threads(saved);
}

// ---- comm runtime reuse ----------------------------------------------------------

TEST(RuntimeEdge, MultipleRunsResetClocks) {
  MachineConfig cfg;
  Runtime rt(Machine::homogeneous(2, 1, cfg, ComputeProfile{}));
  rt.run([](Comm& comm) { comm.charge_seconds(1.0); });
  EXPECT_NEAR(rt.max_sim_time(), 1.0, 1e-12);
  rt.run([](Comm& comm) { comm.charge_seconds(0.25); });
  EXPECT_NEAR(rt.max_sim_time(), 0.25, 1e-12);  // reset, not accumulated
}

TEST(RuntimeEdge, SendToInvalidRankThrows) {
  MachineConfig cfg;
  Runtime rt(Machine::homogeneous(2, 1, cfg, ComputeProfile{}));
  // Both ranks hit the same bug; the runtime aggregates every rank's error
  // rather than reporting an arbitrary first one.
  try {
    rt.run([](Comm& comm) {
      const int v = 1;
      comm.send(std::span<const int>(&v, 1), 5, 0);
    });
    FAIL() << "expected AggregateRankError";
  } catch (const msa::comm::AggregateRankError& e) {
    EXPECT_EQ(e.rank_errors().size(), 2u);
    EXPECT_NE(std::string(e.what()).find("send: bad dest"), std::string::npos);
  }
}

TEST(RuntimeEdge, RecvSizeMismatchThrows) {
  MachineConfig cfg;
  Runtime rt(Machine::homogeneous(2, 1, cfg, ComputeProfile{}));
  // Rank 0 sends (non-blocking) and returns; rank 1's mismatched recv
  // throws, which must surface from run() after both threads finish.
  EXPECT_THROW(rt.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   const std::array<int, 3> v = {1, 2, 3};
                   comm.send(std::span<const int>(v), 1, 0);
                 } else {
                   std::array<int, 2> v{};  // wrong size
                   comm.recv(std::span<int>(v), 0, 0);
                 }
               }),
               std::runtime_error);
}

// ---- machine builder / datasets ----------------------------------------------------

TEST(BuilderEdge, RejectsEmptyAllocations) {
  const auto deep = msa::core::make_deep_est();
  EXPECT_THROW(msa::core::build_machine(deep, {}), std::invalid_argument);
}

TEST(DatasetEdge, BatchOfEmptyIndexList) {
  msa::data::MultispectralConfig cfg;
  cfg.samples = 4;
  cfg.patch = 4;
  auto ds = msa::data::make_multispectral(cfg);
  auto [x, y] = ds.batch({});
  EXPECT_EQ(x.dim(0), 0u);
  EXPECT_TRUE(y.empty());
}

TEST(DatasetEdge, IcuRequiresTwoFeatures) {
  msa::data::IcuConfig cfg;
  cfg.features = 1;
  EXPECT_THROW(msa::data::make_icu_timeseries(cfg), std::invalid_argument);
}

}  // namespace
