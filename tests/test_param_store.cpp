// Tests for nn::ParamStore: slab relocation, aliasing invariants, flat
// optimizer steps, slab-ranged allreduce and ZeRO steps against serial
// oracles, and slab checkpoint round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/distributed.hpp"
#include "dist/zero.hpp"
#include "nn/layers_basic.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"
#include "nn/serialize.hpp"
#include "simnet/machine.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::Runtime;
using msa::dist::AllreduceOptions;
using msa::nn::ParamStore;
using msa::nn::Sequential;
using msa::nn::Tensor;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;

MachineConfig test_config() {
  MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  return cfg;
}

/// Model whose parameter tensors have odd sizes (3*7+7 = 28, 7*5+5 = 40, ...)
/// so slab ranges straddle small allreduce bucket boundaries.
std::unique_ptr<Sequential> odd_model(unsigned seed) {
  Rng rng(seed);
  return msa::nn::make_mlp(3, {7, 5}, 2, rng);
}

// ---- relocation & aliasing ---------------------------------------------------

TEST(ParamStore, RelocationPreservesValuesAndAliases) {
  auto model = odd_model(11);
  // Snapshot pre-relocation values in registration order.
  std::vector<float> before;
  for (Tensor* p : model->params()) {
    before.insert(before.end(), p->data(), p->data() + p->numel());
  }

  ParamStore store(*model);
  ASSERT_EQ(store.size(), before.size());

  // Values survived the move and the slab is their concatenation.
  auto slab = store.param_span();
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(slab[i], before[i]) << i;
  }

  // Every layer tensor is now a view into the store's slab, laid out at the
  // recorded ranges, and the cached pointer list matches a fresh walk.
  auto fresh = model->params();
  ASSERT_EQ(fresh.size(), store.params().size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], store.params()[i]);
    EXPECT_TRUE(fresh[i]->is_view());
    EXPECT_EQ(fresh[i]->storage(), store.param_storage());
    EXPECT_EQ(fresh[i]->storage_offset(), store.ranges()[i].offset);
    EXPECT_EQ(at, store.ranges()[i].offset);
    at += fresh[i]->numel();
  }
  EXPECT_EQ(at, store.size());

  // Writing through the slab is visible in the layer tensor and vice versa.
  slab[0] = 42.0f;
  EXPECT_EQ((*fresh[0])[0], 42.0f);
  (*fresh[0])[1] = -3.0f;
  EXPECT_EQ(slab[1], -3.0f);
}

TEST(ParamStore, ZeroGradsClearsEveryGradient) {
  auto model = odd_model(12);
  ParamStore store(*model);
  for (std::size_t i = 0; i < store.size(); ++i) {
    store.grad_span()[i] = static_cast<float>(i) + 1.0f;
  }
  store.zero_grads();
  for (Tensor* g : model->grads()) {
    for (std::size_t j = 0; j < g->numel(); ++j) ASSERT_EQ((*g)[j], 0.0f);
  }
}

TEST(ParamStore, ForwardBackwardUnchangedByRelocation) {
  // The same model, same input: relocation must not perturb a single bit of
  // forward or backward results.
  auto plain = odd_model(13);
  auto stored = odd_model(13);
  ParamStore store(*stored);

  Rng rng(99);
  Tensor x = Tensor::randn({4, 3}, rng);
  std::vector<std::int32_t> y = {0, 1, 1, 0};

  plain->zero_grads();
  store.zero_grads();
  auto ra = msa::nn::softmax_cross_entropy(plain->forward(x, true), y);
  auto rb = msa::nn::softmax_cross_entropy(stored->forward(x, true), y);
  EXPECT_EQ(ra.loss, rb.loss);
  plain->backward(ra.grad);
  stored->backward(rb.grad);

  auto ga = plain->grads();
  auto gb = stored->grads();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    for (std::size_t j = 0; j < ga[i]->numel(); ++j) {
      ASSERT_EQ((*ga[i])[j], (*gb[i])[j]) << i << "," << j;
    }
  }
}

// ---- flat optimizer steps ----------------------------------------------------

/// Runs @p steps identical training steps on two copies of the same model,
/// one through the per-tensor optimizer path and one through the attached
/// flat-slab path, and asserts bit-identical parameters afterwards.
template <typename Opt, typename... Args>
void expect_flat_step_matches_list(int steps, Args... args) {
  auto list_model = odd_model(21);
  Opt list_opt(args...);

  auto slab_model = odd_model(21);
  ParamStore store(*slab_model);
  Opt slab_opt(args...);
  store.attach_optimizer(slab_opt);

  Rng rng(55);
  for (int s = 0; s < steps; ++s) {
    Tensor x = Tensor::randn({4, 3}, rng);
    std::vector<std::int32_t> y = {1, 0, 1, 1};

    list_model->zero_grads();
    auto ra = msa::nn::softmax_cross_entropy(list_model->forward(x, true), y);
    list_model->backward(ra.grad);
    list_opt.step(list_model->params(), list_model->grads());

    store.zero_grads();
    auto rb = msa::nn::softmax_cross_entropy(slab_model->forward(x, true), y);
    slab_model->backward(rb.grad);
    store.step(slab_opt);
  }

  auto pa = list_model->params();
  auto pb = slab_model->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->numel(); ++j) {
      ASSERT_EQ((*pa[i])[j], (*pb[i])[j]) << i << "," << j;
    }
  }
}

TEST(ParamStore, FlatSgdMatchesListPath) {
  expect_flat_step_matches_list<msa::nn::Sgd>(4, 0.1, 0.9, 1e-4, false);
}

TEST(ParamStore, FlatNesterovSgdMatchesListPath) {
  expect_flat_step_matches_list<msa::nn::Sgd>(4, 0.1, 0.9, 0.0, true);
}

TEST(ParamStore, FlatAdamMatchesListPath) {
  expect_flat_step_matches_list<msa::nn::Adam>(4, 1e-2);
}

TEST(ParamStore, AdamStateSlabIsPositional) {
  // Adam's opt slab is [all m | all v]: element j of each half corresponds
  // to element j of the parameter slab.
  auto model = odd_model(22);
  ParamStore store(*model);
  msa::nn::Adam opt(1e-2);
  store.attach_optimizer(opt);
  ASSERT_EQ(store.opt_span().size(), 2 * store.size());

  for (std::size_t i = 0; i < store.size(); ++i) {
    store.grad_span()[i] = 1.0f;  // uniform gradient
  }
  store.step(opt);
  // Uniform gradient -> uniform m and v across the whole slab.
  auto s = store.opt_span();
  for (std::size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(s[i], s[0]) << "m at " << i;
    ASSERT_EQ(s[store.size() + i], s[store.size()]) << "v at " << i;
  }
}

// ---- Sequential::release_layer (regression) ----------------------------------

TEST(Sequential, ReleaseLayerErasesSlot) {
  Rng rng(31);
  auto model = std::make_unique<Sequential>();
  model->emplace<msa::nn::Dense>(4, 8, rng);
  model->emplace<msa::nn::ReLU>();
  model->emplace<msa::nn::Dense>(8, 2, rng);
  ASSERT_EQ(model->size(), 3u);

  auto taken = model->release_layer(0);
  ASSERT_NE(taken, nullptr);
  // The slot is erased, not left null: size shrinks and the remaining
  // layers shift down.
  ASSERT_EQ(model->size(), 2u);

  // params()/grads()/forward on the donor must not dereference a null slot.
  auto ps = model->params();
  for (Tensor* p : ps) ASSERT_NE(p, nullptr);
  Tensor h = Tensor::randn({2, 8}, rng);
  Tensor out = model->forward(h, false);
  EXPECT_EQ(out.dim(1), 2u);

  // And a ParamStore over the post-release donor walks only live layers.
  ParamStore store(*model);
  EXPECT_EQ(store.params().size(), ps.size());
}

// ---- slab allreduce and ZeRO vs serial oracles -------------------------------

/// Fills the model's gradients with a rank-dependent pattern: a pure
/// function of (rank, element index), so every rank can recompute every
/// other rank's contribution.
void fill_grads(msa::nn::Layer& model, int rank) {
  float v = 0.01f * static_cast<float>(rank + 1);
  for (Tensor* g : model.grads()) {
    for (std::size_t j = 0; j < g->numel(); ++j) {
      (*g)[j] = v;
      v += 0.003f * static_cast<float>(rank + 2);
    }
  }
}

/// Serial oracle: the exact mean of fill_grads over ranks [0, P) per slab
/// element, in double, and the sum of magnitudes that bounds the rounding.
struct GradMean {
  std::vector<double> mean;
  std::vector<double> abs_sum;
};

GradMean serial_grad_mean(int P) {
  GradMean out;
  for (int r = 0; r < P; ++r) {
    auto model = odd_model(41);
    ParamStore store(*model);
    fill_grads(*model, r);
    const auto g = store.grad_span();
    out.mean.resize(g.size(), 0.0);
    out.abs_sum.resize(g.size(), 0.0);
    for (std::size_t i = 0; i < g.size(); ++i) {
      out.mean[i] += g[i];
      out.abs_sum[i] += std::fabs(g[i]);
    }
  }
  for (double& m : out.mean) m /= P;
  return out;
}

void expect_slab_allreduce_matches_serial_mean(bool fp16) {
  constexpr int P = 4;
  const GradMean ref = serial_grad_mean(P);
  std::vector<std::vector<float>> slabs(P);
  Runtime rt(Machine::homogeneous(P, 1, test_config(), ComputeProfile{}));
  rt.run([&](Comm& comm) {
    auto model = odd_model(41);
    ParamStore store(*model);
    fill_grads(*model, comm.rank());

    AllreduceOptions opts;
    // 13 floats per bucket: every parameter tensor of the odd-sized MLP
    // (28, 7, 40, ...) straddles at least one bucket boundary.
    opts.bucket_bytes = 13 * sizeof(float);
    opts.fp16_compression = fp16;
    msa::dist::allreduce_gradients(comm, store, opts);

    const auto g = store.grad_span();
    slabs[static_cast<std::size_t>(comm.rank())].assign(g.begin(), g.end());
  });

  // Every rank holds the same slab, bit for bit.
  for (int r = 1; r < P; ++r) {
    const auto& a = slabs[0];
    const auto& b = slabs[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "rank " << r << " fp16=" << fp16;
  }
  // Each element is the mean within the format's rounding: unit roundoff u
  // per encode and per partial sum over P contributions.
  const double u = fp16 ? 0x1.0p-11 : 0x1.0p-24;
  ASSERT_EQ(slabs[0].size(), ref.mean.size());
  for (std::size_t i = 0; i < ref.mean.size(); ++i) {
    ASSERT_NEAR(slabs[0][i], ref.mean[i], (P + 1) * u * ref.abs_sum[i] / P)
        << "elem " << i << " fp16=" << fp16;
  }
}

TEST(DistSlab, AllreduceMatchesSerialMeanFp32) {
  expect_slab_allreduce_matches_serial_mean(false);
}

TEST(DistSlab, AllreduceMatchesSerialMeanFp16) {
  expect_slab_allreduce_matches_serial_mean(true);
}

TEST(DistSlab, ReducerAveragesOverCommShrunkInPlace) {
  // Recovery reassigns a trainer's communicator in place (Comm::shrink), so
  // a live GradientReducer must average over the communicator it sees now,
  // in both forms and both wire types.  Halves {0,1} and {2,3} sum exact
  // small integers, so the means 1.5 / 3.5 are exact in fp32 and fp16.
  Runtime rt(Machine::homogeneous(4, 2, test_config(), ComputeProfile{}));
  rt.run([](Comm& world) {
    for (const bool fp16 : {false, true}) {
      Comm comm = world;
      auto model = odd_model(41);
      ParamStore store(*model);
      AllreduceOptions opts;
      opts.bucket_bytes = 13 * sizeof(float);
      opts.fp16_compression = fp16;
      msa::dist::GradientReducer reducer(comm, store, opts);
      comm = world.split(world.rank() / 2, world.rank());
      const float expect = world.rank() < 2 ? 1.5f : 3.5f;
      for (const bool overlapped : {false, true}) {
        const auto g = store.grad_span();
        std::fill(g.begin(), g.end(), static_cast<float>(world.rank() + 1));
        if (overlapped) {
          reducer.begin_step();
          reducer.finish();  // launches every bucket, drains, decodes
        } else {
          reducer.reduce();
        }
        for (float v : g) {
          ASSERT_EQ(v, expect) << "fp16=" << fp16 << " overlap=" << overlapped;
        }
      }
      // Down to one survivor the blocking form leaves gradients untouched
      // (no fp16 round trip either).
      comm = world.split(world.rank(), 0);
      const auto g = store.grad_span();
      std::fill(g.begin(), g.end(), 0.1f);
      reducer.reduce();
      for (float v : g) ASSERT_EQ(v, 0.1f) << "fp16=" << fp16;
    }
  });
}

TEST(DistSlab, BroadcastSlabMakesReplicasIdentical) {
  Runtime rt(Machine::homogeneous(4, 2, test_config(), ComputeProfile{}));
  rt.run([](Comm& comm) {
    auto model = odd_model(50u + static_cast<unsigned>(comm.rank()));
    ParamStore store(*model);
    msa::dist::broadcast_parameters(comm, store);
    float sum = 0.0f;
    for (Tensor* p : model->params()) sum += p->sum();
    auto all = comm.allgather(std::span<const float>(&sum, 1));
    for (float v : all) EXPECT_EQ(v, all[0]);
  });
}

TEST(DistSlab, ZeroStepMatchesAllreducePlusAdam) {
  // ZeRO's sharded update (reduce-scatter, Adam on the 1/P shard,
  // allgather) must match a slab allreduce followed by unsharded Adam.
  constexpr int P = 3;  // does not divide the odd parameter count -> padding
  Runtime rt(Machine::homogeneous(P, 1, test_config(), ComputeProfile{}));
  rt.run([](Comm& comm) {
    auto zero_model = odd_model(45);
    ParamStore zero_store(*zero_model);
    msa::dist::ZeroOptimizer zero_opt(
        comm, std::make_unique<msa::nn::Adam>(1e-2));

    auto ref_model = odd_model(45);
    ParamStore ref_store(*ref_model);
    msa::nn::Adam ref_opt(1e-2);
    ref_store.attach_optimizer(ref_opt);

    for (int s = 0; s < 3; ++s) {
      fill_grads(*zero_model, comm.rank() + 10 * s);
      fill_grads(*ref_model, comm.rank() + 10 * s);
      zero_opt.step(zero_store);
      msa::dist::allreduce_gradients(comm, ref_store);
      ref_store.step(ref_opt);
    }
    ASSERT_NE(zero_opt.padded_elements(), zero_store.size());  // padded path

    const auto a = zero_store.param_span();
    const auto b = ref_store.param_span();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Reduce-scatter and allreduce may sum in different orders.
      ASSERT_NEAR(a[i], b[i], 1e-6f) << i;
    }
  });
}

// ---- slab checkpoint round-trip ----------------------------------------------

class ParamStoreCkptTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::filesystem::remove(prefix_ + ".params.bin");
    std::filesystem::remove(prefix_ + ".optstate.bin");
  }
  std::string prefix_ = "/tmp/msalib_param_store_ckpt";
};

/// Trains @p steps steps through the store, checkpoints, restores into a
/// freshly-initialised model/optimizer pair, and asserts that parameters,
/// optimizer tensor state, and scalar state are all bit-exact.
template <typename Opt, typename... Args>
void roundtrip_checkpoint(const std::string& prefix, Args... args) {
  auto model = odd_model(61);
  ParamStore store(*model);
  Opt opt(args...);
  store.attach_optimizer(opt);

  Rng rng(62);
  for (int s = 0; s < 3; ++s) {
    Tensor x = Tensor::randn({4, 3}, rng);
    std::vector<std::int32_t> y = {0, 1, 0, 1};
    store.zero_grads();
    auto res = msa::nn::softmax_cross_entropy(model->forward(x, true), y);
    model->backward(res.grad);
    store.step(opt);
  }
  const auto ckpt = msa::nn::save_checkpoint(prefix, store, opt);

  // Different init — every byte must come from the restore.
  auto resumed = odd_model(999);
  ParamStore rstore(*resumed);
  Opt ropt(args...);
  rstore.attach_optimizer(ropt);
  msa::nn::load_checkpoint(ckpt, rstore, ropt);

  // Weights bit-exact.
  ASSERT_EQ(rstore.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(rstore.param_span()[i], store.param_span()[i]) << i;
  }
  // Optimizer tensor state bit-exact.
  ASSERT_EQ(rstore.opt_span().size(), store.opt_span().size());
  for (std::size_t i = 0; i < store.opt_span().size(); ++i) {
    ASSERT_EQ(rstore.opt_span()[i], store.opt_span()[i]) << i;
  }
  // Scalar state (e.g. Adam's step counter) bit-exact.
  EXPECT_EQ(ropt.scalar_state(), opt.scalar_state());

  // And the two continue identically.
  Tensor x = Tensor::randn({4, 3}, rng);
  std::vector<std::int32_t> y = {1, 1, 0, 0};
  store.zero_grads();
  auto ra = msa::nn::softmax_cross_entropy(model->forward(x, true), y);
  model->backward(ra.grad);
  store.step(opt);
  rstore.zero_grads();
  auto rb = msa::nn::softmax_cross_entropy(resumed->forward(x, true), y);
  resumed->backward(rb.grad);
  rstore.step(ropt);
  for (std::size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(rstore.param_span()[i], store.param_span()[i]) << i;
  }
}

TEST_F(ParamStoreCkptTest, AdamRoundTripBitExact) {
  roundtrip_checkpoint<msa::nn::Adam>(prefix_, 1e-2);
}

TEST_F(ParamStoreCkptTest, MomentumSgdRoundTripBitExact) {
  roundtrip_checkpoint<msa::nn::Sgd>(prefix_, 0.1, 0.9);
}

TEST_F(ParamStoreCkptTest, LoadRejectsSizeMismatch) {
  auto model = odd_model(71);
  ParamStore store(*model);
  msa::nn::save_parameters(prefix_ + ".params.bin", store);

  Rng rng(72);
  auto other = msa::nn::make_mlp(3, {9, 5}, 2, rng);  // different layout
  ParamStore other_store(*other);
  EXPECT_THROW(
      msa::nn::load_parameters(prefix_ + ".params.bin", other_store),
      std::runtime_error);
}

TEST_F(ParamStoreCkptTest, CheckpointRequiresAttachedOptimizer) {
  auto model = odd_model(73);
  ParamStore store(*model);
  msa::nn::Adam opt(1e-2);  // never attached
  EXPECT_THROW((void)msa::nn::save_checkpoint(prefix_, store, opt),
               std::runtime_error);
}

}  // namespace
