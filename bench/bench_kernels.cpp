// Microbenchmarks (google-benchmark) for the computational kernels under
// everything else: GEMM, im2col convolution, GRU steps, the message-passing
// collectives (real wall time), the fp16 wire codec, SMO iterations,
// annealer sweeps and weight-init normal sampling.
//
// These are host-wall-time numbers (not the simulated clock) — they justify
// the per-step costs the examples/benches pay and catch kernel regressions.
// Every benchmark whose work runs on pool or rank threads sets
// UseRealTime(), so its kIsRate counters divide by wall time, not by the
// main thread's CPU time.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "comm/runtime.hpp"
#include "data/synthetic.hpp"
#include "dist/compression.hpp"
#include "ml/svm.hpp"
#include "nn/conv.hpp"
#include "nn/gru.hpp"
#include "nn/optimizer.hpp"
#include "quantum/qubo.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace msa;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(false, false, 1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// Products of at most 8 rows against a weight matrix: serving batches and
// pipeline microbatches through nn::Dense.  tB = 1 is the G * W^T shape of
// Dense::backward (B stored n x k).
void BM_GemmSkinny(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const bool trans_b = state.range(3) != 0;
  tensor::Rng rng(13);
  tensor::Tensor a = tensor::Tensor::randn({m, k}, rng);
  tensor::Tensor b = trans_b ? tensor::Tensor::randn({n, k}, rng)
                             : tensor::Tensor::randn({k, n}, rng);
  tensor::Tensor c({m, n});
  for (auto _ : state) {
    tensor::gemm(false, trans_b, 1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(m, n, k) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmSkinny)
    ->ArgNames({"m", "n", "k", "tB"})
    ->Args({4, 768, 768, 0})
    ->Args({4, 768, 768, 1})
    ->Args({4, 64, 768, 1})
    ->Args({8, 256, 512, 1})
    ->Args({8, 256, 512, 0})
    ->Args({8, 512, 64, 0})
    ->Args({1, 256, 512, 0})
    ->UseRealTime();

// Conv2D shapes as (in_ch, out_ch, hw, B), 3x3 kernel, stride 1, pad 1:
// 8->16 at 16x16, B=4, plus make_resnet_rs stage 0 (16->16 at 16x16) and
// stage 2 (64->64 at 4x4) at dp_resnet's microbatch of 8.  Only stage 2
// groups samples (16 columns per sample under a 256-column cap).
void conv_shapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"in", "out", "hw", "B"});
  b->Args({8, 16, 16, 4})->Args({16, 16, 16, 8})->Args({64, 64, 4, 8});
}

struct ConvBench {
  explicit ConvBench(const benchmark::State& state, std::uint64_t seed)
      : rng(seed),
        in(static_cast<std::size_t>(state.range(0))),
        out(static_cast<std::size_t>(state.range(1))),
        hw(static_cast<std::size_t>(state.range(2))),
        batch(static_cast<std::size_t>(state.range(3))),
        conv(in, out, 3, 1, 1, rng),
        x(tensor::Tensor::randn({batch, in, hw, hw}, rng)) {}

  // Forward GEMM flops of one call.
  [[nodiscard]] double flops() const {
    return static_cast<double>(batch) *
           tensor::gemm_flops(out, hw * hw, in * 9);
  }

  tensor::Rng rng;
  std::size_t in, out, hw, batch;
  nn::Conv2D conv;
  tensor::Tensor x;
};

void BM_Conv2DForward(benchmark::State& state) {
  ConvBench cb(state, 2);
  for (auto _ : state) {
    auto y = cb.conv.forward(cb.x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      cb.flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2DForward)->Apply(conv_shapes)->UseRealTime();

void BM_Conv2DBackward(benchmark::State& state) {
  ConvBench cb(state, 3);
  auto y = cb.conv.forward(cb.x, true);
  tensor::Tensor g = tensor::Tensor::randn(y.shape(), cb.rng);
  for (auto _ : state) {
    auto gx = cb.conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
  // Weight- and input-gradient GEMMs: twice the forward flops.
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * cb.flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2DBackward)->Apply(conv_shapes)->UseRealTime();

void BM_GruForwardBackward(benchmark::State& state) {
  tensor::Rng rng(4);
  nn::GRU gru(6, 32, rng);
  tensor::Tensor x = tensor::Tensor::randn({16, 24, 6}, rng);
  for (auto _ : state) {
    auto y = gru.forward(x, true);
    auto gx = gru.backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_GruForwardBackward)->UseRealTime();

void BM_AllreduceWallTime(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t elems = 1 << 16;
  simnet::MachineConfig cfg;
  comm::Runtime rt(
      simnet::Machine::homogeneous(ranks, 2, cfg, simnet::ComputeProfile{}));
  for (auto _ : state) {
    rt.run([&](comm::Comm& comm) {
      std::vector<float> data(elems, 1.0f);
      comm.allreduce(std::span<float>(data), comm::ReduceOp::Sum,
                     simnet::CollectiveAlgorithm::Ring);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(elems) * 4 * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AllreduceWallTime)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// fp16 gradient compression round trip: pack 2^20 floats to the wire format,
// then unpack with the 1/world averaging folded in (the reducer's hot path).
void BM_HalfEncodeDecode(benchmark::State& state) {
  const std::size_t elems = 1 << 20;
  tensor::Rng rng(7);
  std::vector<float> grads(elems);
  for (float& g : grads) g = static_cast<float>(rng.normal()) * 1e-3f;
  std::vector<dist::Half> wire(elems);
  std::vector<float> out(elems);
  for (auto _ : state) {
    dist::encode_half(grads, wire);
    dist::decode_half(wire, 0.25f, out);
    benchmark::DoNotOptimize(out.data());
  }
  // Bytes touched per round trip: read fp32, write fp16, read fp16, write fp32.
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(elems) * 12 * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HalfEncodeDecode);

// Ring allreduce of 2^16 fp16 elements across rank threads: the wire type of
// compressed gradient reduction, so each hop's combine runs the codec.
void BM_AllreduceHalfWallTime(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t elems = 1 << 16;
  simnet::MachineConfig cfg;
  comm::Runtime rt(
      simnet::Machine::homogeneous(ranks, 2, cfg, simnet::ComputeProfile{}));
  for (auto _ : state) {
    rt.run([&](comm::Comm& comm) {
      std::vector<dist::Half> data(elems, dist::Half(1.0f));
      comm.allreduce(std::span<dist::Half>(data), comm::ReduceOp::Sum,
                     simnet::CollectiveAlgorithm::Ring);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(elems) * 2 * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AllreduceHalfWallTime)->Arg(2)->Arg(4)->UseRealTime();

void BM_SmoTraining(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto problem = data::make_moons(n, 0.12, 9);
  ml::SvmConfig cfg;
  cfg.kernel = {ml::KernelKind::Rbf, 2.0};
  cfg.max_iterations = 500;
  for (auto _ : state) {
    auto model = ml::train_svm(problem, cfg);
    benchmark::DoNotOptimize(model.bias());
  }
}
BENCHMARK(BM_SmoTraining)->Arg(100)->Arg(200)->Arg(400);

void BM_AnnealerSweeps(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(10);
  quantum::Qubo q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q.add_linear(i, rng.normal());
    for (std::size_t j = i + 1; j < n; ++j) {
      q.add_quadratic(i, j, rng.normal() * 0.1);
    }
  }
  quantum::AnnealConfig cfg;
  cfg.reads = 4;
  cfg.sweeps = 50;
  for (auto _ : state) {
    auto samples = quantum::simulated_anneal(q, cfg);
    benchmark::DoNotOptimize(samples.front().energy);
  }
}
BENCHMARK(BM_AnnealerSweeps)->Arg(32)->Arg(64)->Arg(128);

void BM_Transpose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(12);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    auto t = tensor::transpose(a);
    benchmark::DoNotOptimize(t.data());
  }
  state.counters["GB/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) * sizeof(float) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Transpose)->Arg(256)->Arg(1024)->UseRealTime();

void BM_Im2Col(benchmark::State& state) {
  tensor::Rng rng(11);
  tensor::Tensor x = tensor::Tensor::randn({8, 32, 32}, rng);
  std::vector<float> cols(8 * 9 * 32 * 32);
  for (auto _ : state) {
    tensor::im2col(x.data(), 8, 32, 32, 3, 3, 1, 1, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col)->UseRealTime();

// Weight init: Rng::fill_normal (what Tensor::randn calls) against the
// scalar Rng::normal loop it replaced, which gives the same floats.  Arg 0
// is the element count (the serve MLP's 512 x 256 layer; 2^20), arg 1
// selects bulk (1) or scalar (0).
void BM_Randn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool bulk = state.range(1) != 0;
  tensor::Rng rng(7);
  std::vector<float> w(n);
  const float stddev = std::sqrt(2.0f / static_cast<float>(state.range(0)));
  for (auto _ : state) {
    if (bulk) {
      rng.fill_normal(w, stddev);
    } else {
      for (float& v : w) v = static_cast<float>(rng.normal()) * stddev;
    }
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.counters["items/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Randn)
    ->Args({512 * 256, 0})
    ->Args({512 * 256, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

// One Adam step over a 640k-parameter slab through step_flat, the path
// ParamStore takes: about one hybrid_pp pipeline stage (64 -> 768 -> 768).
void BM_AdamStep(benchmark::State& state) {
  constexpr std::size_t n = 640'000;
  tensor::Rng rng(17);
  tensor::Tensor p = tensor::Tensor::randn({n}, rng, 0.1f);
  tensor::Tensor g = tensor::Tensor::randn({n}, rng, 0.01f);
  std::vector<float> moments(2 * n, 0.0f);
  nn::Adam adam(1e-3, 0.9, 0.999, 1e-8, 1e-4);
  adam.materialize_state({&p});
  for (auto _ : state) {
    adam.step_flat({p.data(), n}, {g.data(), n}, moments);
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
  state.counters["items/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AdamStep)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
