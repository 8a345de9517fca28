// Quickstart: train a small classifier data-parallel on 4 simulated JUWELS
// Booster GPUs, Horovod-style.
//
//   1. describe the machine      (core:: hardware catalogue -> simnet machine)
//   2. launch SPMD ranks         (comm::Runtime, one thread per GPU)
//   3. shard the data            (dist::ShardedSampler)
//   4. train with allreduce      (dist::DistributedTrainer)
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "dist/distributed.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"

int main() {
  using namespace msa;

  // The JUWELS system of paper Sec. II-B; we borrow 4 Booster GPUs (A100).
  const core::MsaSystem juwels = core::make_juwels();
  const core::Module& booster = juwels.module(core::ModuleKind::Booster);
  const int gpus = 4;
  comm::Runtime runtime(core::build_machine(juwels, booster, gpus));

  // A small multispectral land-cover problem (BigEarthNet stand-in).
  const data::ImageDataset dataset = data::make_multispectral(
      {.samples = 256, .bands = 4, .patch = 8, .classes = 4, .seed = 7});

  std::printf("== msalib quickstart: %d-GPU data-parallel training on %s ==\n",
              gpus, booster.node.name.c_str());

  runtime.run([&](comm::Comm& comm) {
    tensor::Rng rng(1);  // same seed -> identical initial replicas
    auto model = nn::make_mlp(4 * 8 * 8, {64}, 4, rng);

    nn::Sgd opt(0.02, 0.9);
    dist::DistributedTrainer trainer(comm, *model, opt);
    dist::broadcast_parameters(comm, trainer.param_store());
    dist::ShardedSampler sampler(dataset.size(), comm.rank(), comm.size());

    const std::size_t batch = 8;
    for (std::size_t epoch = 0; epoch < 5; ++epoch) {
      const auto indices = sampler.epoch_indices(epoch);
      double loss_sum = 0.0, acc_sum = 0.0;
      std::size_t steps = 0;
      for (std::size_t at = 0; at + batch <= indices.size(); at += batch) {
        std::vector<std::size_t> rows(indices.begin() + static_cast<std::ptrdiff_t>(at),
                                      indices.begin() + static_cast<std::ptrdiff_t>(at + batch));
        auto [x, y] = dataset.batch(rows);
        x.reshape({batch, 4 * 8 * 8});  // MLP wants flat features
        const auto res = trainer.step_classification(x, y);
        loss_sum += res.loss;
        acc_sum += res.accuracy;
        ++steps;
      }
      const double loss = trainer.average_metric(loss_sum / steps);
      const double acc = trainer.average_metric(acc_sum / steps);
      if (comm.rank() == 0) {
        std::printf("epoch %zu  loss %.4f  accuracy %.3f  (modelled t=%.3f ms)\n",
                    epoch, loss, acc, comm.sim_now() * 1e3);
      }
    }
  });

  std::printf("modelled makespan on %d A100s: %.3f ms; gradient traffic: %.2f MB/rank\n",
              gpus, runtime.max_sim_time() * 1e3,
              static_cast<double>(runtime.bytes_sent()[0]) / 1e6);
  std::printf("done.\n");
  return 0;
}
