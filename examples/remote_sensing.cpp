// Remote-sensing case study (paper Sec. III): distributed training of a
// residual CNN for multi-class land-cover classification on a BigEarthNet
// stand-in, using the Horovod recipe — LR linear scaling + warmup — on
// simulated JUWELS Booster GPUs.
//
// Prints per-epoch loss/accuracy and the modelled time, then evaluates on a
// held-out set to show the paper's key observation: distributed training
// cuts time-to-train without losing accuracy.
#include <cstdio>
#include <cstdlib>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "dist/distributed.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"

int main(int argc, char** argv) {
  using namespace msa;
  const int gpus = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::size_t epochs = 4;
  const std::size_t microbatch = 8;

  const core::MsaSystem juwels = core::make_juwels();
  const core::Module& booster = juwels.module(core::ModuleKind::Booster);
  comm::Runtime runtime(core::build_machine(juwels, booster, gpus));

  data::MultispectralConfig dcfg;
  dcfg.samples = 512;
  dcfg.bands = 4;
  dcfg.patch = 12;
  dcfg.classes = 5;
  const auto train_set = data::make_multispectral(dcfg);
  dcfg.samples = 200;
  dcfg.seed = 999;
  const auto test_set = data::make_multispectral(dcfg);

  std::printf("== land-cover classification: ResNet-lite on %d x %s ==\n",
              gpus, booster.node.gpu->name.c_str());

  runtime.run([&](comm::Comm& comm) {
    tensor::Rng rng(3);
    auto model = nn::make_resnet(dcfg.bands, dcfg.classes, {8, 16}, 1, rng);
    if (comm.rank() == 0) {
      std::printf("model parameters: %zu\n", nn::parameter_count(*model));
    }

    // The large-batch recipe: base LR scaled by worker count with warmup.
    nn::LargeBatchSchedule schedule(0.02, comm.size(), /*warmup_steps=*/12);
    nn::Sgd opt(schedule.lr(0), 0.9);
    dist::AllreduceOptions aropts;
    aropts.fp16_compression = true;  // Horovod-style compression
    dist::DistributedTrainer trainer(comm, *model, opt, aropts);
    dist::broadcast_parameters(comm, trainer.param_store());
    dist::ShardedSampler sampler(train_set.size(), comm.rank(), comm.size());

    std::size_t step = 0;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      const auto indices = sampler.epoch_indices(epoch);
      double loss_sum = 0.0, acc_sum = 0.0;
      std::size_t steps = 0;
      for (std::size_t at = 0; at + microbatch <= indices.size();
           at += microbatch) {
        opt.set_lr(schedule.lr(step++));
        std::vector<std::size_t> rows(
            indices.begin() + static_cast<std::ptrdiff_t>(at),
            indices.begin() + static_cast<std::ptrdiff_t>(at + microbatch));
        auto [x, y] = train_set.batch(rows);
        const auto res = trainer.step_classification(x, y);
        loss_sum += res.loss;
        acc_sum += res.accuracy;
        ++steps;
      }
      const double loss = trainer.average_metric(loss_sum / steps);
      const double acc = trainer.average_metric(acc_sum / steps);
      if (comm.rank() == 0) {
        std::printf(
            "epoch %zu  train-loss %.4f  train-acc %.3f  lr %.4f  "
            "modelled t %.2f ms\n",
            epoch, loss, acc, opt.lr(), comm.sim_now() * 1e3);
      }
    }

    // Held-out evaluation on rank 0 (the paper's accuracy-retention check).
    if (comm.rank() == 0) {
      std::vector<std::size_t> all(test_set.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      auto [x, y] = test_set.batch(all);
      const auto logits = model->forward(x, /*training=*/false);
      std::printf("held-out accuracy: %.3f (chance level %.3f)\n",
                  nn::accuracy(logits, y), 1.0 / dcfg.classes);
    }
  });

  std::printf("modelled time-to-train on %d GPUs: %.2f ms\n", gpus,
              runtime.max_sim_time() * 1e3);
  return 0;
}
