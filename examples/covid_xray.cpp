// Health case study (paper Sec. IV-A): COVID-19 chest X-ray analysis.
//
// Trains a COVID-Net-style CNN on synthetic CXR images (3 classes: normal /
// pneumonia / COVID-19) and reproduces the section's hardware observation:
// "Given that JUWELS is equipped with A100 GPUs ... the inference and
// training time of the Covid-Net model is significantly faster as with GPUs
// of the previous generation given its tensor cores."  The same training run
// is priced on a V100 module (DEEP DAM) and an A100 module (JUWELS Booster).
#include <cstdio>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "dist/distributed.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"

int main() {
  using namespace msa;

  data::CxrConfig dcfg;
  dcfg.samples = 240;
  dcfg.size = 20;
  const auto train_set = data::make_cxr(dcfg);
  dcfg.samples = 120;
  dcfg.seed = 42;
  const auto test_set = data::make_cxr(dcfg);

  const core::MsaSystem deep = core::make_deep_est();
  const core::MsaSystem juwels = core::make_juwels();

  struct Venue {
    const char* label;
    const core::MsaSystem* system;
    core::ModuleKind module;
  };
  const Venue venues[] = {
      {"DEEP DAM (V100)", &deep, core::ModuleKind::DataAnalytics},
      {"JUWELS Booster (A100)", &juwels, core::ModuleKind::Booster},
  };

  std::printf("== COVID-Net-lite CXR classification (Sec. IV-A) ==\n");
  std::printf("%zu train / %zu test images, 3 classes\n\n", train_set.size(),
              test_set.size());

  double times[2] = {0.0, 0.0};
  for (int v = 0; v < 2; ++v) {
    const auto& venue = venues[v];
    const core::Module& module = venue.system->module(venue.module);
    const int gpus = 2;
    comm::Runtime runtime(
        core::build_machine(*venue.system, module, gpus, /*tensor=*/true));

    double final_acc = 0.0;
    runtime.run([&](comm::Comm& comm) {
      tensor::Rng rng(5);
      auto model = nn::make_covidnet_lite(3, rng);
      nn::Sgd opt(0.03, 0.9);
      dist::DistributedTrainer trainer(comm, *model, opt);
      dist::broadcast_parameters(comm, trainer.param_store());
      dist::ShardedSampler sampler(train_set.size(), comm.rank(), comm.size());
      const std::size_t batch = 8;
      for (std::size_t epoch = 0; epoch < 4; ++epoch) {
        const auto indices = sampler.epoch_indices(epoch);
        for (std::size_t at = 0; at + batch <= indices.size(); at += batch) {
          std::vector<std::size_t> rows(
              indices.begin() + static_cast<std::ptrdiff_t>(at),
              indices.begin() + static_cast<std::ptrdiff_t>(at + batch));
          auto [x, y] = train_set.batch(rows);
          trainer.step_classification(x, y);
        }
      }
      if (comm.rank() == 0) {
        std::vector<std::size_t> all(test_set.size());
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        auto [x, y] = test_set.batch(all);
        const auto logits = model->forward(x, false);
        final_acc = nn::accuracy(logits, y);
      }
    });
    times[v] = runtime.max_sim_time();
    std::printf("%-24s modelled training time %8.3f s   test accuracy %.3f\n",
                venue.label, times[v], final_acc);
  }

  std::printf("\nA100 speedup over V100 generation: %.2fx (tensor cores + HBM bandwidth)\n",
              times[0] / times[1]);
  return 0;
}
