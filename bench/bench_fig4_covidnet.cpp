// E8 — Fig. 4 (B), Sec. IV-A: COVID-Net CXR classification on MSA modules.
//
// Reproduces the section's hardware claims in shape:
//   * training/inference "significantly faster" on A100 (tensor cores) than
//     on the previous V100 generation;
//   * the MSA usage pattern of Sec. II-A: "compute-intensive training can be
//     performed on the CM/DAM while inference and testing can be scaled-out
//     on the ESB".
#include <cstdio>
#include <vector>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "dist/distributed.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"

namespace {
using namespace msa;
}

int main() {
  data::CxrConfig dcfg;
  dcfg.samples = 192;
  dcfg.size = 20;
  const auto train_set = data::make_cxr(dcfg);
  dcfg.samples = 96;
  dcfg.seed = 55;
  const auto test_set = data::make_cxr(dcfg);

  const core::MsaSystem deep = core::make_deep_est();
  const core::MsaSystem juwels = core::make_juwels();

  std::printf("=== E8: COVID-Net-lite on MSA modules (Sec. IV-A) ===\n\n");

  // ---- training venue comparison ---------------------------------------------
  std::printf("--- distributed training (2 GPUs), modelled time ---\n");
  std::printf("%-26s %16s %14s\n", "venue", "train time [ms]", "accuracy");
  struct Venue {
    const char* label;
    const core::MsaSystem* system;
    core::ModuleKind kind;
    bool tensor;
  };
  const Venue venues[] = {
      {"DEEP DAM (V100, fp32)", &deep, core::ModuleKind::DataAnalytics, false},
      {"DEEP DAM (V100, tensor)", &deep, core::ModuleKind::DataAnalytics, true},
      {"JUWELS Booster (A100, tensor)", &juwels, core::ModuleKind::Booster,
       true},
  };
  for (const auto& v : venues) {
    const core::Module& module = v.system->module(v.kind);
    comm::Runtime runtime(
        core::build_machine(*v.system, module, 2, v.tensor));
    double acc = 0.0;
    runtime.run([&](comm::Comm& comm) {
      tensor::Rng rng(5);
      auto model = nn::make_covidnet_lite(3, rng);
      nn::Sgd opt(0.03, 0.9);
      dist::DistributedTrainer trainer(comm, *model, opt);
      dist::broadcast_parameters(comm, trainer.param_store());
      dist::ShardedSampler sampler(train_set.size(), comm.rank(), comm.size());
      const std::size_t batch = 8;
      for (std::size_t epoch = 0; epoch < 3; ++epoch) {
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
        acc = nn::accuracy(model->forward(x, false), y);
      }
    });
    std::printf("%-26s %16.3f %14.3f\n", v.label,
                runtime.max_sim_time() * 1e3, acc);
  }

  // ---- inference scale-out on the ESB -----------------------------------------
  // Strong scaling over the COVIDx corpus: 13,975 CXR images (the paper's
  // dataset size), full COVID-Net inference cost (~3.5 GFLOP/image), sharded
  // across ESB ranks.  Real classification of a small shard anchors the
  // numerics; the dual clock prices the full-scale sweep.
  std::printf("\n--- inference scale-out on the DEEP ESB (Sec. II-A pattern) ---\n");
  std::printf("strong scaling over 13,975 COVIDx-scale images\n");
  std::printf("%8s %14s %18s %12s %12s\n", "ranks", "time [s]",
              "images/s (model)", "speedup", "efficiency");
  const core::Module& esb = deep.module(core::ModuleKind::ExtremeScaleBooster);
  constexpr std::size_t kCovidxImages = 13'975;
  constexpr double kCovidNetFlops = 3.5e9;  // per-image forward
  double base = 0.0;
  for (int ranks : {1, 2, 4, 8, 16, 32, 64}) {
    comm::Runtime runtime(core::build_machine(deep, esb, ranks, true));
    runtime.run([&](comm::Comm& comm) {
      tensor::Rng rng(5);
      auto model = nn::make_covidnet_lite(3, rng);
      nn::ParamStore store(*model);
      dist::broadcast_parameters(comm, store);
      // Numerics anchor: really classify a small shard.
      std::vector<std::size_t> rows(16);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i] = (static_cast<std::size_t>(comm.rank()) * 16 + i) %
                  test_set.size();
      }
      auto [x, y] = test_set.batch(rows);
      (void)model->forward(x, false);
      // Full-scale cost: this rank's share of the corpus at COVID-Net size.
      const std::size_t my_images =
          kCovidxImages / static_cast<std::size_t>(comm.size());
      comm.charge_compute(kCovidNetFlops * static_cast<double>(my_images),
                          0.0);
      comm.barrier();
    });
    const double imgs =
        static_cast<double>(kCovidxImages) / runtime.max_sim_time();
    if (ranks == 1) base = imgs;
    std::printf("%8d %14.2f %18.0f %12.2f %11.1f%%\n", ranks,
                runtime.max_sim_time(), imgs, imgs / base,
                100.0 * imgs / base / ranks);
  }

  std::printf(
      "\npaper shape: the A100 generation trains markedly faster than V100\n"
      "(tensor cores + memory bandwidth), and inference scales out nearly\n"
      "linearly on the ESB since no gradient synchronisation is needed.\n");
  return 0;
}
