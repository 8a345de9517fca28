// The two distributed training workloads.
//
// dp_resnet: Horovod-style data parallelism (paper Sec. III) — the
//   remote-sensing ResNet trained by dist::DistributedTrainer on 4 JUWELS
//   Booster GPUs, backward-overlapped fp16 gradient allreduce.
// hybrid_pp: DP x PP — a wide MLP split into 2 pipeline stages
//   (DEEP-EST Cluster -> ESB) with 2 data-parallel replicas, trained by
//   dist::PipelineStage under 1F1B on a topology-aware dist::Mesh.
//
// Both run with MSA_THREADS=1: four rank threads already fill the box.
#include <memory>
#include <utility>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "dist/distributed.hpp"
#include "dist/mesh.hpp"
#include "dist/pipeline.hpp"
#include "episode.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"
#include "par/pool.hpp"

namespace msabench {

namespace {

using namespace msa;

constexpr int kRanks = 4;

double slab_bytes(nn::ParamStore& store) {
  return 4.0 * static_cast<double>(store.param_span().size() +
                                   store.grad_span().size() +
                                   store.opt_span().size());
}

/// Fold per-rank losses into the episode's per-step loss (mean over the
/// ranks that own a loss) and stamp the common episode fields.
void close_episode(Episode& ep, const comm::Runtime& rt, int steps,
                   std::uint64_t items_per_step) {
  ep.sim_s = rt.max_sim_time();
  ep.steps = static_cast<std::uint64_t>(steps);
  ep.items = items_per_step * ep.steps;
  ep.threads = par::num_threads();
  ep.losses.assign(static_cast<std::size_t>(steps), 0.0);
  for (const auto& r : ep.ranks) {
    for (int s = 0; s < steps; ++s) {
      ep.losses[static_cast<std::size_t>(s)] +=
          r.losses[static_cast<std::size_t>(s)] /
          static_cast<double>(ep.ranks.size());
    }
  }
}

// ---------------------------------------------------------------- dp_resnet

struct DpShape {
  std::size_t microbatch = 8;  ///< samples per rank per step
  std::size_t bands = 4;
  std::size_t patch = 16;
  std::size_t classes = 5;
  std::size_t samples = 512;
  int warmup = 3;
  int timed = 40;
};

Episode dp_episode(const Options& opt, const DpShape& sh, int ranks,
                   bool first) {
  Episode ep;
  const double t0 = first ? process_start_s() : now_s();
  const core::MsaSystem juwels = core::make_juwels();
  simnet::Machine machine = core::build_machine(
      juwels, juwels.module(core::ModuleKind::Booster), ranks);

  const double td = now_s();
  data::MultispectralConfig dcfg;
  dcfg.samples = sh.samples;
  dcfg.bands = sh.bands;
  dcfg.patch = sh.patch;
  dcfg.classes = sh.classes;
  dcfg.seed = opt.seed;
  const data::ImageDataset train = data::make_multispectral(dcfg);
  ep.host.data_s = now_s() - td;

  const double ts = now_s();
  comm::Runtime rt(std::move(machine));
  const double ctor_s = now_s() - ts;
  ep.ranks.resize(static_cast<std::size_t>(ranks));
  const int steps = sh.warmup + sh.timed;
  const std::uint64_t items_per_step =
      sh.microbatch * static_cast<std::size_t>(ranks);
  const double run_call = now_s();
  rt.run([&](comm::Comm& comm) {
    const int r = comm.rank();
    if (r == 0) ep.host.spawn_s = ctor_s + (now_s() - run_call);
    tensor::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 3);
    auto model = nn::make_resnet_rs(sh.bands, sh.classes, rng);
    nn::LargeBatchSchedule schedule(0.02, comm.size(), /*warmup_steps=*/12);
    nn::Sgd sgd(schedule.lr(0), 0.9);
    dist::AllreduceOptions ar;
    ar.fp16_compression = true;
    ar.overlap = true;
    ar.bucket_bytes = 1u << 18;
    dist::DistributedTrainer trainer(comm, *model, sgd, ar);
    dist::broadcast_parameters(comm, trainer.param_store());
    dist::ShardedSampler sampler(train.size(), r, comm.size(), opt.seed);

    StepClock clock(r == 0 ? &ep.host : nullptr, t0, sh.warmup, sh.timed,
                    items_per_step);
    RankOut& out = ep.ranks[static_cast<std::size_t>(r)];
    std::vector<std::size_t> order;
    std::size_t epoch = 0, at = 0;
    for (int s = 0; s < steps; ++s) {
      clock.begin(s);
      if (at + sh.microbatch > order.size()) {
        order = sampler.epoch_indices(epoch++);
        at = 0;
      }
      const std::vector<std::size_t> rows(
          order.begin() + static_cast<std::ptrdiff_t>(at),
          order.begin() + static_cast<std::ptrdiff_t>(at + sh.microbatch));
      at += sh.microbatch;
      auto [x, y] = train.batch(rows);
      sgd.set_lr(schedule.lr(static_cast<std::size_t>(s)));
      const dist::StepResult res = trainer.step_classification(x, y);
      clock.end(s);
      out.losses.push_back(res.loss);
    }
    out.digest = digest(trainer.param_store().param_span());
    out.fwd_flops = model->forward_flops();
    out.slab_bytes = slab_bytes(trainer.param_store());
    if (const auto* red = trainer.reducer()) {
      out.launch_frac = static_cast<double>(red->launched_in_backward()) /
                        static_cast<double>(red->bucket_count());
    }
  });
  close_episode(ep, rt, steps, items_per_step);
  return ep;
}

// ---------------------------------------------------------------- hybrid_pp

struct PpShape {
  std::size_t features = 64;
  std::vector<std::size_t> hidden = {768, 768, 768};
  std::size_t classes = 8;
  std::size_t rows = 2048;       ///< tabular dataset size
  std::size_t microbatch = 4;    ///< rows per microbatch
  std::size_t micros = 4;        ///< microbatches per replica per step
  int stages = 2;
  int warmup = 3;
  int timed = 40;
};

/// Replica @p replica's microbatches for step @p step: consecutive rows of
/// the shared table, replicas interleaved.
void pp_batch(const data::TabularDataset& tab, const PpShape& sh, int step,
              int replicas, int replica, std::vector<nn::Tensor>& xs,
              std::vector<std::vector<std::int32_t>>& ys) {
  xs.clear();
  ys.clear();
  for (std::size_t m = 0; m < sh.micros; ++m) {
    const std::size_t at =
        ((static_cast<std::size_t>(step) * static_cast<std::size_t>(replicas) +
          static_cast<std::size_t>(replica)) *
             sh.micros +
         m) *
        sh.microbatch % (sh.rows - sh.microbatch);
    nn::Tensor x({sh.microbatch, sh.features});
    std::vector<std::int32_t> y(sh.microbatch);
    for (std::size_t i = 0; i < sh.microbatch; ++i) {
      for (std::size_t j = 0; j < sh.features; ++j) {
        x.at2(i, j) = tab.x.at2(at + i, j);
      }
      y[i] = tab.y[at + i];
    }
    xs.push_back(std::move(x));
    ys.push_back(std::move(y));
  }
}

/// One episode on a Cluster+ESB machine.  ranks == 1 runs the unsplit model
/// on one Cluster device: the single-rank reference of sim_scaling_eff.
Episode pp_episode(const Options& opt, const PpShape& sh, int ranks,
                   bool first) {
  Episode ep;
  const double t0 = first ? process_start_s() : now_s();
  const core::MsaSystem deep = core::make_deep_est();
  const core::Module& cluster = deep.module(core::ModuleKind::Cluster);
  const core::Module& esb =
      deep.module(core::ModuleKind::ExtremeScaleBooster);
  simnet::Machine machine =
      ranks == 1 ? core::build_machine(deep, cluster, 1)
                 : core::build_machine(
                       deep, {{.module = &cluster, .ranks = ranks / sh.stages},
                              {.module = &esb, .ranks = ranks / sh.stages}});

  const double td = now_s();
  const data::TabularDataset tab =
      data::make_tabular(sh.rows, sh.features, sh.classes, opt.seed);
  ep.host.data_s = now_s() - td;

  const double ts = now_s();
  comm::Runtime rt(std::move(machine));
  const double ctor_s = now_s() - ts;
  ep.ranks.resize(static_cast<std::size_t>(ranks));
  const int steps = sh.warmup + sh.timed;
  const int replicas = ranks == 1 ? 1 : ranks / sh.stages;
  const std::uint64_t items_per_step =
      sh.microbatch * sh.micros * static_cast<std::size_t>(replicas);
  const double run_call = now_s();
  rt.run([&](comm::Comm& comm) {
    const int r = comm.rank();
    if (r == 0) ep.host.spawn_s = ctor_s + (now_s() - run_call);
    tensor::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 5);
    auto full = nn::make_mlp(sh.features, sh.hidden, sh.classes, rng);
    std::unique_ptr<dist::PipelineStage> stage;
    if (ranks == 1) {
      stage = std::make_unique<dist::PipelineStage>(
          comm, std::move(full), std::make_unique<nn::Adam>(1e-3));
    } else {
      dist::Mesh mesh(comm, {.pipeline_stages = sh.stages,
                             .topology_aware = true});
      auto parts = dist::partition_model(std::move(full), sh.stages);
      dist::PipelineOptions popts;
      popts.allreduce.fp16_compression = true;
      popts.allreduce.overlap = true;
      popts.allreduce.bucket_bytes = 1u << 18;
      const auto mine = static_cast<std::size_t>(mesh.stage());
      stage = std::make_unique<dist::PipelineStage>(
          mesh, std::move(parts[mine]), std::make_unique<nn::Adam>(1e-3),
          popts);
    }
    dist::Mesh& mesh = stage->mesh();

    StepClock clock(r == 0 ? &ep.host : nullptr, t0, sh.warmup, sh.timed,
                    items_per_step);
    RankOut& out = ep.ranks[static_cast<std::size_t>(r)];
    std::vector<nn::Tensor> xs;
    std::vector<std::vector<std::int32_t>> ys;
    for (int s = 0; s < steps; ++s) {
      clock.begin(s);
      pp_batch(tab, sh, s, mesh.replicas(), mesh.replica(), xs, ys);
      const float loss = stage->step_classification(xs, ys);
      clock.end(s);
      out.losses.push_back(loss);
    }
    out.digest = digest(stage->param_store().param_span());
    out.group = mesh.stage();
    out.fwd_flops = stage->stage().forward_flops();
    out.slab_bytes = slab_bytes(stage->param_store());
  });
  close_episode(ep, rt, steps, items_per_step);
  return ep;
}

/// Shared loop: episodes, checks, per-layer figures, scaling reference.
template <class Shape, class EpisodeFn>
Output run_distributed(const Options& opt, const Shape& sh, EpisodeFn episode) {
  if (opt.setup_only) {
    Shape probe = sh;
    probe.timed = 1;
    return setup_probe(episode(opt, probe, kRanks, /*first=*/true));
  }
  Output out;
  TraceAcc acc;
  std::vector<int> all_ranks;
  for (int r = 0; r < kRanks; ++r) all_ranks.push_back(r);
  const auto eps = run_episodes(
      opt, /*min_episodes=*/3,
      [&](bool first) { return episode(opt, sh, kRanks, first); },
      [&](const Episode& e) { acc.collect(e, all_ranks); }, out);
  finish_training(eps, acc, /*loss_tail=*/10, out);
  if (opt.trace) {
    // Fig. 3 quantity: modelled throughput over ranks x the single-rank
    // modelled throughput of the same model and microbatch.
    const Episode one = episode(opt, sh, 1, false);
    const double single = static_cast<double>(one.items) / one.sim_s;
    out.metrics["sim_scaling_eff"] =
        out.metrics["sim_items_per_s"] / (kRanks * single);
    out.bases["sim_single_rank_items_per_s"] = single;

    // Pool slice: the single-rank episode again with nproc pool threads (one
    // rank thread leaves the pool the whole box) must land on the same
    // parameters bit for bit, and its step time over the 1-thread one is the
    // pool's speedup on this model.
    const std::size_t threads = par::num_threads();
    par::set_num_threads(opt.nproc);
    const Episode wide = episode(opt, sh, 1, false);
    par::set_num_threads(threads);
    const bool same = wide.fingerprint() == one.fingerprint();
    out.check("single_rank_digest_1_thread_equals_nproc", same);
    out.attempted += wide.steps;
    if (!same) out.failed += wide.steps;
    out.metrics["par.speedup"] =
        median(one.host.step_ms) / median(wide.host.step_ms);
    out.bases["par_slice_threads"] = static_cast<double>(opt.nproc);
  }
  return out;
}

}  // namespace

Output run_dp_resnet(const Options& opt) {
  return run_distributed(opt, DpShape{}, dp_episode);
}

Output run_hybrid_pp(const Options& opt) {
  return run_distributed(opt, PpShape{}, pp_episode);
}

}  // namespace msabench
