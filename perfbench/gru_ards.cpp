// gru_ards: the Sec. IV-B ARDS imputation recipe — 2 x GRU(32), dropout 0.2,
// Dense(1), MAE loss, Adam(1e-4) — on synthetic ICU series, as a plain
// single-process nn::Sequential training loop with the pool at MSA_THREADS
// = nproc.  Many small GEMMs and element-wise ops: par dispatch and per-op
// overhead dominate; comm, dist and simnet are not on this path.
//
// There is no rank thread here, so the benchmark opens its own spans around
// the nn calls (same names as the trainer's: step / forward / backward /
// optimizer) for the per-layer figures of the traced run.
#include <algorithm>

#include "data/synthetic.hpp"
#include "episode.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"
#include "par/pool.hpp"

namespace msabench {

namespace {

using namespace msa;

struct GruShape {
  std::size_t patients = 48;
  std::size_t series_len = 72;
  std::size_t window = 16;
  std::size_t features = 5;
  std::size_t batch = 16;
  int warmup = 5;
  int timed = 300;
};

Episode gru_episode(const Options& opt, const GruShape& sh, bool first) {
  using obs::Category;
  Episode ep;
  const double t0 = first ? process_start_s() : now_s();
  const double td = now_s();
  data::IcuConfig cfg;
  cfg.patients = sh.patients;
  cfg.series_len = sh.series_len;
  cfg.window = sh.window;
  cfg.features = sh.features;
  cfg.missing_rate = 0.2;
  cfg.seed = opt.seed;
  const data::IcuDataset ds = data::make_icu_timeseries(cfg);
  ep.host.data_s = now_s() - td;

  tensor::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 17);
  auto model = nn::make_ards_gru(sh.features + 1, rng);
  nn::Adam adam(1e-4);
  nn::ParamStore store(*model);
  store.attach_optimizer(adam);

  const int steps = sh.warmup + sh.timed;
  StepClock clock(&ep.host, t0, sh.warmup, sh.timed, sh.batch);
  RankOut out;
  const std::size_t n = ds.num_windows();
  const std::size_t stride = ds.windows.dim(1) * ds.windows.dim(2);
  nn::Tensor xb({sh.batch, ds.windows.dim(1), ds.windows.dim(2)});
  nn::Tensor yb({sh.batch, 1});
  std::size_t at = 0;
  for (int s = 0; s < steps; ++s) {
    clock.begin(s);
    float loss = 0.0f;
    {
      obs::ScopedSpan step_span(Category::Step, "step");
      if (at + sh.batch > n) at = 0;
      std::copy(ds.windows.data() + at * stride,
                ds.windows.data() + (at + sh.batch) * stride, xb.data());
      std::copy(ds.targets.data() + at, ds.targets.data() + at + sh.batch,
                yb.data());
      at += sh.batch;
      store.zero_grads();
      nn::Tensor pred = [&] {
        obs::ScopedSpan span(Category::Compute, "forward");
        return model->forward(xb, /*training=*/true);
      }();
      const nn::LossResult res = nn::mae_loss(pred, yb);
      {
        obs::ScopedSpan span(Category::Compute, "backward");
        model->backward(res.grad);
      }
      {
        obs::ScopedSpan span(Category::Compute, "optimizer");
        store.step(adam);
      }
      loss = res.loss;
    }
    clock.end(s);
    out.losses.push_back(loss);
  }
  out.digest = digest(store.param_span());
  out.fwd_flops = model->forward_flops();
  out.slab_bytes = 4.0 * static_cast<double>(store.param_span().size() +
                                             store.grad_span().size() +
                                             store.opt_span().size());
  ep.losses = out.losses;
  ep.ranks.push_back(std::move(out));
  ep.steps = static_cast<std::uint64_t>(steps);
  ep.items = sh.batch * ep.steps;
  ep.threads = par::num_threads();
  return ep;
}

double median_step(const std::vector<Episode>& eps, std::size_t threads) {
  std::vector<double> ms;
  for (const auto& e : eps) {
    if (e.traced || e.threads != threads) continue;
    ms.insert(ms.end(), e.host.step_ms.begin(), e.host.step_ms.end());
  }
  return median(ms);
}

}  // namespace

Output run_gru_ards(const Options& opt) {
  const GruShape sh;
  if (opt.setup_only) {
    GruShape probe = sh;
    probe.timed = 1;
    return setup_probe(gru_episode(opt, probe, /*first=*/true));
  }
  Output out;
  TraceAcc acc;
  auto eps = run_episodes(
      opt, /*min_episodes=*/3,
      [&](bool first) { return gru_episode(opt, sh, first); },
      [&](const Episode& e) { acc.collect(e, {-1}); }, out);

  // Pool-size slice: the same episode on one thread must land on the same
  // parameters bit for bit (the pool's determinism contract), and its step
  // time over the nproc one is the pool's speedup.
  const std::size_t threads = par::num_threads();
  par::set_num_threads(1);
  eps.push_back(gru_episode(opt, sh, false));
  par::set_num_threads(threads);
  out.check("digest_1_thread_equals_nproc",
            eps.back().fingerprint() == eps.front().fingerprint());

  finish_training(eps, acc, /*loss_tail=*/50, out);
  out.metrics["par.speedup"] =
      median_step(eps, 1) / median_step(eps, threads);
  return out;
}

}  // namespace msabench
