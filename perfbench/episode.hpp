// Episode machinery shared by the training workloads: the per-step host
// clock kept on rank 0, the per-rank results, and the bookkeeping that turns
// a series of episodes into metrics and correctness checks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace msabench {

/// Host clock of the step loop.  Only the owning thread (rank 0, or the main
/// thread of a single-process workload) records; other ranks pass a null
/// log and every call is a no-op.
class StepClock {
 public:
  StepClock(HostLog* log, double episode_start_s, int warmup, int timed,
            std::uint64_t items_per_step)
      : log_(log),
        start_s_(episode_start_s),
        warmup_(warmup),
        last_(warmup + timed - 1),
        items_(items_per_step) {}

  void begin(int step) {
    if (log_ == nullptr) return;
    t_ = now_s();
    if (step == warmup_) {
      first_ = t_;
      log_->setup_s = t_ - start_s_;
      log_->window_begin_ns = msa::obs::Tracer::instance().real_now_ns();
    }
  }

  void end(int step) {
    if (log_ == nullptr || step < warmup_) return;
    const double t = now_s();
    log_->step_ms.push_back((t - t_) * 1e3);
    log_->timed_items += items_;
    if (step == last_) {
      log_->timed_s = t - first_;
      log_->window_end_ns = msa::obs::Tracer::instance().real_now_ns();
    }
  }

 private:
  HostLog* log_;
  double start_s_;
  int warmup_;
  int last_;
  std::uint64_t items_;
  double t_ = 0.0;
  double first_ = 0.0;
};

/// What one rank reports at the end of an episode.
struct RankOut {
  std::vector<double> losses;  ///< per step, this rank's view
  std::uint64_t digest = 0;    ///< parameter slab after the last step
  int group = 0;               ///< ranks of one group must hold equal slabs
  double fwd_flops = 0.0;      ///< flops of one forward call
  double slab_bytes = 0.0;     ///< param + grad + optimizer-state bytes
  double launch_frac = -1.0;   ///< overlap buckets launched in backward
};

/// One finished episode.
struct Episode {
  HostLog host;
  std::vector<RankOut> ranks;
  std::vector<double> losses;  ///< per step, mean over the loss owners
  double sim_s = 0.0;          ///< Runtime::max_sim_time (0: no sim clock)
  std::uint64_t items = 0;     ///< samples over all steps, all ranks
  std::uint64_t steps = 0;     ///< steps executed (rank 0 view)
  bool traced = false;
  std::uint64_t threads = 1;   ///< pool size the episode ran with

  /// Digest of everything that must replay bit-identically.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] bool ranks_agree() const;
  [[nodiscard]] bool losses_finite() const;
};

/// Traced-episode accumulator: per-layer sums over the timed window plus
/// the simulated-time attribution of the whole episode.
struct TraceAcc {
  LayerTally layers;            ///< summed over the tallied ranks
  int layer_ranks = 0;          ///< ranks contributing per episode
  double fwd_flops = 0.0;       ///< flops behind layers.forward_only_s
  msa::obs::Attribution sim{};  ///< obs::Report aggregate (last episode)
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t items = 0;
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
  int episodes = 0;
  /// Attribute the episode's simulated time with obs::Report (episodes of
  /// several Runtime::run calls restart the clocks and opt out).
  bool attribute_sim = true;

  /// Arm the tracer and zero the registry before a traced episode.
  static void arm();
  /// Disarm and fold the episode's spans into the accumulator.  @p ranks
  /// lists the ranks whose spans feed the per-layer sums.
  void collect(const Episode& ep, const std::vector<int>& ranks);
};

/// Write the metrics every training workload shares: host rates from the
/// untraced episodes at the configured pool size, per-layer figures from
/// @p acc, and the replay checks over all @p episodes.  loss_end is the mean
/// loss over the last @p loss_tail steps.
void finish_training(const std::vector<Episode>& episodes, const TraceAcc& acc,
                     int loss_tail, Output& out);

/// The figures of a set-up probe (--setup-only): the cold episode's set-up
/// and its data-generation and runtime-spawn parts.
Output setup_probe(const Episode& cold);

/// The episode loop common to every workload.  With --trace 0, untraced
/// episodes fill the window and one traced episode follows as a check; with
/// --trace 1, untraced and traced episodes alternate (the untraced ones are
/// the baseline of obs.trace_overhead_frac).  @p run_one runs one episode
/// (@p first: the process's first, whose set-up includes process start); the
/// tracer is armed around traced ones and @p on_traced sees each of them
/// before its spans are cleared.  Peak RSS is taken when the window closes,
/// before the check episode grows the trace rings.
std::vector<Episode> run_episodes(
    const Options& opt, int min_episodes,
    const std::function<Episode(bool first)>& run_one,
    const std::function<void(const Episode&)>& on_traced, Output& out);

}  // namespace msabench
