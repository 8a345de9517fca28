// Shared plumbing for the msalib benchmark program (msabench).
//
// Every workload is a loop of *episodes*.  An episode sets the workload up
// from the seed (machine, synthetic data, runtime, model, warm-up steps) and
// then runs a fixed number of timed steps through the library's public entry
// points.  Fixed work per episode makes every simulated-time figure, every
// loss and every parameter digest a pure function of the seed, so repeated
// episodes double as a replay check; the host clock only decides how many
// episodes fit into the measurement window.
//
// Host time is always wall time on std::chrono::steady_clock, never CPU
// time.  Rates are stored with their base (items and seconds).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/hash.hpp"
#include "obs/trace.hpp"

namespace msabench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary steady epoch.
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Process start as seen by main(); the first episode's set-up is charged
/// from here.
double process_start_s();

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return v[i];
}

/// Order-sensitive digest of a float slab (bit patterns, splitmix64 chain).
inline std::uint64_t digest(std::span<const float> xs,
                            std::uint64_t h = 0x6d7361) {
  for (float x : xs) {
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    h = msa::hash::combine(h, bits);
  }
  return h;
}

inline std::uint64_t digest_doubles(const std::vector<double>& xs,
                                    std::uint64_t h = 0x6c6f7373) {
  for (double x : xs) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    h = msa::hash::combine(h, bits);
  }
  return h;
}

/// Everything one invocation measured.  `metrics` holds every figure by
/// name; run.py picks the end-to-end or per-layer set and attaches units and
/// clocks from perfbench/metrics.json.
struct Output {
  std::map<std::string, double> metrics;
  std::map<std::string, double> bases;  ///< denominators / sample counts
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "msabench: check failed: %s\n", name.c_str());
  }
  [[nodiscard]] bool all_ok() const {
    for (const auto& [name, ok] : checks) {
      if (!ok) return false;
    }
    return true;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t nproc = 1;
  /// Set-up probe: run one cold episode with a single timed step and report
  /// only its set-up figures (run.py takes the median over fresh processes).
  bool setup_only = false;
};

/// Host timings of one episode, recorded on rank 0 (or the main thread).
struct HostLog {
  bool cold = false;     ///< the process's first episode
  double setup_s = 0.0;  ///< start (process start if cold) to first timed step
  double data_s = 0.0;   ///< synthetic data generation
  double spawn_s = 0.0;  ///< Runtime construction + rank-thread start
  std::vector<double> step_ms;
  std::vector<double> step_rate;  ///< items/s of each step (serve_fleet)
  double timed_s = 0.0;  ///< first timed step start to last timed step end
  std::uint64_t timed_items = 0;
  std::uint64_t window_begin_ns = 0;  ///< tracer clock, timed window
  std::uint64_t window_end_ns = 0;
};

/// Host-side per-layer sums over the timed window of traced episodes.
struct LayerTally {
  double forward_s = 0.0;  ///< "forward" + "recompute" spans
  double backward_s = 0.0;
  double optimizer_s = 0.0;
  double step_s = 0.0;     ///< "step" / "pipe_step" envelopes
  double comm_s = 0.0;     ///< outermost Comm spans (blocking waits included)
  std::uint64_t forwards = 0;  ///< "forward" spans (recompute excluded)
  double forward_only_s = 0.0;
  std::uint64_t steps = 0;

  void add(const LayerTally& o) {
    forward_s += o.forward_s;
    backward_s += o.backward_s;
    optimizer_s += o.optimizer_s;
    step_s += o.step_s;
    comm_s += o.comm_s;
    forwards += o.forwards;
    forward_only_s += o.forward_only_s;
    steps += o.steps;
  }
};

/// Sum span host time by layer for spans of @p rank whose real interval lies
/// in [begin_ns, end_ns].
LayerTally tally_spans(const std::vector<msa::obs::Span>& spans, int rank,
                       std::uint64_t begin_ns, std::uint64_t end_ns);

/// Episodes are run until the measurement window is used up, but never
/// fewer than @p min_episodes.
class Window {
 public:
  Window(double seconds, int min_episodes)
      : end_s_(now_s() + seconds), min_(min_episodes) {}
  [[nodiscard]] bool more(int done) const {
    return done < min_ || now_s() < end_s_;
  }

 private:
  double end_s_;
  int min_;
};

/// Host-rate summary of a set of episodes: the median of their items/s over
/// timed wall time, the median step, and the highest percentile with at
/// least 10 steps beyond it.  The cold and warm episode set-ups go to the
/// bases; setup_s itself comes from set-up probes.
void summarise_host(const std::vector<HostLog>& logs, Output& out);

/// Process high-water RSS in MB (getrusage).
double peak_rss_mb();

Output run_dp_resnet(const Options& opt);
Output run_hybrid_pp(const Options& opt);
Output run_gru_ards(const Options& opt);
Output run_serve_fleet(const Options& opt);

}  // namespace msabench
