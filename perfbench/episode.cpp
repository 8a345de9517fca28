#include "episode.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "par/pool.hpp"

namespace msabench {

std::uint64_t Episode::fingerprint() const {
  std::uint64_t h = digest_doubles(losses);
  for (const auto& r : ranks) h = msa::hash::combine(h, r.digest);
  std::uint64_t sim_bits;
  std::memcpy(&sim_bits, &sim_s, sizeof sim_bits);
  return msa::hash::combine(h, sim_bits);
}

bool Episode::ranks_agree() const {
  for (const auto& a : ranks) {
    for (const auto& b : ranks) {
      if (a.group == b.group && a.digest != b.digest) return false;
    }
  }
  return true;
}

bool Episode::losses_finite() const {
  for (double l : losses) {
    if (!std::isfinite(l)) return false;
  }
  return true;
}

void TraceAcc::arm() {
  msa::obs::Tracer::instance().clear();
  msa::obs::Registry::instance().reset();
  msa::obs::Tracer::instance().set_enabled(true);
}

void TraceAcc::collect(const Episode& ep, const std::vector<int>& rank_ids) {
  auto& tracer = msa::obs::Tracer::instance();
  tracer.set_enabled(false);
  const auto recorded = tracer.snapshot();
  for (int r : rank_ids) {
    const LayerTally t = tally_spans(recorded, r, ep.host.window_begin_ns,
                                     ep.host.window_end_ns);
    layers.add(t);
    const std::size_t i = r < 0 ? 0 : static_cast<std::size_t>(r);
    if (i < ep.ranks.size()) {
      fwd_flops += ep.ranks[i].fwd_flops * static_cast<double>(t.forwards);
    }
  }
  layer_ranks = static_cast<int>(rank_ids.size());
  if (attribute_sim && ep.sim_s > 0.0) {
    sim = msa::obs::Report::from_spans(recorded).aggregate();
  }
  auto& reg = msa::obs::Registry::instance();
  msgs += reg.counter("comm.msgs_sent").value();
  bytes += reg.counter("comm.bytes_sent").value();
  items += ep.items;
  spans += tracer.recorded_count();
  dropped += tracer.dropped_count();
  ++episodes;
  tracer.clear();
}

Output setup_probe(const Episode& cold) {
  Output out;
  out.metrics["setup_s"] = cold.host.setup_s;
  out.metrics["data.gen_s"] = cold.host.data_s;
  out.metrics["comm.spawn_s"] = cold.host.spawn_s;
  out.attempted = cold.steps;
  out.check("losses_finite", cold.losses_finite());
  return out;
}

namespace {

double rate(const std::vector<HostLog>& logs) {
  double s = 0.0, items = 0.0;
  for (const auto& l : logs) {
    s += l.timed_s;
    items += static_cast<double>(l.timed_items);
  }
  return s > 0.0 ? items / s : 0.0;
}

}  // namespace

void finish_training(const std::vector<Episode>& episodes, const TraceAcc& acc,
                     int loss_tail, Output& out) {
  std::vector<HostLog> untraced, traced;
  for (const auto& e : episodes) {
    if (e.threads != msa::par::num_threads()) continue;
    (e.traced ? traced : untraced).push_back(e.host);
  }
  summarise_host(untraced, out);

  // Replay checks: every episode, traced or not, at any pool size, must
  // reproduce the first one bit for bit.
  const Episode& ref = episodes.front();
  const std::uint64_t want = ref.fingerprint();
  bool agree = true, finite = true, replay = true, traced_eq = true;
  for (const auto& e : episodes) {
    out.attempted += e.steps;
    const bool same = e.fingerprint() == want;
    agree = agree && e.ranks_agree();
    finite = finite && e.losses_finite();
    replay = replay && same;
    if (e.traced) traced_eq = traced_eq && same;
    if (!same || !e.ranks_agree()) {
      out.failed += e.steps;
    } else {
      for (double l : e.losses) out.failed += std::isfinite(l) ? 0 : 1;
    }
  }
  out.check("param_digest_equal_across_ranks", agree);
  out.check("losses_finite", finite);
  out.check("episodes_replay_identically", replay);
  out.check("traced_equals_untraced", traced_eq && acc.episodes > 0);
  out.check("no_dropped_spans", acc.dropped == 0);

  const std::size_t n = ref.losses.size();
  const std::size_t k =
      std::min<std::size_t>(n, static_cast<std::size_t>(loss_tail));
  double tail = 0.0;
  for (std::size_t i = n - k; i < n; ++i) tail += ref.losses[i];
  out.metrics["loss_end"] = k > 0 ? tail / static_cast<double>(k) : 0.0;
  if (ref.sim_s > 0.0) {
    out.metrics["sim_items_per_s"] = static_cast<double>(ref.items) / ref.sim_s;
    out.bases["sim_items"] = static_cast<double>(ref.items);
    out.bases["sim_seconds"] = ref.sim_s;
  }

  // Per-layer figures (traced episodes, timed window only).
  const LayerTally& L = acc.layers;
  const double steps = L.steps > 0 ? static_cast<double>(L.steps) : 1.0;
  out.metrics["nn.forward_ms"] = L.forward_s / steps * 1e3;
  out.metrics["nn.backward_ms"] = L.backward_s / steps * 1e3;
  out.metrics["nn.optimizer_ms"] = L.optimizer_s / steps * 1e3;
  out.metrics["tensor.fwd_gflops"] =
      L.forward_only_s > 0.0 ? acc.fwd_flops / L.forward_only_s * 1e-9 : 0.0;
  double slab = 0.0;
  for (const auto& r : ref.ranks) slab += r.slab_bytes;
  out.metrics["nn.param_slab_mb"] = slab / 1e6;
  if (ref.sim_s > 0.0) {
    out.metrics["dist.step_ms"] = L.step_s / steps * 1e3;
    out.metrics["dist.reduce_ms"] =
        (L.step_s - L.forward_s - L.backward_s - L.optimizer_s) / steps * 1e3;
    out.metrics["comm.host_ms_per_step"] = L.comm_s / steps * 1e3;
    const double lf = ref.ranks.front().launch_frac;
    out.metrics["dist.overlap_launch_frac"] = lf >= 0.0 ? lf : 0.0;
    out.metrics["dist.sim_comm_exposed_frac"] = acc.sim.comm_fraction();
    out.metrics["dist.sim_comm_hidden_frac"] = acc.sim.hidden_comm_fraction();
    out.metrics["dist.sim_compute_frac"] = acc.sim.compute_fraction();
    out.metrics["dist.sim_bubble_frac"] = acc.sim.bubble_fraction();
  }
  const double items = acc.items > 0 ? static_cast<double>(acc.items) : 1.0;
  out.metrics["comm.msgs_per_item"] = static_cast<double>(acc.msgs) / items;
  out.metrics["comm.bytes_per_item"] = static_cast<double>(acc.bytes) / items;
  out.metrics["obs.spans_per_item"] = static_cast<double>(acc.spans) / items;
  out.metrics["obs.dropped_spans"] = static_cast<double>(acc.dropped);
  const double base = rate(untraced);
  out.metrics["obs.trace_overhead_frac"] =
      base > 0.0 ? 1.0 - rate(traced) / base : 0.0;
  out.metrics["par.threads"] = static_cast<double>(msa::par::num_threads());
}

std::vector<Episode> run_episodes(
    const Options& opt, int min_episodes,
    const std::function<Episode(bool first)>& run_one,
    const std::function<void(const Episode&)>& on_traced, Output& out) {
  std::vector<Episode> eps;
  auto one = [&](bool traced, bool first) {
    if (traced) TraceAcc::arm();
    eps.push_back(run_one(first));
    eps.back().traced = traced;
    eps.back().host.cold = first;
    if (traced) on_traced(eps.back());
  };
  const Window window(opt.seconds, min_episodes);
  for (int i = 0; window.more(i); ++i) one(opt.trace && i % 2 == 1, i == 0);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  if (!opt.trace) one(/*traced=*/true, /*first=*/false);
  return eps;
}

}  // namespace msabench
