// serve_fleet: SLO-aware continuous-batching inference on a mixed fleet —
// comm rank 0 routes (serve::Server), one single-rank JUWELS Cluster replica
// and one 2-stage JUWELS Booster replica serve (serve::ReplicaSet) an MLP
// classifier.  Four ranks, MSA_THREADS=1, health-aware routing.
//
// One timed step is one Server::run over a seeded open-loop Poisson trace at
// the nominal rate (kNominalLoad x the fleet's batch-1 rate).  Inference
// only reads weights: many small p2p messages priced by simnet, the serve
// scheduler and router, no backward pass, optimizer or collective.
//
// The traced run also walks a fixed load ladder (kLadder x the batch-1
// rate) for sim_slo_rate_rps: the highest rung whose p99 stays within
// kSloMs with no rejection and no backlog left after the last arrival.
// Every record carries these load points in its bases.
#include <cstdio>
#include <set>
#include <string>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "dist/pipeline.hpp"
#include "episode.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"
#include "par/pool.hpp"
#include "serve/serve.hpp"

namespace msabench {

namespace {

using namespace msa;

constexpr std::uint64_t kRequests = 1000;   ///< per nominal replay
constexpr std::uint64_t kLadderRequests = 1500;
constexpr int kWarmupReplays = 1;
constexpr int kTimedReplays = 40;
constexpr double kOverheadFlops = 7e8;     ///< per member per batch
// Load points, as multiples of the fleet's batch-1 rate, and the SLO.
constexpr double kNominalLoad = 2.5;
constexpr double kLadder[] = {1, 2, 3, 4, 6, 8, 10, 12, 16};
constexpr double kSloMs = 5.0;  ///< p99 bound of sim_slo_rate_rps

simnet::Machine fleet_machine() {
  const core::MsaSystem juwels = core::make_juwels();
  const core::Module& cluster = juwels.module(core::ModuleKind::Cluster);
  const core::Module& booster = juwels.module(core::ModuleKind::Booster);
  return core::build_machine(
      juwels, {{.module = &cluster, .ranks = 2},
               {.module = &booster, .ranks = 2, .tensor_cores = false}});
}

serve::ServeOptions fleet_options(std::uint64_t seed, double rate_hz,
                                  std::uint64_t count) {
  serve::ServeOptions o;
  o.arrivals.pattern = serve::ArrivalPattern::Poisson;
  o.arrivals.rate_hz = rate_hz;
  o.arrivals.count = count;
  o.arrivals.seed = seed;
  o.batch.max_batch_rows = 8;
  o.batch.max_delay_s = 2e-3;
  o.queue_capacity = 256;
  o.replicas.replica_sizes = {1, 2};
  o.replicas.model.features = 64;
  o.replicas.model.hidden = {512, 256};
  o.replicas.model.classes = 8;
  o.replicas.model.seed = static_cast<unsigned>(seed % 1000003);
  o.replicas.overhead_flops = kOverheadFlops;
  o.routing = serve::RoutingMode::HealthAware;
  o.max_outstanding = 4;
  o.data_seed = seed * 0x9E3779B97F4A7C15ull + 11;
  return o;
}

/// Forward flops of one request row, as the nn layers count them.
double flops_per_row(const serve::ModelSpec& m) {
  tensor::Rng rng(m.seed);
  auto model = nn::make_mlp(m.features, m.hidden, m.classes, rng);
  (void)model->forward(nn::Tensor({1, m.features}), /*training=*/false);
  return model->forward_flops();
}

/// Batch-1 service time (s) of each replica: one row plus every member's
/// per-batch overhead, priced on the machine's own compute profiles.
std::vector<double> batch1_times(const simnet::Machine& m,
                                 const serve::ServeOptions& o) {
  const double row = flops_per_row(o.replicas.model);
  std::vector<double> times;
  int first = 1;
  for (int members : o.replicas.replica_sizes) {
    double t = 0.0;
    for (int s = 0; s < members; ++s) {
      t += m.compute(first + s).kernel_time(
          o.replicas.overhead_flops + row / members, 0.0);
    }
    times.push_back(t);
    first += members;
  }
  return times;
}

/// The fleet's batch-1 service rate (requests/s).
double batch1_rate(const simnet::Machine& m, const serve::ServeOptions& o) {
  double rate = 0.0;
  for (double t : batch1_times(m, o)) rate += 1.0 / t;
  return rate;
}

/// One Server::run of @p o on @p rt.  Optional outputs: the host time of
/// Server::run, the run's makespan, and when the router thread started.
serve::ServeStats replay(comm::Runtime& rt, const serve::ServeOptions& o,
                         double* host_s, double* sim_s,
                         double* router_start_s = nullptr) {
  serve::ServeStats stats;
  rt.run([&](comm::Comm& comm) {
    if (comm.rank() == 0 && router_start_s != nullptr) {
      *router_start_s = now_s();
    }
    serve::ReplicaSet replicas(comm, o.replicas);
    if (!replicas.is_router()) {
      replicas.serve_loop();
      return;
    }
    serve::Server server(comm, replicas, o);
    const double t = now_s();
    stats = server.run();
    if (host_s != nullptr) *host_s = now_s() - t;
  });
  if (sim_s != nullptr) *sim_s = rt.max_sim_time();
  return stats;
}

/// Exact latency percentile (ms) over the completed requests.
double latency_ms(const serve::ServeStats& s, double p) {
  std::vector<double> ms;
  ms.reserve(s.records.size());
  for (const auto& r : s.records) ms.push_back(r.latency_s * 1e3);
  return percentile(std::move(ms), p);
}

/// Every admitted id completed exactly once.
bool exactly_once(const serve::ServeStats& s) {
  std::set<std::uint64_t> ids;
  for (const auto& r : s.records) {
    if (!ids.insert(r.id).second || r.id >= s.offered) return false;
  }
  return ids.size() == s.admitted && s.completed == s.admitted;
}

/// Running account of every replay.  Only the first timed replay is kept
/// whole (all replays are identical); the rest fold into counters so the
/// bookkeeping does not grow with the window.
struct ServeLog {
  serve::ServeStats first;  ///< first timed replay, records included
  bool have_first = false;
  bool once = true;         ///< exactly-once held on every replay
  bool same = true;         ///< every replay's digest equals the first's
  std::uint64_t offered = 0, completed = 0;  ///< timed replays

  void add(const serve::ServeStats& s, bool timed) {
    once = once && exactly_once(s);
    if (!have_first) {
      first = s;
      have_first = true;
    }
    same = same && s.digest == first.digest;
    if (timed) {
      offered += s.offered;
      completed += s.completed;
    }
  }
};

Episode serve_episode(const Options& opt, bool first, int timed,
                      ServeLog& log) {
  Episode ep;
  const double t0 = first ? process_start_s() : now_s();
  simnet::Machine machine = fleet_machine();
  const serve::ServeOptions probe = fleet_options(opt.seed, 1.0, 1);
  const double rate = kNominalLoad * batch1_rate(machine, probe);
  const serve::ServeOptions o = fleet_options(opt.seed, rate, kRequests);

  const double td = now_s();
  const auto trace = serve::generate_trace(o.arrivals);
  ep.host.data_s = now_s() - td;

  const double ts = now_s();
  comm::Runtime rt(std::move(machine));
  const double ctor_s = now_s() - ts;
  for (int i = 0; i < kWarmupReplays; ++i) {
    const double run_call = now_s();
    double started = run_call;
    log.add(replay(rt, o, nullptr, nullptr, &started), /*timed=*/false);
    if (i == 0) ep.host.spawn_s = ctor_s + (started - run_call);
  }
  ep.host.setup_s = now_s() - t0;
  ep.host.window_begin_ns = obs::Tracer::instance().real_now_ns();
  for (int i = 0; i < timed; ++i) {
    double host_s = 0.0;
    const serve::ServeStats s = replay(rt, o, &host_s, &ep.sim_s);
    ep.host.step_ms.push_back(host_s * 1e3);
    ep.host.step_rate.push_back(static_cast<double>(s.completed) / host_s);
    ep.host.timed_s += host_s;
    ep.host.timed_items += s.completed;
    log.add(s, /*timed=*/true);
  }
  ep.host.window_end_ns = obs::Tracer::instance().real_now_ns();
  ep.steps = static_cast<std::uint64_t>(kWarmupReplays + timed);
  ep.items = ep.steps * trace.size();
  ep.threads = par::num_threads();
  return ep;
}

/// Highest ladder rate that meets the SLO (0 when none does).
double slo_rate(const Options& opt, Output& out) {
  simnet::Machine machine = fleet_machine();
  const serve::ServeOptions probe = fleet_options(opt.seed, 1.0, 1);
  const double base = batch1_rate(machine, probe);
  const std::vector<double> times = batch1_times(machine, probe);
  comm::Runtime rt(std::move(machine));
  double best = 0.0;
  for (double mult : kLadder) {
    const double rate = mult * base;
    const serve::ServeOptions o =
        fleet_options(opt.seed, rate, kLadderRequests);
    const auto trace = serve::generate_trace(o.arrivals);
    const serve::ServeStats s = replay(rt, o, nullptr, nullptr);
    const double drain_ms = (s.makespan_s - trace.back().arrival_s) * 1e3;
    const bool ok = s.rejected == 0 && s.completed == s.offered &&
                    latency_ms(s, 99.0) <= kSloMs && drain_ms <= kSloMs;
    if (ok) best = rate;
    char key[32];
    std::snprintf(key, sizeof key, "ladder_p99_ms@%gx", mult);
    out.bases[key] = latency_ms(s, 99.0);
    std::snprintf(key, sizeof key, "ladder_drain_ms@%gx", mult);
    out.bases[key] = drain_ms;
    std::snprintf(key, sizeof key, "ladder_rejected@%gx", mult);
    out.bases[key] = static_cast<double>(s.rejected);
  }
  out.bases["batch1_rate_rps"] = base;
  out.bases["nominal_rate_rps"] = kNominalLoad * base;
  for (std::size_t r = 0; r < times.size(); ++r) {
    out.bases["replica" + std::to_string(r) + "_batch1_ms"] = times[r] * 1e3;
  }
  return best;
}

/// Simulated-time attribution of one traced nominal replay (replays restart
/// the simulated clocks, so the report covers exactly one).
msa::obs::Attribution sim_attribution(const Options& opt) {
  simnet::Machine machine = fleet_machine();
  const double rate =
      kNominalLoad * batch1_rate(machine, fleet_options(opt.seed, 1.0, 1));
  comm::Runtime rt(std::move(machine));
  TraceAcc::arm();
  (void)replay(rt, fleet_options(opt.seed, rate, kRequests), nullptr, nullptr);
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  const auto agg = obs::Report::from_tracer().aggregate();
  tracer.clear();
  return agg;
}

/// ParamStore bytes (param + grad + optimizer state) of the whole fleet.
/// ReplicaSet keeps its stages private, so this rebuilds what it builds:
/// each replica's MLP split into one stage per member, each stage with the
/// Sgd(0) optimizer inference replicas carry.
double fleet_slab_bytes(const serve::ReplicaSetOptions& o) {
  double bytes = 0.0;
  for (int members : o.replica_sizes) {
    tensor::Rng rng(o.model.seed);
    auto parts = dist::partition_model(
        nn::make_mlp(o.model.features, o.model.hidden, o.model.classes, rng),
        members);
    for (auto& part : parts) {
      nn::ParamStore store(*part);
      nn::Sgd sgd(0.0);
      store.attach_optimizer(sgd);
      bytes += 4.0 * static_cast<double>(store.param_span().size() +
                                         store.grad_span().size() +
                                         store.opt_span().size());
    }
  }
  return bytes;
}

}  // namespace

Output run_serve_fleet(const Options& opt) {
  if (opt.setup_only) {
    ServeLog log;
    return setup_probe(serve_episode(opt, /*first=*/true, /*timed=*/1, log));
  }
  Output out;
  out.bases["nominal_load"] = kNominalLoad;
  out.bases["slo_ms"] = kSloMs;
  TraceAcc acc;
  acc.attribute_sim = false;
  ServeLog log;
  double traced_router_s = 0.0;
  std::uint64_t traced_done = 0;
  int traced_episodes = 0;
  const auto eps = run_episodes(
      opt, /*min_episodes=*/3,
      [&](bool first) {
        return serve_episode(opt, first, kTimedReplays, log);
      },
      [&](const Episode& e) {
        acc.collect(e, {0, 1, 2, 3});
        traced_router_s += e.host.timed_s;
        traced_done += e.host.timed_items;
        ++traced_episodes;
      },
      out);

  std::vector<HostLog> untraced;
  std::vector<double> replay_rates;
  for (const auto& e : eps) {
    if (e.traced) continue;
    untraced.push_back(e.host);
    replay_rates.insert(replay_rates.end(), e.host.step_rate.begin(),
                        e.host.step_rate.end());
  }
  summarise_host(untraced, out);
  // One Server::run is the unit of serving work, so the rate is the median
  // over every untraced replay of the run: a neighbour's burst stretches a
  // few replays and barely moves it, where it drags a whole episode's mean.
  out.bases["host_items_per_s_episode_median"] =
      out.metrics["host_items_per_s"];
  out.metrics["host_items_per_s"] = median(replay_rates);
  out.bases["host_rate_replays"] = static_cast<double>(replay_rates.size());

  // Checks: exactly-once completion, and one digest for every replay —
  // warm-up or timed, traced or untraced.
  out.check("serve_exactly_once", log.once);
  out.check("serve_digest_identical", log.same);
  out.check("no_dropped_spans", acc.dropped == 0);
  out.attempted = log.offered;
  out.failed = log.same ? log.offered - log.completed : log.offered;

  // Sim metrics at the nominal rate: every replay is identical, take one.
  const serve::ServeStats& s = log.first;
  out.metrics["sim_items_per_s"] = s.goodput_rps;
  out.metrics["sim_p50_ms"] = latency_ms(s, 50.0);
  out.metrics["sim_p99_ms"] = latency_ms(s, 99.0);
  std::uint64_t rows = 0, batches = 0;
  for (const auto& r : s.replicas) {
    rows += r.rows;
    batches += r.batches;
  }
  out.metrics["serve.batch_rows_mean"] =
      batches > 0 ? static_cast<double>(rows) / static_cast<double>(batches)
                  : 0.0;
  out.metrics["serve.booster_row_share"] =
      rows > 0 ? static_cast<double>(s.replicas.back().rows) /
                     static_cast<double>(rows)
               : 0.0;
  std::vector<double> queue_ms;
  for (const auto& r : s.records) {
    queue_ms.push_back((r.dispatch_s - r.arrival_s) * 1e3);
  }
  out.metrics["serve.queue_p99_ms"] = percentile(queue_ms, 99.0);

  // Per-layer host figures from the traced replays.
  const double traced_offered =
      static_cast<double>(traced_episodes) * kTimedReplays * kRequests;
  const serve::ServeOptions o = fleet_options(opt.seed, 1.0, 1);
  const double row_flops = flops_per_row(o.replicas.model);
  const LayerTally& L = acc.layers;
  const double replays =
      static_cast<double>(traced_episodes) * kTimedReplays;
  const double done = traced_done > 0 ? static_cast<double>(traced_done) : 1.0;
  out.metrics["nn.forward_ms"] =
      replays > 0 ? L.forward_s / replays * 1e3 : 0.0;
  out.metrics["nn.infer_us_per_row"] = L.forward_s / done * 1e6;
  out.metrics["tensor.fwd_gflops"] =
      L.forward_s > 0.0 ? row_flops * done / L.forward_s * 1e-9 : 0.0;
  out.metrics["comm.host_ms_per_step"] =
      replays > 0 ? L.comm_s / (replays * acc.layer_ranks) * 1e3 : 0.0;
  out.metrics["serve.router_us_per_req"] =
      traced_offered > 0 ? traced_router_s / traced_offered * 1e6 : 0.0;
  out.metrics["nn.param_slab_mb"] = fleet_slab_bytes(o.replicas) / 1e6;
  const double items = acc.items > 0 ? static_cast<double>(acc.items) : 1.0;
  out.metrics["comm.msgs_per_item"] = static_cast<double>(acc.msgs) / items;
  out.metrics["comm.bytes_per_item"] = static_cast<double>(acc.bytes) / items;
  out.metrics["obs.spans_per_item"] = static_cast<double>(acc.spans) / items;
  out.metrics["obs.dropped_spans"] = static_cast<double>(acc.dropped);
  out.metrics["par.threads"] = static_cast<double>(par::num_threads());
  const double untraced_s = out.bases["host_seconds"];
  if (untraced_s > 0.0 && traced_router_s > 0.0) {
    const double untraced_rate = out.bases["host_items"] / untraced_s;
    out.metrics["obs.trace_overhead_frac"] =
        1.0 -
        static_cast<double>(traced_done) / traced_router_s / untraced_rate;
  }
  if (opt.trace) {
    out.metrics["sim_slo_rate_rps"] = slo_rate(opt, out);
    const msa::obs::Attribution a = sim_attribution(opt);
    out.metrics["dist.sim_comm_exposed_frac"] = a.comm_fraction();
    out.metrics["dist.sim_comm_hidden_frac"] = a.hidden_comm_fraction();
    out.metrics["dist.sim_compute_frac"] = a.compute_fraction();
    out.metrics["dist.sim_bubble_frac"] = a.bubble_fraction();
  }
  return out;
}

}  // namespace msabench
