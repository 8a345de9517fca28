// msabench: one workload of the msalib benchmark per invocation.
//
//   msabench --workload <dp_resnet|hybrid_pp|gru_ards|serve_fleet>
//            --seed <n> --seconds <s> --trace <0|1> [--setup-only]
//
// --setup-only runs one cold episode cut to a single timed step and reports
// its set-up figures only; run.py takes setup_s as the median of several such
// fresh processes, so one-time costs (pool spawn, first touch) stay in it.
//
// Prints one JSON line with every metric it measured, the bases of its
// rates, and the outcome of each correctness check.  perfbench/run.py builds
// this binary, sets MSA_THREADS / MSA_TRACE for the workload, and turns the
// line into the benchmark's result record.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace msabench {

namespace {
double g_process_start = now_s();
}  // namespace

double process_start_s() { return g_process_start; }

LayerTally tally_spans(const std::vector<msa::obs::Span>& spans, int rank,
                       std::uint64_t begin_ns, std::uint64_t end_ns) {
  using msa::obs::Category;
  LayerTally t;
  for (const auto& s : spans) {
    if (s.rank != rank || s.instant) continue;
    if (s.real_begin_ns < begin_ns || s.real_end_ns > end_ns) continue;
    const double d =
        static_cast<double>(s.real_end_ns - s.real_begin_ns) * 1e-9;
    const std::string name = s.name;
    if (s.cat == Category::Compute) {
      if (name == "forward") {
        t.forward_s += d;
        t.forward_only_s += d;
        ++t.forwards;
      } else if (name == "recompute") {
        t.forward_s += d;
      } else if (name == "backward") {
        t.backward_s += d;
      } else if (name == "optimizer") {
        t.optimizer_s += d;
      }
    } else if (s.cat == Category::Step) {
      if (name == "step" || name == "pipe_step") {
        t.step_s += d;
        ++t.steps;
      }
    } else if (s.cat == Category::Comm && s.ctx != Category::Comm) {
      t.comm_s += d;
    }
  }
  return t;
}

void summarise_host(const std::vector<HostLog>& logs, Output& out) {
  std::vector<double> steps, warm, rates;
  double timed_s = 0.0;
  std::uint64_t items = 0;
  for (const auto& l : logs) {
    steps.insert(steps.end(), l.step_ms.begin(), l.step_ms.end());
    if (l.cold) {
      out.bases["setup_cold_s"] = l.setup_s;
    } else {
      warm.push_back(l.setup_s);
    }
    if (l.timed_s > 0.0) {
      rates.push_back(static_cast<double>(l.timed_items) / l.timed_s);
    }
    timed_s += l.timed_s;
    items += l.timed_items;
  }
  out.bases["setup_warm_median_s"] = median(warm);
  // Median of the per-episode rates: episodes a noisy neighbour slowed down
  // move it less than a pooled mean.  The pooled base is kept beside it.
  out.metrics["host_items_per_s"] = median(rates);
  out.bases["host_items"] = static_cast<double>(items);
  out.bases["host_seconds"] = timed_s;
  out.bases["host_episodes"] = static_cast<double>(logs.size());
  out.metrics["host_step_p50_ms"] = median(steps);
  // Highest percentile of a fixed ladder with >= 10 samples beyond it.
  double pct = 50.0;
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(steps.size()) * (1.0 - p / 100.0) >= 10.0) {
      pct = p;
      break;
    }
  }
  out.metrics["host_step_tail_ms"] = percentile(steps, pct);
  out.bases["host_step_tail_pct"] = pct;
  out.bases["host_steps"] = static_cast<double>(steps.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace msabench

namespace {

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void print_output(const msabench::Options& opt, const msabench::Output& out) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  std::printf("\"msa_threads\": %zu, \"nproc\": %zu, ",
              msa::par::num_threads(), opt.nproc);
  auto print_map = [](const char* key,
                      const std::map<std::string, double>& m) {
    std::printf("\"%s\": {", key);
    bool first = true;
    for (const auto& [k, v] : m) {
      std::printf("%s\"%s\": ", first ? "" : ", ", k.c_str());
      print_number(v);
      first = false;
    }
    std::printf("}, ");
  };
  print_map("metrics", out.metrics);
  print_map("bases", out.bases);
  std::printf("\"checks\": {");
  bool first = true;
  for (const auto& [name, ok] : out.checks) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                ok ? "true" : "false");
    first = false;
  }
  std::printf("}, \"attempted\": %llu, \"failed\": %llu}\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
}

int usage() {
  std::fprintf(stderr,
               "usage: msabench --workload <dp_resnet|hybrid_pp|gru_ards|"
               "serve_fleet> --seed <n> --seconds <s> --trace <0|1> "
               "[--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  msabench::Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 == argc) return usage();
    const char* val = argv[++i];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::string(val) == "1";
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0.0) return usage();

  // Big enough per-thread rings that a traced episode never overwrites
  // spans; the tracer stays disarmed except around traced episodes.
  setenv("MSA_TRACE_SPANS", "262144", /*overwrite=*/0);
  msa::obs::Tracer::instance().configure_from_env();
  msa::obs::Tracer::instance().set_enabled(false);

  msabench::Output out;
  if (opt.workload == "dp_resnet") {
    out = msabench::run_dp_resnet(opt);
  } else if (opt.workload == "hybrid_pp") {
    out = msabench::run_hybrid_pp(opt);
  } else if (opt.workload == "gru_ards") {
    out = msabench::run_gru_ards(opt);
  } else if (opt.workload == "serve_fleet") {
    out = msabench::run_serve_fleet(opt);
  } else {
    return usage();
  }
  out.metrics["failed_frac"] =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  print_output(opt, out);
  return out.all_ok() && out.failed == 0 ? 0 : 1;
}
