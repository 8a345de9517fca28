// Tests for the msa::obs observability subsystem.
//
// Contracts under test: sharded metrics merge to exact integer counts no
// matter how many threads write them; tracing never perturbs numerics
// (traced and untraced training runs are bit-identical); the Chrome trace
// export is syntactically valid JSON with well-formed span nesting; and a
// disarmed tracer records nothing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/distributed.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::Runtime;
using msa::dist::DistributedTrainer;
using msa::obs::Category;
using msa::obs::Registry;
using msa::obs::Report;
using msa::obs::Span;
using msa::obs::Tracer;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;
using msa::tensor::Tensor;

MachineConfig test_config() {
  MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  return cfg;
}

// With the subsystem compiled out (-DMSA_OBS=OFF), spans are never recorded
// and arming is a no-op; tests that require an armed tracer are vacuous.
#ifdef MSA_OBS_DISABLED
#define MSA_REQUIRE_OBS() GTEST_SKIP() << "built with MSA_OBS=OFF"
#else
#define MSA_REQUIRE_OBS() (void)0
#endif

/// Arms the tracer and clears prior spans; restores always-on default on
/// scope exit so test ordering never matters.
struct TracerFixture {
  TracerFixture() {
    Tracer::instance().set_enabled(true);
    Tracer::instance().clear();
  }
  ~TracerFixture() {
    Tracer::instance().set_enabled(true);
    Tracer::instance().clear();
  }
};

// ---- metrics -----------------------------------------------------------------

TEST(Obs, CounterMergesExactlyAcrossThreads) {
  auto& c = Registry::instance().counter("test.exact");
  c.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Obs, MetricsSnapshotDeterministicAcrossParallelRuns) {
  // The same parallel_for workload must produce the identical snapshot every
  // run: operation counts depend only on the index-space decomposition, never
  // on which pool thread executed which chunk.
  auto& c = Registry::instance().counter("test.par_ops");
  auto& h = Registry::instance().histogram("test.par_hist", {1.0, 4.0, 16.0});
  auto workload = [&] {
    msa::par::parallel_for(0, 4096, 64, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        c.add(1);
        h.observe(static_cast<double>(i % 32));
      }
    });
  };

  workload();
  const auto first = Registry::instance().snapshot();
  c.reset();
  h.reset();
  workload();
  const auto second = Registry::instance().snapshot();

  EXPECT_EQ(first.counters.at("test.par_ops"), 4096u);
  EXPECT_EQ(first, second);
  // Exact bucket math: values are i%32, buckets (<=1, <=4, <=16, overflow).
  const auto& counts = first.histograms.at("test.par_hist").counts;
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 4096u / 32 * 2);   // 0, 1
  EXPECT_EQ(counts[1], 4096u / 32 * 3);   // 2, 3, 4
  EXPECT_EQ(counts[2], 4096u / 32 * 12);  // 5..16
  EXPECT_EQ(counts[3], 4096u / 32 * 15);  // 17..31
}

TEST(Obs, HistogramRejectsMismatchedReregistration) {
  (void)Registry::instance().histogram("test.bounds", {1.0, 2.0});
  EXPECT_THROW((void)Registry::instance().histogram("test.bounds", {3.0}),
               std::invalid_argument);
}

// ---- tracing vs numerics -----------------------------------------------------

struct TrainOutcome {
  std::vector<float> losses;
  std::vector<float> params;
};

TrainOutcome run_training() {
  TrainOutcome out;
  std::mutex m;
  Runtime rt(Machine::homogeneous(4, 2, test_config(), ComputeProfile{}));
  rt.run([&](Comm& comm) {
    Rng rng(7);
    auto model = msa::nn::make_mlp(6, {10}, 3, rng);
    msa::nn::Sgd opt(0.1, 0.9);
    DistributedTrainer trainer(comm, *model, opt);
    msa::dist::broadcast_parameters(comm, trainer.param_store());
    Rng drng(100 + comm.rank());
    std::vector<float> losses;
    for (int s = 0; s < 6; ++s) {
      Tensor x = Tensor::randn({4, 6}, drng);
      std::vector<std::int32_t> y(4);
      for (auto& v : y) v = static_cast<std::int32_t>(drng.uniform_index(3));
      losses.push_back(trainer.step_classification(x, y).loss);
    }
    if (comm.rank() == 0) {
      std::lock_guard lock(m);
      out.losses = std::move(losses);
      for (auto* p : model->params()) {
        out.params.insert(out.params.end(), p->data(),
                          p->data() + p->numel());
      }
    }
  });
  return out;
}

TEST(Obs, TracedRunBitIdenticalToUntraced) {
  MSA_REQUIRE_OBS();
  TracerFixture fixture;
  Tracer::instance().set_enabled(true);
  const TrainOutcome traced = run_training();
  EXPECT_GT(Tracer::instance().span_count(), 0u);

  Tracer::instance().clear();
  Tracer::instance().set_enabled(false);
  const TrainOutcome untraced = run_training();
  EXPECT_EQ(Tracer::instance().span_count(), 0u);

  ASSERT_EQ(traced.losses.size(), untraced.losses.size());
  for (std::size_t i = 0; i < traced.losses.size(); ++i) {
    EXPECT_EQ(traced.losses[i], untraced.losses[i]) << "loss " << i;
  }
  ASSERT_EQ(traced.params.size(), untraced.params.size());
  for (std::size_t i = 0; i < traced.params.size(); ++i) {
    EXPECT_EQ(traced.params[i], untraced.params[i]) << "param " << i;
  }
}

// ---- chrome export -----------------------------------------------------------

/// Minimal recursive-descent JSON syntax checker (no semantics).  Returns
/// the index one past the parsed value, or npos on error.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    std::size_t i = value(skip(0));
    if (i == npos) return false;
    return skip(i) == s_.size();
  }

 private:
  static constexpr std::size_t npos = std::string::npos;

  std::size_t skip(std::size_t i) const {
    while (i < s_.size() && (s_[i] == ' ' || s_[i] == '\n' || s_[i] == '\t' ||
                             s_[i] == '\r')) {
      ++i;
    }
    return i;
  }

  std::size_t value(std::size_t i) {
    if (i >= s_.size()) return npos;
    switch (s_[i]) {
      case '{': return object(i);
      case '[': return array(i);
      case '"': return string(i);
      case 't': return literal(i, "true");
      case 'f': return literal(i, "false");
      case 'n': return literal(i, "null");
      default: return number(i);
    }
  }

  std::size_t object(std::size_t i) {
    i = skip(i + 1);
    if (i < s_.size() && s_[i] == '}') return i + 1;
    while (i < s_.size()) {
      i = string(skip(i));
      if (i == npos) return npos;
      i = skip(i);
      if (i >= s_.size() || s_[i] != ':') return npos;
      i = value(skip(i + 1));
      if (i == npos) return npos;
      i = skip(i);
      if (i < s_.size() && s_[i] == ',') {
        i = skip(i + 1);
        continue;
      }
      return i < s_.size() && s_[i] == '}' ? i + 1 : npos;
    }
    return npos;
  }

  std::size_t array(std::size_t i) {
    i = skip(i + 1);
    if (i < s_.size() && s_[i] == ']') return i + 1;
    while (i < s_.size()) {
      i = value(i);
      if (i == npos) return npos;
      i = skip(i);
      if (i < s_.size() && s_[i] == ',') {
        i = skip(i + 1);
        continue;
      }
      return i < s_.size() && s_[i] == ']' ? i + 1 : npos;
    }
    return npos;
  }

  std::size_t literal(std::size_t i, const char* word) {
    const std::size_t n = std::string(word).size();
    return s_.compare(i, n, word) == 0 ? i + n : npos;
  }

  std::size_t string(std::size_t i) {
    if (i >= s_.size() || s_[i] != '"') return npos;
    for (++i; i < s_.size(); ++i) {
      if (s_[i] == '\\') {
        ++i;
      } else if (s_[i] == '"') {
        return i + 1;
      }
    }
    return npos;
  }

  std::size_t number(std::size_t i) {
    const std::size_t start = i;
    if (i < s_.size() && (s_[i] == '-' || s_[i] == '+')) ++i;
    bool digits = false;
    while (i < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i])) != 0 ||
            s_[i] == '.' || s_[i] == 'e' || s_[i] == 'E' || s_[i] == '-' ||
            s_[i] == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(s_[i])) != 0;
      ++i;
    }
    return digits && i > start ? i : npos;
  }

  const std::string& s_;
};

TEST(Obs, ChromeTraceParsesAndSpansNestWellFormed) {
  MSA_REQUIRE_OBS();
  TracerFixture fixture;
  (void)run_training();

  const std::string json = Tracer::instance().chrome_trace_json();
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);

  // Spans recorded on one thread must nest like a call stack: any two
  // intervals are disjoint or one contains the other (host-clock times; the
  // RAII discipline makes anything else a tracer bug).
  const std::vector<Span> spans = Tracer::instance().snapshot();
  ASSERT_FALSE(spans.empty());
  std::size_t checked = 0;
  for (std::size_t a = 0; a < spans.size(); ++a) {
    if (spans[a].instant) continue;
    for (std::size_t b = a + 1; b < spans.size() && checked < 200000; ++b) {
      if (spans[b].instant || spans[b].shard != spans[a].shard) continue;
      ++checked;
      const auto &x = spans[a], &y = spans[b];
      const bool disjoint =
          x.real_end_ns <= y.real_begin_ns || y.real_end_ns <= x.real_begin_ns;
      const bool x_in_y = y.real_begin_ns <= x.real_begin_ns &&
                          x.real_end_ns <= y.real_end_ns;
      const bool y_in_x = x.real_begin_ns <= y.real_begin_ns &&
                          y.real_end_ns <= x.real_end_ns;
      EXPECT_TRUE(disjoint || x_in_y || y_in_x)
          << x.name << " [" << x.real_begin_ns << "," << x.real_end_ns
          << ") vs " << y.name << " [" << y.real_begin_ns << ","
          << y.real_end_ns << ") on shard " << x.shard;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(Obs, ReportAttributesCommAndCompute) {
  MSA_REQUIRE_OBS();
  TracerFixture fixture;
  Runtime rt(Machine::homogeneous(4, 2, test_config(), ComputeProfile{}));
  rt.run([](Comm& comm) {
    std::vector<float> grad(4096, static_cast<float>(comm.rank()));
    for (int s = 0; s < 4; ++s) {
      comm.charge_compute(1e9, 1e6);
      comm.allreduce(std::span<float>(grad), msa::comm::ReduceOp::Sum);
    }
    comm.barrier();
  });

  const Report report = Report::from_tracer();
  ASSERT_EQ(report.ranks().size(), 4u);
  for (const auto& a : report.ranks()) {
    EXPECT_GT(a.comm_s, 0.0) << "rank " << a.rank;
    EXPECT_GT(a.compute_s, 0.0) << "rank " << a.rank;
    EXPECT_GT(a.comm_bytes, 0u) << "rank " << a.rank;
    EXPECT_GE(a.other_s, 0.0) << "rank " << a.rank;
    // Unshadowed attribution never exceeds the rank's total simulated time.
    EXPECT_LE(a.comm_s + a.compute_s + a.io_s + a.fault_s,
              a.total_s + 1e-12)
        << "rank " << a.rank;
  }
  EXPECT_GT(report.aggregate().comm_fraction(), 0.0);
  // JSON export of the report parses too.
  EXPECT_TRUE(JsonChecker(report.to_json()).valid());
}

// ---- gating ------------------------------------------------------------------

TEST(Obs, DisarmedTracerRecordsNothing) {
  TracerFixture fixture;
  Tracer::instance().set_enabled(false);
  (void)run_training();
  EXPECT_EQ(Tracer::instance().span_count(), 0u);
  EXPECT_EQ(Tracer::instance().recorded_count(), 0u);
}

TEST(Obs, EnvVarZeroDisarms) {
  MSA_REQUIRE_OBS();
  TracerFixture fixture;
  ::setenv("MSA_TRACE", "0", 1);
  Tracer::instance().configure_from_env();
  EXPECT_FALSE(msa::obs::trace_enabled());
  // Unset means always-on.
  ::unsetenv("MSA_TRACE");
  Tracer::instance().configure_from_env();
  EXPECT_TRUE(msa::obs::trace_enabled());
}

// ---- serialize error satellite ----------------------------------------------

TEST(Obs, CheckpointErrorCarriesOffendingPath) {
  const std::string path = "/nonexistent-dir/ckpt.params.bin";
  try {
    (void)msa::nn::load_tensors(path);
    FAIL() << "expected CheckpointError";
  } catch (const msa::nn::CheckpointError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

}  // namespace
