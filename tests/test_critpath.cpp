// Tests for the critical-path & wait-state engine (obs::critpath), the
// post-mortem flight recorder (obs::flight), and the windowed time-series
// telemetry (obs::TimeSeries).
//
// Contracts under test: a hand-built two-rank timeline yields exactly the
// known critical path and wait decomposition (the oracle); the analysis is
// a pure function of the span snapshot, so replays and different
// MSA_THREADS settings produce byte-identical JSON; path length equals the
// end-of-timeline simulated time by construction; the exposed-comm
// fraction on a real overlapped step is consistent with the aggregate
// attribution report; an injected mid-step kill produces a parseable
// post-mortem with every surviving rank's tail spans; and ring overwrites
// are counted in dropped_count() and the obs.trace.dropped_spans counter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/distributed.hpp"
#include "fault/injector.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "obs/critpath.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::Runtime;
using msa::dist::AllreduceOptions;
using msa::dist::DistributedTrainer;
using msa::fault::FaultInjector;
using msa::fault::FaultPlan;
using msa::obs::Category;
using msa::obs::EdgeKind;
using msa::obs::Registry;
using msa::obs::Report;
using msa::obs::Span;
using msa::obs::Tracer;
using msa::obs::critpath::Analysis;
using msa::obs::critpath::WaitState;
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

#ifdef MSA_OBS_DISABLED
#define MSA_REQUIRE_OBS() GTEST_SKIP() << "built with MSA_OBS=OFF"
#else
#define MSA_REQUIRE_OBS() (void)0
#endif

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

/// Hand-built span on rank @p rank covering [b, e] sim seconds.
Span make_span(int rank, Category cat, double b, double e, std::uint64_t seq,
               EdgeKind edge = EdgeKind::None, int peer = -1, int tag = 0,
               std::uint64_t detail = 0) {
  Span s;
  s.rank = rank;
  s.cat = cat;
  s.sim_begin_s = b;
  s.sim_end_s = e;
  s.seq = seq;
  s.edge = edge;
  s.peer = peer;
  s.tag = tag;
  s.detail = detail;
  return s;
}

// ---- oracle timeline ---------------------------------------------------------

TEST(Critpath, OracleTimelineMatchesHandComputedPath) {
  // rank 0: compute [0, 1.0], then sends tag 5 at t = 1.0.
  // rank 1: compute [0, 0.5], blocks on the recv [0.5, 1.2] (message sent at
  //         1.0, transfer 0.2), compute [1.2, 1.5].
  // Known critical path: r1 local [1.2, 1.5] <- late-sender wait [1.0, 1.2]
  // <- r0 local [0, 1.0].  The receiver-early interval [0.5, 1.0] is the
  // sender's fault (late sender), the in-flight tail [1.0, 1.2] rides the
  // jump to the sender's send time — total wait on path is 0.2 s and the
  // path length is exactly the end-to-end 1.5 s.
  std::vector<Span> spans;
  spans.push_back(make_span(0, Category::Compute, 0.0, 1.0, 0));
  spans.push_back(make_span(0, Category::Comm, 1.0, 1.0, 1, EdgeKind::Send,
                            /*peer=*/1, /*tag=*/5, /*detail=*/7));
  spans.push_back(make_span(1, Category::Compute, 0.0, 0.5, 0));
  spans.push_back(make_span(1, Category::Comm, 0.5, 1.2, 1, EdgeKind::Recv,
                            /*peer=*/0, /*tag=*/5, /*detail=*/7));
  spans.push_back(make_span(1, Category::Compute, 1.2, 1.5, 2));

  const Analysis a = msa::obs::critpath::analyze(spans);
  EXPECT_EQ(a.end_rank, 1);
  EXPECT_DOUBLE_EQ(a.end_time_s, 1.5);
  EXPECT_DOUBLE_EQ(a.path_length_s, 1.5);
  ASSERT_EQ(a.segments.size(), 3u);
  EXPECT_EQ(a.segments[0].rank, 0);  // chronological: r0 local first
  EXPECT_EQ(a.segments[0].wait, WaitState::None);
  EXPECT_DOUBLE_EQ(a.segments[0].begin_s, 0.0);
  EXPECT_DOUBLE_EQ(a.segments[0].end_s, 1.0);
  EXPECT_EQ(a.segments[1].rank, 1);
  EXPECT_EQ(a.segments[1].wait, WaitState::LateSender);
  EXPECT_EQ(a.segments[1].from_rank, 0);
  EXPECT_DOUBLE_EQ(a.segments[1].begin_s, 1.0);
  EXPECT_DOUBLE_EQ(a.segments[1].end_s, 1.2);
  EXPECT_EQ(a.segments[2].rank, 1);
  EXPECT_EQ(a.segments[2].wait, WaitState::None);

  EXPECT_DOUBLE_EQ(a.waits.late_sender_s, 0.2);
  EXPECT_DOUBLE_EQ(a.waits.late_receiver_s, 0.0);  // structurally empty
  EXPECT_DOUBLE_EQ(a.waits.collective_skew_s, 0.0);
  EXPECT_DOUBLE_EQ(a.waits.nic_s, 0.0);
  EXPECT_DOUBLE_EQ(a.blocked_s, 0.2);
  EXPECT_DOUBLE_EQ(a.local_by_cat_s[static_cast<int>(Category::Compute)], 1.3);
  EXPECT_EQ(a.edges_matched, 1u);
  EXPECT_EQ(a.recvs_unmatched, 0u);

  // Per-rank shares: rank 0 worked 1.0 s on the path, rank 1 worked 0.3 s
  // and was blocked 0.2 s.
  ASSERT_EQ(a.ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(a.ranks[0].local_s, 1.0);
  EXPECT_DOUBLE_EQ(a.ranks[0].wait_s, 0.0);
  EXPECT_DOUBLE_EQ(a.ranks[1].local_s, 0.3);
  EXPECT_DOUBLE_EQ(a.ranks[1].wait_s, 0.2);
}

TEST(Critpath, ClassifiesNicOccupancyAndCollectiveSkew) {
  // In-flight case: message sent at 0.2, receiver only starts waiting at
  // 0.5.  The receiver's own pre-wait work [0, 0.5] had slack — the true
  // constraint chain is sender [0, 0.2] -> wire [0.2, 0.9] -> receiver
  // [0.9, 1.0], so the whole in-flight window (0.7 s) lands on the path as
  // NIC occupancy.
  std::vector<Span> spans;
  spans.push_back(make_span(0, Category::Compute, 0.0, 0.2, 0));
  spans.push_back(make_span(0, Category::Comm, 0.2, 0.2, 1, EdgeKind::Send,
                            1, 9, 3));
  spans.push_back(make_span(1, Category::Compute, 0.0, 0.5, 0));
  spans.push_back(make_span(1, Category::Comm, 0.5, 0.9, 1, EdgeKind::Recv,
                            0, 9, 3));
  spans.push_back(make_span(1, Category::Compute, 0.9, 1.0, 2));
  {
    const Analysis a = msa::obs::critpath::analyze(spans);
    EXPECT_DOUBLE_EQ(a.path_length_s, 1.0);
    EXPECT_DOUBLE_EQ(a.waits.nic_s, 0.7);
    EXPECT_DOUBLE_EQ(a.waits.late_sender_s, 0.0);
  }

  // Collective-internal tags (negative) classify as collective skew when
  // the peer had not sent yet.
  spans.clear();
  spans.push_back(make_span(0, Category::Compute, 0.0, 0.8, 0));
  spans.push_back(make_span(0, Category::Comm, 0.8, 0.8, 1, EdgeKind::Send,
                            1, -4, 3));
  spans.push_back(make_span(1, Category::Comm, 0.1, 0.9, 0, EdgeKind::Recv,
                            0, -4, 3));
  spans.push_back(make_span(1, Category::Compute, 0.9, 1.0, 1));
  {
    const Analysis a = msa::obs::critpath::analyze(spans);
    EXPECT_DOUBLE_EQ(a.path_length_s, 1.0);
    EXPECT_DOUBLE_EQ(a.waits.collective_skew_s, 0.1);  // [0.8, 0.9]
    EXPECT_DOUBLE_EQ(a.waits.late_sender_s, 0.0);
  }
}

TEST(Critpath, UnmatchedWaitStaysOnRankAndTerminates) {
  // A recv with no recorded send (e.g. dropped peer) must not break the
  // walk: the path stays on the blocked rank and continues before the wait.
  std::vector<Span> spans;
  spans.push_back(make_span(0, Category::Compute, 0.0, 0.3, 0));
  spans.push_back(make_span(0, Category::Comm, 0.3, 0.7, 1, EdgeKind::Recv,
                            1, 2, 3));
  spans.push_back(make_span(0, Category::Compute, 0.7, 1.0, 2));
  const Analysis a = msa::obs::critpath::analyze(spans);
  EXPECT_DOUBLE_EQ(a.path_length_s, 1.0);
  EXPECT_EQ(a.recvs_unmatched, 1u);
  EXPECT_DOUBLE_EQ(a.blocked_s, 0.4);
  EXPECT_DOUBLE_EQ(a.local_total_s, 0.6);
}

// ---- real runs ---------------------------------------------------------------

/// One overlapped data-parallel training run; tracer armed by the caller.
void run_overlapped_training(int ranks, int steps) {
  Runtime rt(Machine::homogeneous(ranks, 2, test_config(), ComputeProfile{}));
  rt.run([&](Comm& comm) {
    Rng rng(7);
    auto model = msa::nn::make_mlp(8, {16, 12}, 4, rng);
    msa::nn::Sgd opt(0.05, 0.9);
    AllreduceOptions opts;
    opts.overlap = true;
    opts.bucket_bytes = 1u << 10;
    DistributedTrainer trainer(comm, *model, opt, opts);
    msa::dist::broadcast_parameters(comm, trainer.param_store());
    Rng drng(100 + comm.rank());
    for (int s = 0; s < steps; ++s) {
      Tensor x = Tensor::randn({4, 8}, drng);
      std::vector<std::int32_t> y(4);
      for (auto& v : y) v = static_cast<std::int32_t>(drng.uniform_index(4));
      (void)trainer.step_classification(x, y);
    }
  });
}

TEST(Critpath, DeterministicAcrossReplaysAndThreadCounts) {
  MSA_REQUIRE_OBS();
  TracerFixture fixture;
  const std::size_t saved = msa::par::num_threads();

  auto run_once = [&](std::size_t threads) {
    msa::par::set_num_threads(threads);
    Tracer::instance().clear();
    run_overlapped_training(4, 4);
    return msa::obs::critpath::from_tracer().to_json(/*with_segments=*/true);
  };

  const std::string a = run_once(1);
  const std::string b = run_once(1);  // replay
  const std::string c = run_once(8);  // different worker-pool width
  msa::par::set_num_threads(saved);

  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "replay changed the critical path";
  EXPECT_EQ(a, c) << "MSA_THREADS changed the critical path";
}

TEST(Critpath, PathPartitionsTimelineAndAgreesWithAttribution) {
  MSA_REQUIRE_OBS();
  TracerFixture fixture;
  run_overlapped_training(4, 6);

  const Analysis a = msa::obs::critpath::from_tracer();
  ASSERT_GT(a.spans_seen, 0u);
  EXPECT_EQ(Tracer::instance().dropped_count(), 0u);

  // The segment chain partitions [0, end] — length == end-to-end sim time
  // up to float summation.
  EXPECT_NEAR(a.path_length_s, a.end_time_s, 1e-9 * a.end_time_s);
  // Wait categories decompose the blocked time exactly.
  EXPECT_DOUBLE_EQ(a.blocked_s, a.waits.total());
  EXPECT_DOUBLE_EQ(a.local_total_s + a.blocked_s, a.path_length_s);
  // Sends never block in this runtime.
  EXPECT_DOUBLE_EQ(a.waits.late_receiver_s, 0.0);

  // Consistency with the aggregate attribution: on a symmetric data-parallel
  // run the path's exposed-comm share tracks the fleet-average comm
  // fraction.  (They are different estimators — path vs average — so the
  // test uses a coarse band; the 128-GPU bench asserts the tight one.)
  const auto attr = Report::from_tracer().aggregate();
  EXPECT_NEAR(a.exposed_comm_fraction(), attr.comm_fraction(), 0.15)
      << "critpath=" << a.exposed_comm_fraction()
      << " attribution=" << attr.comm_fraction();
}

// ---- flight recorder ---------------------------------------------------------

TEST(Flight, PostMortemOnInjectedKillIsParseableAndHasSurvivorTails) {
  MSA_REQUIRE_OBS();
  TracerFixture fixture;
  auto& rec = msa::obs::flight::FlightRecorder::instance();
  const std::string path = ::testing::TempDir() + "msa_flight_test.json";
  std::remove(path.c_str());
  rec.arm(path, /*tail_spans=*/64);
  const std::uint64_t dumps_before = rec.dumps_written();

  Runtime rt(Machine::homogeneous(4, 2, test_config(), ComputeProfile{}));
  FaultPlan plan;
  plan.kills.push_back({.world_rank = 2, .step = 1});
  FaultInjector::arm(rt, plan);
  rt.run([&](Comm& comm) {
    std::vector<float> grad(64, 1.0f);
    for (int s = 0; s < 3; ++s) {
      comm.progress(s);  // rank 2 dies at step 1
      try {
        comm.allreduce(std::span<float>(grad), msa::comm::ReduceOp::Sum);
      } catch (const msa::comm::RankFailedError&) {
        break;  // survivors stop cleanly once the fleet is broken
      }
    }
  });
  rec.disarm();

  ASSERT_EQ(rt.killed_ranks().size(), 1u);
  EXPECT_EQ(rec.dumps_written(), dumps_before + 1);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "post-mortem not written to " << path;
  std::string body;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("\"reason\":\"rank_killed\""), std::string::npos);
  EXPECT_NE(body.find("{\"rank\":2,\"step\":1}"), std::string::npos);
  // Every rank (survivors included) contributes a tail.
  for (int r = 0; r < 4; ++r) {
    const std::string key = "{\"rank\":" + std::to_string(r) + ",\"spans_";
    EXPECT_NE(body.find(key), std::string::npos) << "no tail for rank " << r;
  }
  EXPECT_NE(body.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(body.find("\"critpath\":"), std::string::npos);
  // Balanced braces/brackets outside strings — cheap structural JSON check
  // (the full checker lives in test_obs.cpp; this guards truncation).
  long depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char ch = body[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
    } else if (ch == '"') {
      in_str = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced post-mortem JSON";
  EXPECT_EQ(body.back(), '}');
}

// ---- dropped spans -----------------------------------------------------------

TEST(Trace, RingOverwritesAreCountedAndExported) {
  MSA_REQUIRE_OBS();
  TracerFixture fixture;
  auto& counter = Registry::instance().counter("obs.trace.dropped_spans");
  const std::uint64_t counter_before = counter.value();

  ::setenv("MSA_TRACE_SPANS", "4", 1);
  Tracer::instance().configure_from_env();
  Tracer::instance().clear();  // re-applies the 4-span capacity
  for (int i = 0; i < 10; ++i) {
    msa::obs::record_interval(Category::Compute, "tiny", /*rank=*/0,
                              static_cast<double>(i),
                              static_cast<double>(i) + 0.5);
  }
  EXPECT_EQ(Tracer::instance().dropped_count(), 6u);
  EXPECT_EQ(counter.value(), counter_before + 6);
  const std::string json = Tracer::instance().chrome_trace_json();
  EXPECT_NE(json.find("\"dropped_spans\":6"), std::string::npos) << json.substr(0, 200);

  ::unsetenv("MSA_TRACE_SPANS");
  Tracer::instance().configure_from_env();
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().dropped_count(), 0u);
}

// ---- time series -------------------------------------------------------------

TEST(Timeseries, PrefixFilteredRowsAreDeterministic) {
  auto& g = Registry::instance().gauge("tstest.value");
  auto& other = Registry::instance().gauge("elsewhere.value");
  other.set(99.0);

  auto series_once = [&] {
    msa::obs::TimeSeries ts("tstest.");
    for (int w = 0; w < 3; ++w) {
      g.set(static_cast<double>(w) * 1.5);
      ts.sample(static_cast<double>(w), "window");
    }
    return ts.to_jsonl();
  };
  const std::string a = series_once();
  const std::string b = series_once();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"tstest.value\":1.500000000"), std::string::npos) << a;
  EXPECT_EQ(a.find("elsewhere"), std::string::npos) << "prefix filter leaked";
  // One line per sample, each a JSON object.
  int lines = 0;
  for (char ch : a) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3);
}

}  // namespace
