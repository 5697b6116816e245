// Critical-path profiler (src/obs/profile.h, docs/OBSERVABILITY.md): the
// critical-path method on synthetic DAGs with hand-set timestamps and
// declared stage roles (diamond / chain / fan-out / PipeGCN-deferred
// shapes), the epoch rollup identity (categories + optimizer + scheduling +
// serial == attributed wall), what-if bounds, the roles the trainer's
// graph builders declare, and the three house invariants through
// DistTrainer: profiling on vs. off is bit-identical for every method x
// async x threads, EpochRow's overlap is exactly the sum of the segments'
// (one overlap computation), and warm epochs stay zero-alloc with the
// profiler armed.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/race_checker.h"
#include "core/trainer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_report.h"
#include "pipeline/config.h"
#include "pipeline/stage_graph.h"
#include "runtime/thread_pool.h"
#include "transport/loopback.h"
#include "transport/transport.h"

namespace adaqp {
namespace {

using pipeline::AsyncModeGuard;

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(prev_); }

 private:
  int prev_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

constexpr double kTol = 1e-12;  // synthetic weights are tens of µs

// ---- Stage roles -----------------------------------------------------------

constexpr obs::StageClass kCentral{.category = obs::kCatCentral};
constexpr obs::StageClass kMarginal{.category = obs::kCatMarginal};
/// The fused forward exchange stage of message d0 -> d1.
constexpr obs::StageClass kForward01{.category = obs::kCatWire,
                                     .fused_forward = true,
                                     .src = 0,
                                     .dst = 1};

TEST(ProfileCategory, KeysAreStable) {
  EXPECT_STREQ(obs::profile_category_key(obs::kCatCentral), "central");
  EXPECT_STREQ(obs::profile_category_key(obs::kCatWire), "wire");
  EXPECT_STREQ(obs::profile_category_key(obs::kCatFold), "fold");
  EXPECT_STREQ(obs::profile_category_key(-1), "other");
  EXPECT_STREQ(obs::profile_category_key(obs::kNumProfileCategories),
               "other");
}

// ---- Synthetic DAGs -------------------------------------------------------

/// Diamond: A -> {B, C} -> D. B is the long branch, so the critical path is
/// A-B-D and all slack sits on C.
TEST(ProfileDag, DiamondCriticalPathSlackAndAttribution) {
  obs::ProfileDag dag;
  dag.reserve(8, 8);
  const std::string a = "L0/central/d0";
  const std::string b = "L0/marginal/d0";
  const std::string c = "L0/central/d1";
  const std::string d = "L0/marginal/d1";
  ASSERT_EQ(dag.add_stage(&a, kCentral, 0.0, 10.0), 0);
  ASSERT_EQ(dag.add_stage(&b, kMarginal, 10.0, 30.0), 1);
  ASSERT_EQ(dag.add_stage(&c, kCentral, 10.0, 20.0), 2);
  ASSERT_EQ(dag.add_stage(&d, kMarginal, 30.0, 40.0), 3);
  dag.add_dep(1, 0);
  dag.add_dep(2, 0);
  dag.add_dep(3, 1);
  dag.add_dep(3, 2);

  obs::SegmentProfile seg;
  dag.compute(seg);
  EXPECT_EQ(seg.stages, 4);
  EXPECT_FALSE(dag.truncated());
  EXPECT_NEAR(seg.makespan_s, 40e-6, kTol);
  EXPECT_NEAR(seg.busy_s, 50e-6, kTol);
  EXPECT_NEAR(seg.cp_s, 40e-6, kTol);  // A(10) + B(20) + D(10)
  EXPECT_EQ(seg.cp_stages, 3);
  ASSERT_NE(seg.cp_names[0], nullptr);
  EXPECT_EQ(*seg.cp_names[0], a);
  EXPECT_EQ(*seg.cp_names[1], b);
  EXPECT_EQ(*seg.cp_names[2], d);
  EXPECT_EQ(seg.cp_names[3], nullptr);
  // Only C is off the path: it may finish as late as 30µs but finishes at 20.
  EXPECT_NEAR(seg.slack_s, 10e-6, kTol);
  // The critical path decomposes into central (A) + marginal (B, D).
  EXPECT_NEAR(seg.category_s[obs::kCatCentral], 10e-6, kTol);
  EXPECT_NEAR(seg.category_s[obs::kCatMarginal], 30e-6, kTol);
  double cat_sum = 0.0;
  for (const double v : seg.category_s) cat_sum += v;
  EXPECT_NEAR(cat_sum, seg.cp_s, kTol);
  // Free central: longest chain becomes B(20) + D(10) = 30µs -> saves 10.
  EXPECT_NEAR(seg.sensitivity_s[obs::kCatCentral], 10e-6, kTol);
  // Free marginal: longest chain becomes A(10) + C(10) = 20µs -> saves 20.
  EXPECT_NEAR(seg.sensitivity_s[obs::kCatMarginal], 20e-6, kTol);
  // No wire anywhere: the zero-wire bound is the critical path itself.
  EXPECT_NEAR(seg.zero_wire_cp_s, seg.cp_s, kTol);
  EXPECT_DOUBLE_EQ(seg.sensitivity_s[obs::kCatWire], 0.0);
  // No exchange stages: no overlap numbers. The compute side counts only
  // central stages (the trainer's overlap set): A [0,10] ∪ C [10,20].
  EXPECT_DOUBLE_EQ(seg.overlap.exchange_busy_s, 0.0);
  EXPECT_DOUBLE_EQ(seg.overlap.compute_busy_s, 20e-6);
}

/// Chain: one fused forward exchange followed by dependent central compute.
/// The fused span splits across encode/wire/decode in the cost model's
/// 1 : 2 : 3 proportion.
TEST(ProfileDag, ChainSplitsFusedExchangeByTheCostModel) {
  obs::ProfileDag dag;
  dag.reserve(4, 4);
  dag.set_exchange_model(/*quant_s=*/1.0, /*comm_s=*/2.0, /*dequant_s=*/3.0);
  const std::string x = "fwd/d0->d1";
  const std::string c = "L0/central/d1";
  ASSERT_EQ(dag.add_stage(&x, kForward01, 0.0, 30.0), 0);
  ASSERT_EQ(dag.add_stage(&c, kCentral, 30.0, 50.0), 1);
  dag.add_dep(1, 0);

  obs::SegmentProfile seg;
  std::array<double, 4> pair_s{};  // 2 devices, row-major
  dag.compute(seg, pair_s.data(), 2);
  EXPECT_NEAR(seg.cp_s, 50e-6, kTol);
  EXPECT_EQ(seg.cp_stages, 2);
  EXPECT_NEAR(seg.category_s[obs::kCatEncode], 5e-6, kTol);
  EXPECT_NEAR(seg.category_s[obs::kCatWire], 10e-6, kTol);
  EXPECT_NEAR(seg.category_s[obs::kCatDecode], 15e-6, kTol);
  EXPECT_NEAR(seg.category_s[obs::kCatCentral], 20e-6, kTol);
  // Zero-wire bound: the chain keeps encode+decode+central = 40µs.
  EXPECT_NEAR(seg.zero_wire_cp_s, 40e-6, kTol);
  EXPECT_NEAR(seg.sensitivity_s[obs::kCatWire], 10e-6, kTol);
  // Serial chain: exchange and compute never overlap.
  EXPECT_DOUBLE_EQ(seg.overlap.exchange_busy_s, 30e-6);
  EXPECT_DOUBLE_EQ(seg.overlap.compute_busy_s, 20e-6);
  EXPECT_DOUBLE_EQ(seg.overlap.overlap_s, 0.0);
  // The measured pair seconds landed on (src=0, dst=1).
  EXPECT_NEAR(pair_s[0 * 2 + 1], 30e-6, kTol);
  EXPECT_DOUBLE_EQ(pair_s[0], 0.0);
  EXPECT_DOUBLE_EQ(pair_s[1 * 2 + 0], 0.0);
}

/// Fan-out: a root feeding three independent children. The critical path is
/// root + the slowest child; the two faster children carry the slack.
TEST(ProfileDag, FanOutPutsSlackOnTheFastBranches) {
  obs::ProfileDag dag;
  dag.reserve(8, 8);
  const std::string root = "L0/central/d0";
  const std::string k1 = "L0/marginal/d0";
  const std::string k2 = "L0/marginal/d1";
  const std::string k3 = "L0/marginal/d2";
  ASSERT_EQ(dag.add_stage(&root, kCentral, 0.0, 10.0), 0);
  dag.add_stage(&k1, kMarginal, 10.0, 40.0);  // 30µs — the slow branch
  dag.add_stage(&k2, kMarginal, 10.0, 25.0);  // 15µs
  dag.add_stage(&k3, kMarginal, 10.0, 20.0);  // 10µs
  dag.add_dep(1, 0);
  dag.add_dep(2, 0);
  dag.add_dep(3, 0);

  obs::SegmentProfile seg;
  dag.compute(seg);
  EXPECT_NEAR(seg.cp_s, 40e-6, kTol);
  EXPECT_EQ(seg.cp_stages, 2);
  EXPECT_EQ(*seg.cp_names[1], k1);
  // k2 may finish 15µs later than it does, k3 20µs later.
  EXPECT_NEAR(seg.slack_s, 35e-6, kTol);
  EXPECT_NEAR(seg.busy_s, 65e-6, kTol);
}

/// PipeGCN shape: a deferred cross-epoch exchange whose wire span started
/// before this segment's compute. Zeroing the wire collapses the path onto
/// the compute chain.
TEST(ProfileDag, DeferredLongWireDominatesUntilZeroed) {
  obs::ProfileDag dag;
  dag.reserve(4, 4);
  dag.set_exchange_model(0.0, 1.0, 0.0);  // pure wire, no codec work
  const std::string wire = "fwd/d0->d1";
  const std::string central = "L0/central/d0";
  const std::string marginal = "L0/marginal/d0";
  ASSERT_EQ(dag.add_stage(&wire, kForward01, 0.0, 100.0), 0);
  ASSERT_EQ(dag.add_stage(&central, kCentral, 0.0, 30.0), 1);
  ASSERT_EQ(dag.add_stage(&marginal, kMarginal, 100.0, 120.0), 2);
  dag.add_dep(2, 0);
  dag.add_dep(2, 1);

  obs::SegmentProfile seg;
  dag.compute(seg);
  EXPECT_NEAR(seg.makespan_s, 120e-6, kTol);
  EXPECT_NEAR(seg.cp_s, 120e-6, kTol);  // wire(100) + marginal(20)
  EXPECT_NEAR(seg.category_s[obs::kCatWire], 100e-6, kTol);
  // Wire free: central(30) + marginal(20) is the new longest chain.
  EXPECT_NEAR(seg.zero_wire_cp_s, 50e-6, kTol);
  EXPECT_NEAR(seg.sensitivity_s[obs::kCatWire], 70e-6, kTol);
  // The central compute fully hides under the wire.
  EXPECT_DOUBLE_EQ(seg.overlap.exchange_busy_s, 100e-6);
  EXPECT_DOUBLE_EQ(seg.overlap.compute_busy_s, 30e-6);
  EXPECT_DOUBLE_EQ(seg.overlap.overlap_s, 30e-6);
}

TEST(ProfileDag, TruncatesPastCapacityInsteadOfGrowing) {
  obs::ProfileDag dag;
  dag.reserve(2, 1);
  const std::string n = "L0/central/d0";
  EXPECT_EQ(dag.add_stage(&n, kCentral, 0.0, 1.0), 0);
  EXPECT_EQ(dag.add_stage(&n, kCentral, 1.0, 2.0), 1);
  EXPECT_EQ(dag.add_stage(&n, kCentral, 2.0, 3.0), -1);  // over capacity
  EXPECT_TRUE(dag.truncated());
  dag.add_dep(1, 0);  // fills the single edge slot
  dag.add_dep(1, 0);  // over edge capacity: dropped
  EXPECT_EQ(dag.size(), 2);
  obs::SegmentProfile seg;
  dag.compute(seg);
  EXPECT_EQ(seg.stages, 2);
  EXPECT_NEAR(seg.cp_s, 2e-6, kTol);
}

// ---- Epoch rollup ---------------------------------------------------------

/// The rollup identity: stage categories + optimizer + scheduling + serial
/// sum to the attributed wall exactly, and the what-if bounds order.
TEST(ProfileCapture, EpochRollupDecomposesTheAttributedWall) {
  obs::ProfileCapture cap;
  cap.init(/*max_epochs=*/1, /*layers=*/1, /*devices=*/2);
  ASSERT_TRUE(cap.enabled());

  // One forward segment: makespan 100µs, critical path 80µs.
  obs::SegmentProfile* seg = cap.segment(0, 0, /*forward=*/true);
  ASSERT_NE(seg, nullptr);
  obs::ProfileDag dag;
  dag.reserve(8, 8);
  const std::string a = "L0/central/d0";
  const std::string b = "L0/marginal/d0";
  const std::string c = "L0/marginal/d1";
  dag.add_stage(&a, kCentral, 0.0, 30.0);
  dag.add_stage(&b, kMarginal, 30.0, 80.0);  // on the path: 30 + 50 = 80µs
  dag.add_stage(&c, kMarginal, 40.0, 100.0);  // parallel, stretches makespan
  dag.add_dep(1, 0);
  dag.compute(*seg, cap.pair_seconds(0), 2);
  ASSERT_NEAR(seg->makespan_s, 100e-6, kTol);
  ASSERT_NEAR(seg->cp_s, 80e-6, kTol);

  // Phase walls: forward 150µs (50µs of un-profiled serial glue), backward
  // 0, optimizer 10µs.
  cap.set_epoch_phases(0, 150e-6, 0.0, 10e-6);
  const obs::EpochProfile ep = cap.epoch_rollup(0);
  EXPECT_NEAR(ep.attributed_wall_s, 160e-6, kTol);
  EXPECT_NEAR(ep.cp_s, 80e-6, kTol);
  EXPECT_NEAR(ep.optimizer_s, 10e-6, kTol);
  EXPECT_NEAR(ep.scheduling_s, 20e-6, kTol);  // makespan − cp
  EXPECT_NEAR(ep.serial_s, 50e-6, kTol);      // wall − makespan
  double total = ep.optimizer_s + ep.scheduling_s + ep.serial_s;
  for (const double v : ep.category_s) total += v;
  EXPECT_NEAR(total, ep.attributed_wall_s, kTol);
  // Perfect scheduling keeps the path + optimizer + serial glue.
  EXPECT_NEAR(ep.infinite_thread_s, 140e-6, kTol);
  // No wire in the segment: the zero-wire bound equals infinite-thread.
  EXPECT_NEAR(ep.zero_wire_s, ep.infinite_thread_s, kTol);
  EXPECT_LE(ep.zero_wire_s, ep.attributed_wall_s + kTol);
}

TEST(ProfileCapture, DisabledAndOutOfRangeAccessesAreSafe) {
  obs::ProfileCapture cap;
  EXPECT_FALSE(cap.enabled());
  EXPECT_EQ(cap.segment(0, 0, true), nullptr);
  EXPECT_EQ(cap.pair_seconds(0), nullptr);
  cap.init(1, 2, 2);
  EXPECT_EQ(cap.segment(1, 0, true), nullptr);   // epoch out of capacity
  EXPECT_EQ(cap.segment(0, 2, true), nullptr);   // layer out of range
  EXPECT_EQ(cap.segment(-1, 0, true), nullptr);
  EXPECT_DOUBLE_EQ(cap.pair_seconds_at(0, 5, 0), 0.0);
  const obs::EpochProfile ep = cap.epoch_rollup(7);
  EXPECT_DOUBLE_EQ(ep.attributed_wall_s, 0.0);
}

// ---- Through a real StageGraph --------------------------------------------

/// The profiler consumes StageGraph's name/role/deps accessors and its
/// always-on timestamps; a really-executed graph must produce a consistent
/// profile.
TEST(ProfileDag, RealStageGraphProfileIsConsistent) {
  pipeline::StageGraph graph;
  volatile double sink = 0.0;
  const auto burn = [&sink] {
    double acc = 0.0;
    for (int i = 1; i < 20000; ++i) acc += 1.0 / i;
    sink = acc;
  };
  const int a = graph.add("L0/central/d0", burn, {}, {}, kCentral);
  const int b = graph.add("L0/marginal/d0", burn, {a}, {}, kMarginal);
  const int c = graph.add("L0/marginal/d1", burn, {a}, {}, kMarginal);
  graph.run_serial();

  EXPECT_EQ(graph.stage_name(b), "L0/marginal/d0");
  EXPECT_EQ(graph.stage_role(a).category, obs::kCatCentral);
  EXPECT_EQ(graph.stage_role(b).category, obs::kCatMarginal);
  ASSERT_EQ(graph.stage_deps(c).size(), 1u);
  EXPECT_EQ(graph.stage_deps(c)[0], a);

  obs::ProfileDag dag;
  dag.reserve(4, 4);
  for (int id = 0; id < static_cast<int>(graph.size()); ++id) {
    dag.add_stage(&graph.stage_name(id), graph.stage_role(id),
                  graph.stage_begin_us(id), graph.stage_end_us(id));
    for (const int dep : graph.stage_deps(id)) dag.add_dep(id, dep);
  }
  obs::SegmentProfile seg;
  dag.compute(seg);
  EXPECT_EQ(seg.stages, 3);
  EXPECT_GT(seg.cp_s, 0.0);
  EXPECT_GE(seg.busy_s, seg.cp_s - kTol);
  // Serial execution: the makespan covers every stage, so it is at least
  // the longest dependency chain.
  EXPECT_GE(seg.makespan_s, seg.cp_s - kTol);
  EXPECT_EQ(seg.cp_stages, 2);  // root + one child
}

// ---- Trainer integration --------------------------------------------------

DatasetSpec profile_spec() {
  DatasetSpec spec;
  spec.name = "profile_tiny";
  spec.num_nodes = 600;
  spec.avg_degree = 8.0;
  spec.feature_dim = 12;
  spec.num_classes = 5;
  spec.multi_label = false;
  spec.intra_prob = 0.8;
  return spec;
}

DistTrainer make_trainer(const Dataset& ds, const DistGraph& dist,
                         Method method, int epochs) {
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.3f;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = epochs;
  opts.seed = 7;
  opts.reassign_period = 2;
  opts.eval_every_epoch = false;
  return DistTrainer(ds, dist, cluster, mc, opts);
}

TEST(ProfileTrainer, CapturesSegmentsRollupsAndEmitsTheSchema) {
  Rng rng(31);
  const Dataset ds = make_dataset(profile_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const std::string path = ::testing::TempDir() + "adaqp_profile_report.json";

  AsyncModeGuard async_guard(true);
  ThreadCountGuard thread_guard(4);
  DistTrainer trainer = make_trainer(ds, dist, Method::kAdaQP, 4);
  {
    obs::MetricsGuard metrics(path);
    obs::ProfileGuard profile(true);
    trainer.run();
  }

  const obs::RunCapture& cap = trainer.run_capture();
  ASSERT_TRUE(cap.enabled());
  const obs::ProfileCapture& prof = trainer.run_capture().profile();
  ASSERT_TRUE(prof.enabled());
  ASSERT_EQ(prof.captured_epochs(), 4);
  ASSERT_EQ(prof.layers(), 3);
  ASSERT_EQ(prof.devices(), 4);

  for (int e = 0; e < 4; ++e) {
    const obs::EpochRow& row = cap.row_at(e);
    const obs::EpochProfile ep = prof.epoch_rollup(e);
    // The attributed wall is exactly the trainer's stamped phase walls.
    EXPECT_DOUBLE_EQ(
        ep.attributed_wall_s,
        row.wall.forward_s + row.wall.backward_s + row.wall.optimizer_s);
    // Decomposition identity: every second of the attributed wall lands in
    // exactly one bucket.
    double total = ep.optimizer_s + ep.scheduling_s + ep.serial_s;
    for (const double v : ep.category_s) total += v;
    EXPECT_NEAR(total, ep.attributed_wall_s,
                1e-9 + 1e-6 * ep.attributed_wall_s)
        << "attribution leak in epoch " << e;
    // Bounds: no schedule beats the critical path.
    EXPECT_GT(ep.cp_s, 0.0) << "no critical path captured in epoch " << e;
    EXPECT_GE(ep.busy_s, ep.cp_s * (1.0 - 1e-9));
    EXPECT_LE(ep.infinite_thread_s,
              ep.attributed_wall_s * (1.0 + 1e-6) + 1e-9);
    EXPECT_LE(ep.zero_wire_s, ep.infinite_thread_s * (1.0 + 1e-6) + 1e-9);

    // Segment sanity: AdaQP profiles every layer in both directions.
    for (int l = 0; l < prof.layers(); ++l) {
      const obs::SegmentProfile& fwd = prof.segment_at(e, l, true);
      EXPECT_GT(fwd.stages, 0) << "epoch " << e << " layer " << l;
      EXPECT_LE(fwd.cp_stages, fwd.stages);
      EXPECT_GE(fwd.cp_s, 0.0);
      EXPECT_LE(fwd.zero_wire_cp_s, fwd.cp_s * (1.0 + 1e-9) + 1e-12);
    }

    // Exchange seconds landed on real device pairs.
    double pair_total = 0.0;
    for (int s = 0; s < prof.devices(); ++s)
      for (int d = 0; d < prof.devices(); ++d)
        pair_total += prof.pair_seconds_at(e, s, d);
    EXPECT_GT(pair_total, 0.0) << "no pair exchange seconds in epoch " << e;
  }

  // Report carries the versioned profile section.
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"profile\""), std::string::npos);
  EXPECT_NE(body.find("\"schema\": \"adaqp-profile-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"attribution\""), std::string::npos);
  EXPECT_NE(body.find("\"what_if\""), std::string::npos);
  EXPECT_NE(body.find("\"zero_wire_s\""), std::string::npos);
  EXPECT_NE(body.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(body.find("\"pair_exchange_s\""), std::string::npos);
}

/// The roles the trainer's graph builders declare, seen through the solved
/// segments: AdaQP's central stages overlap its exchange stages in both
/// directions; Vanilla's full-row forward stages are not central, so its
/// forward has no compute side, while its backward fold is. Pair stages
/// charge their seconds to (src, dst); the owner-side accumulate charges
/// the receiver's diagonal.
TEST(ProfileTrainer, DeclaredRolesPinTheOverlapSetsAndPairs) {
  Rng rng(36);
  const Dataset ds = make_dataset(profile_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const int n = dist.num_devices();

  AsyncModeGuard async_guard(true);
  ThreadCountGuard thread_guard(4);
  for (const Method method : {Method::kAdaQP, Method::kVanilla}) {
    DistTrainer trainer = make_trainer(ds, dist, method, 2);
    {
      obs::MetricsGuard metrics(::testing::TempDir() +
                                "adaqp_profile_roles.json");
      obs::ProfileGuard profile(true);
      trainer.run();
    }
    const obs::ProfileCapture& prof = trainer.run_capture().profile();
    ASSERT_EQ(prof.captured_epochs(), 2) << method_name(method);
    const bool adaqp = method == Method::kAdaQP;
    for (int e = 0; e < prof.captured_epochs(); ++e) {
      for (int l = 0; l < prof.layers(); ++l) {
        const std::string where = method_name(method) + " epoch " +
                                  std::to_string(e) + " layer " +
                                  std::to_string(l);
        const obs::OverlapAccum& fwd = prof.segment_at(e, l, true).overlap;
        const obs::OverlapAccum& bwd = prof.segment_at(e, l, false).overlap;
        EXPECT_GT(fwd.exchange_busy_s, 0.0) << where;
        EXPECT_EQ(fwd.compute_busy_s > 0.0, adaqp) << where;
        // Layer 0's backward has no exchange; every backward has the fold.
        EXPECT_EQ(bwd.exchange_busy_s > 0.0, l > 0) << where;
        EXPECT_GT(bwd.compute_busy_s, 0.0) << where;
      }
      for (int s = 0; s < n; ++s) {
        bool owner_receives = false;  // some device sends s gradients
        for (int d = 0; d < n; ++d) {
          if (s == d) continue;
          owner_receives |= !dist.devices[d].recv_local[s].empty();
          const bool messages = !dist.devices[s].send_local[d].empty() ||
                                !dist.devices[s].recv_local[d].empty();
          EXPECT_EQ(prof.pair_seconds_at(e, s, d) > 0.0, messages)
              << method_name(method) << " pair " << s << "->" << d;
        }
        EXPECT_EQ(prof.pair_seconds_at(e, s, s) > 0.0, owner_receives)
            << method_name(method) << " owner accumulate on d" << s;
      }
    }
  }
}

/// House invariant 3: one overlap computation — EpochRow's overlap is the
/// sum of the solved segments' overlap, exactly, not approximately.
TEST(ProfileTrainer, SegmentOverlapAgreesExactlyWithEpochRow) {
  Rng rng(32);
  const Dataset ds = make_dataset(profile_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);

  AsyncModeGuard async_guard(true);
  ThreadCountGuard thread_guard(4);
  DistTrainer trainer = make_trainer(ds, dist, Method::kAdaQP, 3);
  {
    obs::MetricsGuard metrics(::testing::TempDir() +
                              "adaqp_profile_overlap.json");
    obs::ProfileGuard profile(true);
    trainer.run();
  }

  const obs::RunCapture& cap = trainer.run_capture();
  const obs::ProfileCapture& prof = cap.profile();
  ASSERT_TRUE(prof.enabled());
  for (int e = 0; e < prof.captured_epochs(); ++e) {
    const obs::EpochRow& row = cap.row_at(e);
    // Forward layers run ascending; mirror the row's accumulation order so
    // the floating-point sums match bit for bit.
    obs::OverlapAccum fwd;
    for (int l = 0; l < prof.layers(); ++l) {
      const obs::SegmentProfile& seg = prof.segment_at(e, l, true);
      fwd.exchange_busy_s += seg.overlap.exchange_busy_s;
      fwd.compute_busy_s += seg.overlap.compute_busy_s;
      fwd.overlap_s += seg.overlap.overlap_s;
    }
    EXPECT_DOUBLE_EQ(fwd.exchange_busy_s, row.fwd_overlap.exchange_busy_s)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(fwd.compute_busy_s, row.fwd_overlap.compute_busy_s)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(fwd.overlap_s, row.fwd_overlap.overlap_s)
        << "epoch " << e;
    // Backward layers run descending.
    obs::OverlapAccum bwd;
    for (int l = prof.layers() - 1; l >= 0; --l) {
      const obs::SegmentProfile& seg = prof.segment_at(e, l, false);
      bwd.exchange_busy_s += seg.overlap.exchange_busy_s;
      bwd.compute_busy_s += seg.overlap.compute_busy_s;
      bwd.overlap_s += seg.overlap.overlap_s;
    }
    EXPECT_DOUBLE_EQ(bwd.exchange_busy_s, row.bwd_overlap.exchange_busy_s)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(bwd.compute_busy_s, row.bwd_overlap.compute_busy_s)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(bwd.overlap_s, row.bwd_overlap.overlap_s)
        << "epoch " << e;
  }
}

TEST(ProfileTrainer, ProfileOffOmitsTheSectionButKeepsTheReport) {
  Rng rng(33);
  const Dataset ds = make_dataset(profile_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const std::string path = ::testing::TempDir() + "adaqp_profile_off.json";

  AsyncModeGuard async_guard(true);
  ThreadCountGuard thread_guard(4);
  DistTrainer trainer = make_trainer(ds, dist, Method::kAdaQP, 2);
  {
    obs::MetricsGuard metrics(path);
    obs::ProfileGuard profile(false);
    trainer.run();
  }
  EXPECT_FALSE(trainer.run_capture().profile().enabled());
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"schema\": \"adaqp-metrics-v1\""), std::string::npos);
  EXPECT_EQ(body.find("adaqp-profile-v1"), std::string::npos);
  EXPECT_EQ(body.find("\"what_if\""), std::string::npos);
}

/// House invariant 1: the profiler is write-only from the training path —
/// profiling on vs. off is bit-identical for every method x async x threads.
/// Every method runs its layers as stage graphs, so a profiled run also has
/// a segment for every executed (epoch, layer, direction).
TEST(ProfileTrainer, ProfileOnRunsAreBitIdenticalToProfileOff) {
  Rng rng(34);
  const Dataset ds = make_dataset(profile_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const std::string path = ::testing::TempDir() + "adaqp_profile_matrix.json";

  const auto losses = [&](Method method, bool async, int threads,
                          bool profiled) {
    AsyncModeGuard async_guard(async);
    ThreadCountGuard thread_guard(threads);
    DistTrainer trainer = make_trainer(ds, dist, method, 3);
    obs::MetricsGuard metrics(path);
    obs::ProfileGuard profile(profiled);
    const RunResult result = trainer.run();
    if (profiled) {
      const obs::ProfileCapture& prof = trainer.run_capture().profile();
      EXPECT_EQ(prof.captured_epochs(), 3) << method_name(method);
      for (int e = 0; e < prof.captured_epochs(); ++e)
        for (int l = 0; l < prof.layers(); ++l)
          for (const bool forward : {true, false})
            EXPECT_GT(prof.segment_at(e, l, forward).stages, 0)
                << method_name(method) << " async=" << async
                << " threads=" << threads << ": no profile segment for epoch "
                << e << " layer " << l << (forward ? " forward" : " backward");
    }
    std::vector<double> out;
    for (const EpochRecord& e : result.epochs) out.push_back(e.train_loss);
    return out;
  };

  for (Method method : {Method::kVanilla, Method::kAdaQP,
                        Method::kAdaQPUniform, Method::kPipeGCN,
                        Method::kSancus}) {
    for (const bool async : {true, false}) {
      for (const int threads : {1, 4}) {
        const std::vector<double> off = losses(method, async, threads, false);
        const std::vector<double> on = losses(method, async, threads, true);
        ASSERT_EQ(off.size(), on.size());
        for (std::size_t e = 0; e < off.size(); ++e)
          EXPECT_EQ(off[e], on[e])
              << method_name(method) << " async=" << async
              << " threads=" << threads
              << ": profiler perturbed epoch " << e;
      }
    }
  }
}

/// House invariant 2: warm epochs stay zero-alloc with the profiler armed
/// (run() pre-sizes the DAG scratch and every profile row).
TEST(ProfileTrainer, SteadyStateStaysAllocationFreeWithProfilerArmed) {
  Rng rng(35);
  const Dataset ds = make_dataset(profile_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);

  AsyncModeGuard async_guard(true);
  ThreadCountGuard thread_guard(4);
  // The steady-state contract holds over a zero-allocation transport only
  // (wire backends buffer by design) — pin loopback so the assertion below
  // stays meaningful under the CI tcp/fault ctest passes.
  transport::ScopedTransport loopback(
      std::make_unique<transport::LoopbackTransport>());
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.3f;
  TrainOptions opts;
  opts.method = Method::kAdaQP;
  opts.epochs = 5;
  opts.seed = 7;
  opts.reassign_period = 1 << 20;  // refresh only at epoch 0
  opts.eval_every_epoch = false;   // steady-state contract requirement
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  {
    obs::MetricsGuard metrics(::testing::TempDir() +
                              "adaqp_profile_steady.json");
    obs::ProfileGuard profile(true);
    trainer.run();
  }

  const obs::RunCapture& cap = trainer.run_capture();
  ASSERT_TRUE(cap.enabled());
  ASSERT_TRUE(cap.profile().enabled());
  ASSERT_EQ(cap.captured_epochs(), opts.epochs);
  const bool contract_active = !analysis::racecheck_enabled();
  for (int e = 1; e < opts.epochs; ++e) {
    const obs::EpochRow& row = cap.row_at(e);
    if (!contract_active) {
      EXPECT_FALSE(row.steady_state);
      continue;
    }
    EXPECT_TRUE(row.steady_state)
        << "epoch " << e << " lost steady state with the profiler armed";
    EXPECT_EQ(row.allocs_forward + row.allocs_backward + row.allocs_optimizer +
                  row.allocs_refresh + row.allocs_evaluation,
              0u)
        << "epoch " << e << " allocated while the profiler was armed:"
        << " forward=" << row.allocs_forward
        << " backward=" << row.allocs_backward
        << " optimizer=" << row.allocs_optimizer
        << " refresh=" << row.allocs_refresh
        << " evaluation=" << row.allocs_evaluation;
    // The profiler really ran on these epochs.
    EXPECT_GT(cap.profile().epoch_rollup(e).cp_s, 0.0);
  }
}

}  // namespace
}  // namespace adaqp
