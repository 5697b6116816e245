// End-to-end training behaviour: convergence, method comparisons, timing
// accounting. These are the integration tests over the whole stack.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "core/trainer.h"
#include "transport/transport.h"

namespace adaqp {
namespace {

DatasetSpec small_spec(bool multi_label = false) {
  DatasetSpec spec;
  spec.name = multi_label ? "small_multi" : "small_single";
  spec.num_nodes = 900;
  spec.avg_degree = 10.0;
  spec.feature_dim = 16;
  spec.num_classes = 6;
  spec.multi_label = multi_label;
  spec.intra_prob = 0.8;
  return spec;
}

/// Hex-float rendering of a double (the golden table's literal form).
std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

RunResult train(const Dataset& ds, Method method, Aggregator agg, int epochs,
                int devices = 4, float dropout = 0.3f,
                std::uint64_t seed = 21) {
  Rng rng(4242);
  const auto part =
      MultilevelPartitioner().partition(ds.graph, devices, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, devices / 2);
  ModelConfig mc;
  mc.aggregator = agg;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 24;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  mc.dropout = dropout;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = epochs;
  opts.seed = seed;
  opts.reassign_period = 10;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  return trainer.run();
}

class ConvergenceTest : public ::testing::TestWithParam<Aggregator> {};

TEST_P(ConvergenceTest, VanillaLearnsTheSbmTask) {
  Rng rng(1);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult r = train(ds, Method::kVanilla, GetParam(), 40);
  EXPECT_GT(r.final_val_acc, 0.80) << "model failed to learn";
  EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss * 0.5)
      << "loss did not decrease";
}

TEST_P(ConvergenceTest, AdaQPMatchesVanillaAccuracy) {
  // Paper Table 4: AdaQP accuracy within a few tenths of a percent of
  // Vanilla. At our scale we allow a slightly wider band.
  Rng rng(2);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, GetParam(), 40);
  const RunResult adaqp = train(ds, Method::kAdaQP, GetParam(), 40);
  EXPECT_NEAR(adaqp.final_val_acc, vanilla.final_val_acc, 0.035);
}

TEST_P(ConvergenceTest, AdaQPFasterThanVanilla) {
  Rng rng(3);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, GetParam(), 15);
  const RunResult adaqp = train(ds, Method::kAdaQP, GetParam(), 15);
  EXPECT_GT(adaqp.throughput, vanilla.throughput * 1.2)
      << "AdaQP should beat Vanilla's simulated throughput";
  EXPECT_LT(adaqp.total_comm_bytes, vanilla.total_comm_bytes / 2)
      << "quantization should at least halve traffic";
}

INSTANTIATE_TEST_SUITE_P(Models, ConvergenceTest,
                         ::testing::Values(Aggregator::kGcn,
                                           Aggregator::kSageMean));

TEST(MultiLabelTraining, LearnsAndReportsMicroF1) {
  Rng rng(4);
  const Dataset ds = make_dataset(small_spec(/*multi_label=*/true), rng);
  const RunResult r = train(ds, Method::kVanilla, Aggregator::kGcn, 40);
  EXPECT_GT(r.final_val_acc, 0.5);  // micro-F1 on the synthetic task
}

TEST(StalenessBaselines, RunAndStayFinite) {
  Rng rng(5);
  const Dataset ds = make_dataset(small_spec(), rng);
  for (Method m : {Method::kPipeGCN, Method::kSancus}) {
    const RunResult r = train(ds, m, Aggregator::kGcn, 25);
    for (const auto& e : r.epochs)
      ASSERT_TRUE(std::isfinite(e.train_loss)) << method_name(m);
    EXPECT_GT(r.final_val_acc, 0.4) << method_name(m);
  }
}

TEST(StalenessBaselines, PipeGcnHidesCommunication) {
  // PipeGCN overlaps communication with computation, so its epoch must be
  // shorter than Vanilla's comm+comp sum.
  Rng rng(6);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, Aggregator::kGcn, 12);
  const RunResult pipe = train(ds, Method::kPipeGCN, Aggregator::kGcn, 12);
  EXPECT_LT(pipe.avg_epoch_seconds, vanilla.avg_epoch_seconds);
}

TEST(StalenessBaselines, SancusSkipsBroadcasts) {
  // With broadcast skipping, SANCUS must move fewer bytes than Vanilla.
  Rng rng(7);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, Aggregator::kGcn, 20);
  const RunResult sancus = train(ds, Method::kSancus, Aggregator::kGcn, 20);
  EXPECT_LT(sancus.total_comm_bytes, vanilla.total_comm_bytes);
}

TEST(UniformQuantBaseline, RunsWithRandomWidths) {
  Rng rng(8);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult r = train(ds, Method::kAdaQPUniform, Aggregator::kGcn, 25);
  EXPECT_GT(r.final_val_acc, 0.6);
  EXPECT_EQ(r.assign_seconds, 0.0);  // no solver in the uniform scheme
}

TEST(Timing, BreakdownComponentsArePopulated) {
  Rng rng(9);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, Aggregator::kGcn, 5);
  EXPECT_GT(vanilla.avg_breakdown.comm, 0.0);
  EXPECT_GT(vanilla.avg_breakdown.comp, 0.0);
  EXPECT_EQ(vanilla.avg_breakdown.quant, 0.0);
  EXPECT_GE(vanilla.avg_breakdown.total,
            vanilla.avg_breakdown.comm);  // no overlap in Vanilla

  const RunResult adaqp = train(ds, Method::kAdaQP, Aggregator::kGcn, 5);
  EXPECT_GT(adaqp.avg_breakdown.quant, 0.0);
  EXPECT_GT(adaqp.assign_seconds, 0.0);
  EXPECT_DOUBLE_EQ(adaqp.wall_clock_seconds,
                   adaqp.train_seconds + adaqp.assign_seconds);
}

TEST(Timing, CommCostFractionInPaperRegime) {
  // Table 1's premise: communication dominates vanilla full-graph training.
  Rng rng(10);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult r = train(ds, Method::kVanilla, Aggregator::kGcn, 5);
  const double frac = r.avg_breakdown.comm / r.avg_epoch_seconds;
  EXPECT_GT(frac, 0.5);
  EXPECT_LT(frac, 0.95);
}

TEST(Trainer, PairBytesMatrixExposed) {
  Rng rng(11);
  const Dataset ds = make_dataset(small_spec(), rng);
  Rng prng(12);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  TrainOptions opts;
  opts.method = Method::kVanilla;
  opts.epochs = 1;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  trainer.train_epoch();
  const auto& bytes = trainer.last_layer1_pair_bytes();
  ASSERT_EQ(bytes.size(), 4u);
  std::size_t total = 0;
  for (const auto& row : bytes)
    for (std::size_t b : row) total += b;
  EXPECT_GT(total, 0u);
}

// evaluate() re-runs persistent per-layer graphs on the trainer's own wire
// channel: repeated calls claim no new transport channel (each claim keeps
// per-channel inbox slots alive under tcp), leave the trainer's traffic
// totals alone and, with the weights unchanged, repeat their result.
TEST(Trainer, EvaluateClaimsNoTransportChannelAfterItsFirstCall) {
  Rng rng(11);
  const Dataset ds = make_dataset(small_spec(), rng);
  Rng prng(12);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  for (const Method method : {Method::kVanilla, Method::kPipeGCN}) {
    TrainOptions opts;
    opts.method = method;
    opts.epochs = 2;
    opts.eval_every_epoch = false;
    DistTrainer trainer(ds, dist, cluster, mc, opts);
    trainer.train_epoch();
    trainer.train_epoch();  // PipeGCN: deferred exchanges now in flight
    const std::size_t bytes = trainer.total_comm_bytes();
    const auto first = trainer.evaluate();
    const std::uint32_t before = transport::next_channel();
    for (int i = 0; i < 5; ++i) EXPECT_EQ(trainer.evaluate(), first);
    EXPECT_EQ(transport::next_channel(), before + 1) << method_name(method);
    EXPECT_EQ(trainer.total_comm_bytes(), bytes) << method_name(method);
  }
}

TEST(Trainer, MethodNames) {
  EXPECT_EQ(method_name(Method::kVanilla), "Vanilla");
  EXPECT_EQ(method_name(Method::kAdaQP), "AdaQP");
  EXPECT_EQ(method_name(Method::kAdaQPUniform), "AdaQP-Uniform");
  EXPECT_EQ(method_name(Method::kPipeGCN), "PipeGCN-like");
  EXPECT_EQ(method_name(Method::kSancus), "SANCUS-like");
}

TEST(Trainer, SingleDeviceDegenerateCase) {
  Rng rng(13);
  DatasetSpec spec = small_spec();
  spec.num_nodes = 250;
  const Dataset ds = make_dataset(spec, rng);
  PartitionResult part;
  part.num_parts = 1;
  part.part_of.assign(ds.num_nodes(), 0);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(1, 1);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  TrainOptions opts;
  opts.method = Method::kAdaQP;  // no peers: must degrade gracefully
  opts.epochs = 3;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  const RunResult r = trainer.run();
  EXPECT_EQ(r.total_comm_bytes, 0u);
  for (const auto& e : r.epochs) EXPECT_TRUE(std::isfinite(e.train_loss));
}


// Golden trajectories: every method's numerics pinned bit for bit, so a
// refactor of the trainer's execution paths cannot silently drift a loss, a
// modeled epoch time, the wire volume or an accuracy. Values are hex-float
// literals of one run at 4 devices, reassign_period=2 (AdaQP re-solves and
// AdaQP-Uniform re-samples inside the window), dropout on (so the order in
// which layer compute and exchanges draw from the device streams matters).
// They hold at any thread count, async mode, ISA and transport (the
// determinism contract, docs/ARCHITECTURE.md).
constexpr int kGoldenEpochs = 8;

struct GoldenRun {
  Aggregator aggregator;
  Method method;
  std::array<double, kGoldenEpochs> train_loss;
  std::array<double, kGoldenEpochs> time_total;
  std::size_t total_comm_bytes;
  double final_val_acc;
  double final_test_acc;
};

const GoldenRun kGolden[] = {
    {Aggregator::kGcn, Method::kVanilla,
     {0x1.0c545ce7c9a8bp+1, 0x1.e077e24ef6365p+0, 0x1.c62c4ec5a415p+0,
      0x1.a3d22b48d8f89p+0, 0x1.8528291607021p+0, 0x1.6b3139932aaa4p+0,
      0x1.4d688ff172a24p+0, 0x1.3821a1931adfp+0},
     {0x1.a0d92fdad9c2ep-14, 0x1.a0d92fdad9c2ep-14, 0x1.a0d92fdad9c2ep-14,
      0x1.a0d92fdad9c2ep-14, 0x1.a0d92fdad9c2ep-14, 0x1.a0d92fdad9c2ep-14,
      0x1.a0d92fdad9c2ep-14, 0x1.a0d92fdad9c2ep-14},
     2195760u, 0x1.c888888888889p-1, 0x1.c444444444444p-1},
    {Aggregator::kGcn, Method::kAdaQP,
     {0x1.0c545ce7c9a8bp+1, 0x1.e0851dd6fb1b9p+0, 0x1.c62e137817faep+0,
      0x1.a39ca9a0cd5fp+0, 0x1.852de46dd039bp+0, 0x1.6b5922f64b2ffp+0,
      0x1.4d3ffa8903e7ap+0, 0x1.38193ea2dcd8ep+0},
     {0x1.9e0b7f763e061p-14, 0x1.44e09b10053e9p-14, 0x1.44e09b10053e9p-14,
      0x1.44e09b10053e9p-14, 0x1.44e09b10053e9p-14, 0x1.44e09b10053e9p-14,
      0x1.44e09b10053e9p-14, 0x1.44e09b10053e9p-14},
     787780u, 0x1.c888888888889p-1, 0x1.cp-1},
    {Aggregator::kGcn, Method::kAdaQPUniform,
     {0x1.0c545ce7c9a8bp+1, 0x1.e12d66c806bd7p+0, 0x1.c74c9b5bf56cdp+0,
      0x1.a3d882939d4b3p+0, 0x1.854a2fc9c847ap+0, 0x1.6b5400d6d9691p+0,
      0x1.4df6ea857eb58p+0, 0x1.386fc910daa3ap+0},
     {0x1.9e0b7f763e061p-14, 0x1.48bf8a62a5acdp-14, 0x1.491a401227c18p-14,
      0x1.491a401227c18p-14, 0x1.4890cfb2e68adp-14, 0x1.4890cfb2e68adp-14,
      0x1.49437b61ee852p-14, 0x1.49437b61ee852p-14},
     761636u, 0x1.c888888888889p-1, 0x1.cp-1},
    {Aggregator::kGcn, Method::kPipeGCN,
     {0x1.0c545ce7c9a8bp+1, 0x1.f48a7886b2d79p+0, 0x1.ccb7f78cc08bp+0,
      0x1.a82d7e207581ap+0, 0x1.89ae5b6b8beffp+0, 0x1.664906e2b1ebap+0,
      0x1.5cc05ce07f271p+0, 0x1.3f5ce650fcaebp+0},
     {0x1.23ad4b809b96bp-14, 0x1.b942f734761cap-15, 0x1.8f628e3397aeap-14,
      0x1.8f628e3397aeap-14, 0x1.8f628e3397aeap-14, 0x1.8f628e3397aeap-14,
      0x1.8f628e3397aeap-14, 0x1.6428248a998eap-13},
     2195760u, 0x1.ccccccccccccdp-1, 0x1.b777777777777p-1},
    {Aggregator::kGcn, Method::kSancus,
     {0x1.084c800dbfbfcp+1, 0x1.ef46671ec8eacp+0, 0x1.b970e26b59814p+0,
      0x1.9fe574c82a294p+0, 0x1.85edb49ce0469p+0, 0x1.633ef27efe924p+0,
      0x1.4b3d51d4bfcfap+0, 0x1.3ed49ee1fb372p+0},
     {0x1.e356c95ccd2cdp-13, 0x1.8d102cc990c5ep-13, 0x1.8d102cc990c5ep-13,
      0x1.8d102cc990c5ep-13, 0x1.8d102cc990c5ep-13, 0x1.8d102cc990c5ep-13,
      0x1.8d102cc990c5ep-13, 0x1.8d102cc990c5ep-13},
     1811502u, 0x1.a666666666666p-1, 0x1.aeeeeeeeeeeefp-1},
    {Aggregator::kSageMean, Method::kVanilla,
     {0x1.1ee81b0a27befp+1, 0x1.ec366edfe0c72p+0, 0x1.dda65ceb3ce8p+0,
      0x1.93c948abf03cdp+0, 0x1.64e8ac985dd51p+0, 0x1.4ed2ced40d072p+0,
      0x1.2b0e47ff7c584p+0, 0x1.161de1f985b8ep+0},
     {0x1.a5bea1540dca4p-14, 0x1.a5bea1540dca4p-14, 0x1.a5bea1540dca4p-14,
      0x1.a5bea1540dca4p-14, 0x1.a5bea1540dca4p-14, 0x1.a5bea1540dca4p-14,
      0x1.a5bea1540dca4p-14, 0x1.a5bea1540dca4p-14},
     2195760u, 0x1.c444444444444p-1, 0x1.eaaaaaaaaaaabp-1},
    {Aggregator::kSageMean, Method::kAdaQP,
     {0x1.1ee81b0a27befp+1, 0x1.ec1a13190742cp+0, 0x1.de4a2612cf75ep+0,
      0x1.9426edddd4787p+0, 0x1.64f0a3521414ap+0, 0x1.4e7513316062ep+0,
      0x1.29e2d7fa90fe6p+0, 0x1.15cf4b78f6a2cp+0},
     {0x1.a2f0f0ef720d7p-14, 0x1.49c60c893945fp-14, 0x1.49c60c893945fp-14,
      0x1.49c60c893945fp-14, 0x1.49c60c893945fp-14, 0x1.49c60c893945fp-14,
      0x1.496e1689b3605p-14, 0x1.496e1689b3605p-14},
     787268u, 0x1.c444444444444p-1, 0x1.eaaaaaaaaaaabp-1},
    {Aggregator::kSageMean, Method::kAdaQPUniform,
     {0x1.1ee81b0a27befp+1, 0x1.eba0204b6922bp+0, 0x1.dca77d00b194bp+0,
      0x1.947d5f24d297cp+0, 0x1.660307500f83cp+0, 0x1.4de2bde8f28dep+0,
      0x1.2bab23b0b5886p+0, 0x1.15382088467cbp+0},
     {0x1.a2f0f0ef720d7p-14, 0x1.4dc3386bafbb1p-14, 0x1.4da0dc53df6d7p-14,
      0x1.4da0dc53df6d7p-14, 0x1.4da39c03db9c9p-14, 0x1.4da39c03db9c9p-14,
      0x1.4db41a23c4b7ap-14, 0x1.4db41a23c4b7ap-14},
     761732u, 0x1.c444444444444p-1, 0x1.e222222222222p-1},
    {Aggregator::kSageMean, Method::kPipeGCN,
     {0x1.1ee81b0a27befp+1, 0x1.02d2d1ad8133ap+1, 0x1.bd427eef4bb98p+0,
      0x1.89c76b7836c9fp+0, 0x1.62d29627af1e2p+0, 0x1.50ee9857d137p+0,
      0x1.2fee27da8a7c9p+0, 0x1.0cdc20336e686p+0},
     {0x1.2892bcf9cf9e1p-14, 0x1.c30dda26de2b6p-15, 0x1.9447ffaccbb6p-14,
      0x1.9447ffaccbb6p-14, 0x1.9447ffaccbb6p-14, 0x1.9447ffaccbb6p-14,
      0x1.9447ffaccbb6p-14, 0x1.669add4733924p-13},
     2195760u, 0x1.b777777777777p-1, 0x1.e222222222222p-1},
    {Aggregator::kSageMean, Method::kSancus,
     {0x1.2518b98e48c26p+1, 0x1.eea8b5777ea94p+0, 0x1.ae0c63cd6937cp+0,
      0x1.8ab1e6f59bf77p+0, 0x1.7cea359bfe386p+0, 0x1.45e50dd7e5ae9p+0,
      0x1.429031b4f599p+0, 0x1.23bd29e18a9d7p+0},
     {0x1.e5c9821967308p-13, 0x1.8f82e5862ac99p-13, 0x1.8f82e5862ac99p-13,
      0x1.8f82e5862ac99p-13, 0x1.8f82e5862ac99p-13, 0x1.8f82e5862ac99p-13,
      0x1.8f82e5862ac99p-13, 0x1.8f82e5862ac99p-13},
     1811502u, 0x1.bbbbbbbbbbbbcp-1, 0x1.d555555555555p-1}
};

TEST(GoldenTrajectory, EveryMethodAndModelIsBitIdenticalToThePinnedRun) {
  DatasetSpec spec;
  spec.name = "golden";
  spec.num_nodes = 600;
  spec.avg_degree = 10.0;
  spec.feature_dim = 16;
  spec.num_classes = 6;
  spec.intra_prob = 0.8;
  Rng rng(15);
  const Dataset ds = make_dataset(spec, rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);

  std::size_t vanilla_bytes[2] = {0, 0};
  std::size_t sancus_bytes[2] = {0, 0};
  for (const GoldenRun& golden : kGolden) {
    ModelConfig mc;
    mc.aggregator = golden.aggregator;
    mc.in_dim = ds.spec.feature_dim;
    mc.hidden_dim = 16;
    mc.out_dim = ds.num_classes();
    mc.num_layers = 3;
    mc.dropout = 0.3f;
    TrainOptions opts;
    opts.method = golden.method;
    opts.epochs = kGoldenEpochs;
    opts.seed = 23;
    opts.reassign_period = 2;
    DistTrainer trainer(ds, dist, cluster, mc, opts);
    const RunResult r = trainer.run();
    const std::string what =
        method_name(golden.method) + "/" + mc.name();
    ASSERT_EQ(r.epochs.size(), static_cast<std::size_t>(kGoldenEpochs))
        << what;
    for (int e = 0; e < kGoldenEpochs; ++e) {
      EXPECT_EQ(r.epochs[e].train_loss, golden.train_loss[e])
          << what << " epoch " << e << " train_loss "
          << hex(r.epochs[e].train_loss);
      EXPECT_EQ(r.epochs[e].time.total, golden.time_total[e])
          << what << " epoch " << e << " time.total "
          << hex(r.epochs[e].time.total);
    }
    EXPECT_EQ(r.total_comm_bytes, golden.total_comm_bytes) << what;
    EXPECT_EQ(r.final_val_acc, golden.final_val_acc)
        << what << " final_val_acc " << hex(r.final_val_acc);
    EXPECT_EQ(r.final_test_acc, golden.final_test_acc)
        << what << " final_test_acc " << hex(r.final_test_acc);
    const int slot = golden.aggregator == Aggregator::kGcn ? 0 : 1;
    if (golden.method == Method::kVanilla)
      vanilla_bytes[slot] = r.total_comm_bytes;
    if (golden.method == Method::kSancus)
      sancus_bytes[slot] = r.total_comm_bytes;
  }
  // The window is long enough for SANCUS to skip at least one broadcast
  // (it then moves strictly fewer bytes than Vanilla's every-epoch
  // exchanges), so the skip path is pinned too.
  for (int slot = 0; slot < 2; ++slot) {
    EXPECT_GT(vanilla_bytes[slot], 0u);
    EXPECT_LT(sancus_bytes[slot], vanilla_bytes[slot]) << "slot " << slot;
  }
}

}  // namespace
}  // namespace adaqp
