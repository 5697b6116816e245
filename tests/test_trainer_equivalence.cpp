// The numerical-equivalence invariant (docs/DESIGN.md): distributed training
// with full-precision (32-bit passthrough) messages must match single-device
// full-graph training up to float summation-order noise, for any device
// count and partitioner. This makes quantization the *only* stochasticity in
// AdaQP runs, matching the setting of the paper's Theorem 2.
#include <gtest/gtest.h>

#include <cmath>

#include "core/trainer.h"

namespace adaqp {
namespace {

DatasetSpec tiny_spec(bool multi_label) {
  DatasetSpec spec;
  spec.name = multi_label ? "tiny_multi" : "tiny_single";
  spec.num_nodes = 300;
  spec.avg_degree = 8.0;
  spec.feature_dim = 12;
  spec.num_classes = 5;
  spec.multi_label = multi_label;
  spec.intra_prob = 0.8;
  return spec;
}

ModelConfig tiny_model(const DatasetSpec& spec, Aggregator agg) {
  ModelConfig mc;
  mc.aggregator = agg;
  mc.in_dim = spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = spec.num_classes;
  mc.num_layers = 3;
  mc.dropout = 0.0f;  // determinism: quantization must be the only noise
  mc.layer_norm = true;
  return mc;
}

std::vector<double> loss_curve(const Dataset& ds, int devices,
                               const std::string& partitioner, Aggregator agg,
                               Method method, int epochs,
                               double* final_val = nullptr) {
  Rng rng(555);
  const auto part =
      make_partitioner(partitioner)->partition(ds.graph, devices, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(1, devices);
  TrainOptions opts;
  opts.method = method;
  opts.epochs = epochs;
  opts.seed = 321;  // same seed -> same weight init in every configuration
  opts.eval_every_epoch = final_val != nullptr;
  DistTrainer trainer(ds, dist, cluster, tiny_model(ds.spec, agg), opts);
  const RunResult result = trainer.run();
  std::vector<double> losses;
  for (const auto& e : result.epochs) losses.push_back(e.train_loss);
  if (final_val) *final_val = result.final_val_acc;
  return losses;
}

struct EquivCase {
  int devices;
  std::string partitioner;
  Aggregator agg;
  bool multi_label;
};

void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << c.devices << "dev/" << c.partitioner << "/"
      << (c.agg == Aggregator::kGcn ? "gcn" : "sage")
      << (c.multi_label ? "/multi" : "/single");
}

class DistributedEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(DistributedEquivalence, VanillaMatchesCentralized) {
  const auto param = GetParam();
  Rng rng(777);
  const Dataset ds = make_dataset(tiny_spec(param.multi_label), rng);

  double val_central = 0.0, val_dist = 0.0;
  const auto central = loss_curve(ds, 1, "range", param.agg, Method::kVanilla,
                                  8, &val_central);
  const auto dist = loss_curve(ds, param.devices, param.partitioner, param.agg,
                               Method::kVanilla, 8, &val_dist);
  ASSERT_EQ(central.size(), dist.size());
  for (std::size_t e = 0; e < central.size(); ++e)
    EXPECT_NEAR(dist[e], central[e],
                5e-3 * std::max(1.0, std::fabs(central[e])))
        << "epoch " << e;
  EXPECT_NEAR(val_dist, val_central, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedEquivalence,
    ::testing::Values(EquivCase{2, "multilevel", Aggregator::kGcn, false},
                      EquivCase{4, "multilevel", Aggregator::kGcn, false},
                      EquivCase{3, "fennel", Aggregator::kGcn, false},
                      EquivCase{4, "random", Aggregator::kGcn, false},
                      EquivCase{4, "multilevel", Aggregator::kSageMean, false},
                      EquivCase{2, "fennel", Aggregator::kSageMean, true},
                      EquivCase{4, "multilevel", Aggregator::kGcn, true}));

TEST(DistributedEquivalence, DeviceCountDoesNotChangeLoss) {
  // 2-device and 4-device distributed runs must agree with each other too.
  Rng rng(888);
  const Dataset ds = make_dataset(tiny_spec(false), rng);
  const auto two =
      loss_curve(ds, 2, "multilevel", Aggregator::kGcn, Method::kVanilla, 6);
  const auto four =
      loss_curve(ds, 4, "multilevel", Aggregator::kGcn, Method::kVanilla, 6);
  for (std::size_t e = 0; e < two.size(); ++e)
    EXPECT_NEAR(two[e], four[e], 5e-3 * std::max(1.0, std::fabs(two[e])));
}

TEST(QuantizedTraining, TracksExactLossClosely) {
  // AdaQP's quantized loss curve must stay near the exact curve — Theorem 2
  // in action at the scale of a small graph.
  Rng rng(999);
  const Dataset ds = make_dataset(tiny_spec(false), rng);
  const auto exact =
      loss_curve(ds, 4, "multilevel", Aggregator::kGcn, Method::kVanilla, 15);
  const auto quant =
      loss_curve(ds, 4, "multilevel", Aggregator::kGcn, Method::kAdaQP, 15);
  // Same initial loss (quantization kicks in after the first traced epoch).
  EXPECT_NEAR(quant[0], exact[0], 5e-3 * std::fabs(exact[0]));
  // Final losses in the same neighborhood.
  EXPECT_NEAR(quant.back(), exact.back(),
              0.25 * std::max(0.1, std::fabs(exact.back())));
}

}  // namespace
}  // namespace adaqp
