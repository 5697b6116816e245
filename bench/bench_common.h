// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper (see the
// bench <-> paper map in docs/BENCHMARKS.md): it prints the same rows/series
// the paper reports and writes a CSV under bench/out/ for plotting.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "core/trainer.h"

namespace adaqp::bench {

/// Cluster for a paper partition-setting string: "2M-1D", "2M-2D", ...
inline ClusterSpec cluster_for(const std::string& setting) {
  const int machines = std::stoi(setting.substr(0, setting.find('M')));
  const auto d_pos = setting.find('-') + 1;
  const int devices =
      std::stoi(setting.substr(d_pos, setting.find('D') - d_pos));
  return ClusterSpec::machines(machines, devices);
}

/// Per-dataset epoch budget (scaled-down analogue of paper Appendix B).
inline int epochs_for(const std::string& dataset) {
  if (dataset == "reddit_sim") return 60;
  if (dataset == "yelp_sim") return 80;
  if (dataset == "products_sim") return 60;
  if (dataset == "amazon_sim") return 80;
  return 60;
}

/// One full training run; per-epoch evaluation only when curves are needed.
/// When `eval_every_epoch` is false a single evaluation runs after the last
/// epoch so accuracy columns are still filled.
inline RunResult run_method(const Dataset& dataset, const std::string& setting,
                            Aggregator agg, Method method,
                            std::uint64_t seed = 1,
                            bool eval_every_epoch = false, int epochs = -1) {
  TrainOptions opts;
  opts.method = method;
  opts.epochs = epochs > 0 ? epochs : epochs_for(dataset.spec.name);
  opts.seed = seed;
  opts.reassign_period = 25;
  opts.eval_every_epoch = eval_every_epoch;
  const ClusterSpec cluster = cluster_for(setting);

  Rng rng(opts.seed * 7919 + 17);
  const auto part = make_partitioner("multilevel")
                        ->partition(dataset.graph, cluster.num_devices(), rng);
  const DistGraph dist = build_dist_graph(dataset.graph, part);
  ModelConfig mc;
  mc.aggregator = agg;
  mc.in_dim = dataset.spec.feature_dim;
  mc.hidden_dim = 64;
  mc.out_dim = dataset.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.5f;
  DistTrainer trainer(dataset, dist, cluster, mc, opts);
  RunResult result = trainer.run();
  if (!eval_every_epoch) {
    const auto [val, test] = trainer.evaluate();
    result.final_val_acc = val;
    result.final_test_acc = test;
    for (const auto& e : result.epochs)
      result.best_val_acc = std::max(result.best_val_acc, e.val_acc);
    result.best_val_acc = std::max(result.best_val_acc, val);
  }
  return result;
}

inline void emit(const Table& table, const std::string& title,
                 const std::string& csv_name) {
  std::printf("\n== %s ==\n%s", title.c_str(), table.to_string().c_str());
  table.write_csv("bench/out/" + csv_name);
  std::printf("(csv: bench/out/%s)\n", csv_name.c_str());
}

// ---- Trace-interval arithmetic (overlap benches) ---------------------------
//
// The overlap benches classify recorded pipeline stage spans into interval
// sets (exchange vs compute) and measure realized concurrency as the
// intersection of their busy times. Intervals are (begin, end) pairs in
// microseconds, as recorded by pipeline::TraceRecorder.
//
// The arithmetic lives in obs/stopwatch.h — the same routines the trainer
// uses for the metrics report's realized-overlap figures — so bench numbers
// and ADAQP_METRICS numbers can never drift apart. These wrappers keep the
// benches' copy-friendly signatures (the obs versions mutate in place).

/// Seconds covered by the union of [begin, end) microsecond intervals.
inline double interval_union_seconds(
    std::vector<std::pair<double, double>> iv) {
  return obs::interval_union_seconds(iv);
}

/// Seconds where both interval sets are simultaneously active.
inline double interval_intersection_seconds(
    const std::vector<std::pair<double, double>>& a,
    const std::vector<std::pair<double, double>>& b) {
  std::vector<obs::Interval> ca(a);
  std::vector<obs::Interval> cb(b);
  return obs::interval_intersection_seconds(ca, cb);
}

}  // namespace adaqp::bench
