// End-to-end comparison of every training method on one dataset.
//
// Usage: distributed_training [dataset] [setting] [model] [epochs]
//   dataset: reddit_sim | yelp_sim | products_sim | amazon_sim
//   setting: 2M-1D | 2M-2D | 2M-4D | 6M-4D ...  (machines x devices)
//   model:   gcn | sage
// Example: ./build/examples/distributed_training amazon_sim 2M-4D sage 80
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.h"
#include "core/trainer.h"

using namespace adaqp;

int main(int argc, char** argv) {
  const std::string dataset_name = argc > 1 ? argv[1] : "products_sim";
  const std::string setting = argc > 2 ? argv[2] : "2M-2D";
  const std::string model = argc > 3 ? argv[3] : "gcn";
  const int epochs = argc > 4 ? std::atoi(argv[4]) : 50;

  const int machines = std::stoi(setting.substr(0, setting.find('M')));
  const auto d_pos = setting.find('-') + 1;
  const int devs = std::stoi(setting.substr(d_pos, setting.find('D') - d_pos));
  const ClusterSpec cluster = ClusterSpec::machines(machines, devs);
  const Aggregator agg =
      model == "sage" ? Aggregator::kSageMean : Aggregator::kGcn;

  const Dataset dataset = make_dataset(dataset_name, 42);
  std::printf("dataset %s: %zu nodes / %zu edges; cluster %s (%d devices); "
              "model %s; %d epochs\n\n",
              dataset_name.c_str(), dataset.num_nodes(),
              dataset.graph.num_undirected_edges(), setting.c_str(),
              cluster.num_devices(), model.c_str(), epochs);

  Table table({"Method", "Final Acc(%)", "Epoch (ms)", "Speedup", "Comm (MB)",
               "Wall-clock (s)"});
  double vanilla_epoch = 0.0;
  for (Method m : {Method::kVanilla, Method::kAdaQP, Method::kAdaQPUniform,
                   Method::kPipeGCN, Method::kSancus}) {
    TrainOptions opts;
    opts.method = m;
    opts.epochs = epochs;
    opts.seed = 7;
    opts.reassign_period = 25;
    opts.eval_every_epoch = false;
    opts.verbose = false;
    opts.eval_every_epoch = true;  // final_val_acc comes from the last epoch
    RunResult r = run_training(dataset, cluster, agg, opts);
    if (m == Method::kVanilla) vanilla_epoch = r.avg_epoch_seconds;
    table.add_row({r.method, Table::fmt(r.final_val_acc * 100, 2),
                   Table::fmt(r.avg_epoch_seconds * 1e3, 3),
                   Table::fmt(vanilla_epoch / r.avg_epoch_seconds, 2) + "x",
                   Table::fmt(r.total_comm_bytes / 1e6, 1),
                   Table::fmt(r.wall_clock_seconds, 3)});
    std::printf("finished %s\n", r.method.c_str());
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf("\nTimes are simulated cluster seconds (see docs/DESIGN.md);\n"
              "the numerics are exact — every message passed through the\n"
              "real quantization codec.\n");
  return 0;
}
