// Synthetic analogues of the paper's benchmark datasets.
//
// The real Reddit / Yelp / ogbn-products / AmazonProducts graphs are
// multi-GB downloads; each is replaced (docs/DESIGN.md, "Substitutes") by a
// degree-corrected SBM parameterized to preserve what the experiments
// actually exercise:
//   * relative density ordering  (Reddit ≫ Amazon > products > Yelp),
//   * heavy-tailed degrees       (drives skewed pairwise halo volumes, Fig 2),
//   * task type                  (single-label: Reddit, products;
//                                 multi-label: Yelp, Amazon),
//   * learnable class signal     (features = class centroid + noise over a
//                                 label-aligned planted block structure).
// Node counts are ~1/1000 of the originals so full-graph training runs in
// seconds per epoch on one CPU core.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace adaqp {

class Rng;

struct DatasetSpec {
  std::string name;
  std::size_t num_nodes = 0;
  double avg_degree = 10.0;
  std::size_t feature_dim = 32;
  std::size_t num_classes = 8;
  bool multi_label = false;
  double intra_prob = 0.7;        ///< block assortativity
  double degree_exponent = 2.2;   ///< degree-propensity power law
  double block_size_exponent = 0.0;  ///< community-size heterogeneity
  double feature_noise = 1.0;     ///< σ of per-node feature noise
  double train_fraction = 0.6;
  double val_fraction = 0.2;
};

struct Dataset {
  DatasetSpec spec;
  Graph graph;
  Matrix features;                    ///< n x feature_dim
  std::vector<std::int32_t> labels;   ///< single-label tasks
  Matrix label_matrix;                ///< multi-label tasks: n x classes
  std::vector<std::uint32_t> train_nodes;
  std::vector<std::uint32_t> val_nodes;
  std::vector<std::uint32_t> test_nodes;

  std::size_t num_nodes() const { return graph.num_nodes(); }
  std::size_t num_classes() const { return spec.num_classes; }
};

/// Specs mirroring the paper's Table 3 datasets at simulation scale.
/// Known names: "reddit_sim", "yelp_sim", "products_sim", "amazon_sim".
DatasetSpec dataset_spec(const std::string& name);

/// All four benchmark specs in the paper's presentation order.
std::vector<DatasetSpec> all_benchmark_specs();

/// Materialize a dataset (graph + features + labels + splits).
Dataset make_dataset(const DatasetSpec& spec, Rng& rng);

/// Convenience: spec lookup + generation with a derived seed.
Dataset make_dataset(const std::string& name, std::uint64_t seed);

}  // namespace adaqp
