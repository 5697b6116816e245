// Synthetic graph generators.
//
// These supply the topology side of the dataset substitutes (docs/DESIGN.md,
// "Substitutes"):
// the paper's benchmark graphs are modeled by a degree-corrected stochastic
// block model whose density, block structure, and degree skew are
// parameterized per dataset in src/data. Simpler generators (ER, R-MAT,
// ring/star/grid) serve tests and micro-benchmarks.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace adaqp {

class Rng;

/// G(n, m)-style Erdős–Rényi: sample `target_edges` distinct undirected edges.
Graph erdos_renyi(std::size_t n, std::size_t target_edges, Rng& rng);

/// Recursive-matrix (R-MAT) generator with standard (a,b,c,d) quadrant
/// probabilities; produces the heavy-tailed degree distributions typical of
/// web/social graphs. `scale` gives n = 2^scale nodes.
Graph rmat(unsigned scale, std::size_t target_edges, double a, double b,
           double c, Rng& rng);

/// Parameters for the degree-corrected stochastic block model.
struct DcSbmParams {
  std::size_t num_nodes = 0;
  std::size_t num_blocks = 1;
  double avg_degree = 10.0;       ///< expected mean (directed) degree / 2
  double intra_prob = 0.8;        ///< fraction of a node's edges inside block
  double degree_exponent = 2.5;   ///< power-law exponent of degree propensity
  std::size_t max_degree_cap = 0; ///< 0 => num_nodes / 4
  /// Block-size heterogeneity: size of block b ∝ (b+1)^-block_size_exponent
  /// (0 = equal-sized blocks). Real community structures are skewed, which
  /// is what makes pairwise communication volumes unbalanced (paper Fig. 2).
  double block_size_exponent = 0.0;
};

struct DcSbm {
  Graph graph;
  std::vector<int> block_of;  ///< planted block per node
};

/// Degree-corrected SBM: node degree propensities follow a power law and
/// each edge endpoint picks intra- vs inter-block targets by intra_prob.
DcSbm dc_sbm(const DcSbmParams& params, Rng& rng);

// ---- Small deterministic graphs for tests ----------------------------------

Graph ring_graph(std::size_t n);
Graph star_graph(std::size_t n);             ///< node 0 is the hub
Graph complete_graph(std::size_t n);
Graph grid_graph(std::size_t rows, std::size_t cols);
Graph path_graph(std::size_t n);

}  // namespace adaqp
