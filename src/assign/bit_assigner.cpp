#include "assign/bit_assigner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "quant/quantize.h"
#include "simd/kernels.h"

namespace adaqp {

namespace {

constexpr int kBitChoices[] = {2, 4, 8};

double variance_factor(int bits) {
  const double levels = static_cast<double>((1u << bits) - 1u);
  return 1.0 / (levels * levels);
}

/// Greedy MCKP: minimize Σ β_g·varfac(b_g) subject to Σ Dsum_g·b_g ≤ budget.
/// Starts everything at 2 bits and applies upgrade steps (2→4, then 4→8) in
/// order of variance-reduction per unit weight; the marginal ratios are
/// strictly diminishing per group, so this is the exact LP-relaxation
/// optimum rounded down to an integral solution.
struct KnapsackResult {
  std::vector<int> bits;
  double variance = 0.0;
  double used_weight = 0.0;
  bool feasible = true;
};

KnapsackResult solve_knapsack(const std::vector<MessageGroup>& groups,
                              double budget) {
  KnapsackResult res;
  res.bits.assign(groups.size(), 2);
  double weight = 0.0;
  for (const auto& g : groups) weight += 2.0 * static_cast<double>(g.dim_sum);
  if (weight > budget) {
    // Even the all-2-bit assignment misses the deadline; the round solution
    // keeps it (Z candidates below the all-2-bit straggler time are pruned
    // by the caller, so this only happens for deliberately tight probes).
    res.feasible = false;
  }
  struct Step {
    double ratio;
    std::uint32_t group;
    int to_bits;
    double dvar;
    double dweight;
  };
  std::vector<Step> steps;
  steps.reserve(groups.size() * 2);
  for (std::uint32_t i = 0; i < groups.size(); ++i) {
    const double beta = groups[i].beta_sum;
    const double dim = static_cast<double>(groups[i].dim_sum);
    if (dim == 0.0) continue;
    const double dvar24 = beta * (variance_factor(2) - variance_factor(4));
    const double dvar48 = beta * (variance_factor(4) - variance_factor(8));
    steps.push_back({dvar24 / (2.0 * dim), i, 4, dvar24, 2.0 * dim});
    steps.push_back({dvar48 / (4.0 * dim), i, 8, dvar48, 4.0 * dim});
  }
  // Stable sort so that equal-ratio steps keep insertion order (2→4 was
  // inserted before 4→8 per group), preserving the upgrade-chain invariant
  // even for zero-β groups.
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& a, const Step& b) { return a.ratio > b.ratio; });
  // Relative slack absorbs rounding when the budget equals an assignment's
  // exact weight (e.g. the all-8 candidate of the straggler pair).
  const double budget_slack = budget * 1e-12 + 1e-9;
  for (const auto& s : steps) {
    // A 4→8 step only applies after the matching 2→4 step; the ratio order
    // guarantees that because dvar24/2D > dvar48/4D for every group.
    if (res.bits[s.group] != s.to_bits - s.to_bits / 2) continue;
    if (weight + s.dweight > budget + budget_slack) continue;
    res.bits[s.group] = s.to_bits;
    weight += s.dweight;
  }
  res.used_weight = weight;
  for (std::size_t i = 0; i < groups.size(); ++i)
    res.variance += groups[i].beta_sum * variance_factor(res.bits[i]);
  return res;
}

double pair_time(const RoundProblem::Pair& pair, const std::vector<int>& bits) {
  double weight = 0.0;
  for (std::size_t g = 0; g < pair.groups.size(); ++g)
    weight += static_cast<double>(pair.groups[g].dim_sum) * bits[g];
  return pair.theta * weight + pair.gamma;
}

}  // namespace

namespace {

/// Normalization ranges for the two objectives. Raw variance (graph-scale
/// dependent) and raw seconds live on incomparable scales, so the weighted
/// sum scalarization (paper Eqn. 12) is applied to each objective rescaled
/// to [0,1] over its achievable range: λ=1 → pure variance minimization
/// (all 8-bit), λ=0 → pure straggler-time minimization (all 2-bit), matching
/// the endpoints of the paper's sensitivity study (Fig. 11).
struct ObjectiveScale {
  double var_min = 0.0, var_max = 0.0;  // all-8 / all-2 assignments
  double z_floor = 0.0, z_ceil = 0.0;   // all-2 / all-8 straggler times

  double scalarize(double lambda, double variance, double z) const {
    const double vspan = std::max(var_max - var_min, 1e-30);
    const double zspan = std::max(z_ceil - z_floor, 1e-30);
    return lambda * (variance - var_min) / vspan +
           (1.0 - lambda) * (z - z_floor) / zspan;
  }
};

ObjectiveScale objective_scale(const RoundProblem& problem) {
  ObjectiveScale s;
  for (const auto& pair : problem.pairs) {
    double w = 0.0;
    for (const auto& g : pair.groups) {
      w += static_cast<double>(g.dim_sum);
      s.var_max += g.beta_sum * variance_factor(2);
      s.var_min += g.beta_sum * variance_factor(8);
    }
    s.z_floor = std::max(s.z_floor, pair.theta * 2.0 * w + pair.gamma);
    s.z_ceil = std::max(s.z_ceil, pair.theta * 8.0 * w + pair.gamma);
  }
  return s;
}

}  // namespace

RoundSolution solve_round(const RoundProblem& problem, double lambda) {
  ADAQP_CHECK(lambda >= 0.0 && lambda <= 1.0);
  RoundSolution best;
  best.objective = std::numeric_limits<double>::infinity();
  if (problem.pairs.empty()) {
    best.objective = 0.0;
    return best;
  }

  // Candidate Z values: for every pair, the times of its all-2, all-4 and
  // all-8 assignments, plus a refinement grid between the global feasibility
  // floor (max of all-2 times) and ceiling (max of all-8 times).
  const ObjectiveScale scale = objective_scale(problem);
  std::vector<double> candidates;
  for (const auto& pair : problem.pairs) {
    double w = 0.0;
    for (const auto& g : pair.groups) w += static_cast<double>(g.dim_sum);
    candidates.insert(candidates.end(),
                      {pair.theta * 2.0 * w + pair.gamma,
                       pair.theta * 4.0 * w + pair.gamma,
                       pair.theta * 8.0 * w + pair.gamma});
  }
  constexpr int kGrid = 33;
  for (int i = 0; i <= kGrid; ++i)
    candidates.push_back(scale.z_floor + (scale.z_ceil - scale.z_floor) *
                                             static_cast<double>(i) / kGrid);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  for (double z : candidates) {
    if (z + 1e-15 < scale.z_floor) continue;  // infeasible even at 2 bits
    RoundSolution sol;
    sol.bits.resize(problem.pairs.size());
    sol.variance = 0.0;
    double realized_z = 0.0;
    for (std::size_t p = 0; p < problem.pairs.size(); ++p) {
      const auto& pair = problem.pairs[p];
      const double budget =
          pair.theta > 0.0 ? (z - pair.gamma) / pair.theta
                           : std::numeric_limits<double>::infinity();
      KnapsackResult k = solve_knapsack(pair.groups, budget);
      sol.bits[p] = std::move(k.bits);
      sol.variance += k.variance;
      realized_z = std::max(realized_z, pair_time(pair, sol.bits[p]));
    }
    sol.z = realized_z;
    sol.objective = scale.scalarize(lambda, sol.variance, sol.z);
    if (sol.objective < best.objective) best = std::move(sol);
  }
  return best;
}

RoundSolution solve_round_bruteforce(const RoundProblem& problem,
                                     double lambda) {
  // Enumerate every assignment; pairs are independent only through Z, so the
  // full cross product is required. Tests keep total group count ≤ ~8.
  std::size_t total_groups = 0;
  for (const auto& pair : problem.pairs) total_groups += pair.groups.size();
  ADAQP_CHECK_MSG(total_groups <= 12, "brute force limited to 12 groups");

  RoundSolution best;
  best.objective = std::numeric_limits<double>::infinity();
  std::vector<int> flat(total_groups, 0);  // indices into kBitChoices
  const ObjectiveScale scale = objective_scale(problem);

  auto evaluate = [&]() {
    RoundSolution sol;
    sol.bits.resize(problem.pairs.size());
    std::size_t at = 0;
    double z = 0.0, var = 0.0;
    for (std::size_t p = 0; p < problem.pairs.size(); ++p) {
      const auto& pair = problem.pairs[p];
      sol.bits[p].resize(pair.groups.size());
      for (std::size_t g = 0; g < pair.groups.size(); ++g) {
        sol.bits[p][g] = kBitChoices[flat[at++]];
        var += pair.groups[g].beta_sum * variance_factor(sol.bits[p][g]);
      }
      z = std::max(z, pair_time(pair, sol.bits[p]));
    }
    sol.variance = var;
    sol.z = z;
    sol.objective = scale.scalarize(lambda, var, z);
    if (sol.objective < best.objective) best = std::move(sol);
  };

  // Odometer over 3^total_groups assignments.
  while (true) {
    evaluate();
    std::size_t i = 0;
    while (i < total_groups && flat[i] == 2) flat[i++] = 0;
    if (i == total_groups) break;
    flat[i]++;
  }
  if (total_groups == 0) evaluate();
  return best;
}

std::vector<float> row_ranges_of(const Matrix& m) {
  std::vector<float> ranges;
  row_ranges_of_into(m, ranges);
  return ranges;
}

void row_ranges_of_into(const Matrix& m, std::vector<float>& ranges) {
  ranges.assign(m.rows(), 0.0f);
  if (m.cols() == 0) return;
  const auto row_minmax = simd::kernels().row_minmax;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float lo = 0.0f, hi = 0.0f;
    row_minmax(m.row(r).data(), m.cols(), &lo, &hi);
    // Which zero a min/max reduction keeps depends on its order; + 0.0f
    // maps -0 to +0 (as quantize_payload does), so the range is the same
    // bits on every ISA.
    ranges[r] = (hi + 0.0f) - (lo + 0.0f);
  }
}

std::vector<std::vector<std::vector<double>>> message_betas(
    const DistGraph& dist, Aggregator agg, Direction dir,
    const std::vector<std::vector<float>>& row_ranges, std::size_t dim) {
  const int n = dist.num_devices();
  ADAQP_CHECK(static_cast<int>(row_ranges.size()) == n);

  std::vector<std::vector<std::vector<double>>> betas(n);
  for (int d = 0; d < n; ++d) {
    const DeviceGraph& dev = dist.devices[d];
    betas[d].resize(n);
    if (dir == Direction::kForward) {
      // Message k → peer p: k is an owned node; its aggregation targets on p
      // are exactly its halo neighbors owned by p (graph symmetry).
      // Precompute per (owned node, peer) Σ α².
      for (int p = 0; p < n; ++p) {
        const auto& sends = dev.send_local[p];
        betas[d][p].assign(sends.size(), 0.0);
        for (std::size_t i = 0; i < sends.size(); ++i) {
          const NodeId k = sends[i];
          double alpha_sq = 0.0;
          for (NodeId u : dev.neighbors(k)) {
            if (u < dev.num_owned) continue;  // local target
            const NodeId gu = dev.global_of_local[u];
            if (dist.partition.part_of[gu] != p) continue;
            // α(k → u) as used when u aggregates k.
            const double a = aggregation_coefficient(
                agg, dev.global_degree[k], dev.global_degree[u]);
            alpha_sq += a * a;
          }
          const double range = row_ranges[d][k];
          betas[d][p][i] = alpha_sq * static_cast<double>(dim) *
                           static_cast<double>(range) * range / 6.0;
        }
      }
    } else {
      // Backward message: gradient of halo node v sent back to owner p; the
      // owner scatters it to v's neighbors owned here... rather, the variance
      // enters through this device's owned nodes u that aggregated v — the
      // α²(v→u) sum over owned u (Theorem 3's error term, symmetric role).
      std::vector<double> alpha_sq_halo(dev.num_local(), 0.0);
      for (std::size_t u = 0; u < dev.num_owned; ++u) {
        for (NodeId v : dev.neighbors(static_cast<NodeId>(u))) {
          if (v < dev.num_owned) continue;
          const double a = aggregation_coefficient(
              agg, dev.global_degree[v],
              dev.global_degree[u]);
          alpha_sq_halo[v] += a * a;
        }
      }
      for (int p = 0; p < n; ++p) {
        const auto& recvs = dev.recv_local[p];
        betas[d][p].assign(recvs.size(), 0.0);
        for (std::size_t i = 0; i < recvs.size(); ++i) {
          const NodeId v = recvs[i];
          const double range = row_ranges[d][v];
          betas[d][p][i] = alpha_sq_halo[v] * static_cast<double>(dim) *
                           static_cast<double>(range) * range / 6.0;
        }
      }
    }
  }
  return betas;
}

ExchangePlan assign_bit_widths(const DistGraph& dist,
                               const ClusterSpec& cluster, Aggregator agg,
                               Direction dir,
                               const std::vector<std::vector<float>>& row_ranges,
                               std::size_t dim, const AssignerOptions& opts,
                               AssignReport* report) {
  const obs::Stopwatch solve_watch;
  const int n = dist.num_devices();
  ADAQP_CHECK(opts.group_size >= 1);

  const auto betas = message_betas(dist, agg, dir, row_ranges, dim);

  // Initialize plan with all-8-bit defaults (overwritten below).
  ExchangePlan plan = dir == Direction::kForward
                          ? ExchangePlan::uniform_forward(dist, 8)
                          : ExchangePlan::uniform_backward(dist, 8);

  AssignReport rep;
  const RingAllToAll ring(n);
  for (int round = 1; round <= ring.num_rounds(); ++round) {
    RoundProblem problem;
    // Remember, per problem pair, the grouping (message indices per group)
    // so the solution can be written back into the plan.
    struct PairMeta {
      int src, dst;
      std::vector<std::vector<std::uint32_t>> group_members;
    };
    std::vector<PairMeta> metas;
    for (int src = 0; src < n; ++src) {
      const int dst = ring.send_peer(src, round);
      const auto& list = dir == Direction::kForward
                             ? dist.devices[src].send_local[dst]
                             : dist.devices[src].recv_local[dst];
      if (list.empty()) continue;
      const auto& b = betas[src][dst];
      // Order messages by β (paper: sort by β then chunk into groups).
      std::vector<std::uint32_t> order(list.size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
        return b[x] > b[y];
      });
      RoundProblem::Pair pair;
      pair.src = src;
      pair.dst = dst;
      const LinkParams link = cluster.link(src, dst);
      // θ in seconds per (dim·bit): bits→bytes is /8.
      pair.theta = link.theta / 8.0;
      pair.gamma = link.gamma;
      PairMeta meta;
      meta.src = src;
      meta.dst = dst;
      for (std::size_t at = 0; at < order.size(); at += opts.group_size) {
        MessageGroup group;
        std::vector<std::uint32_t> members;
        for (std::size_t i = at;
             i < std::min(order.size(), at + opts.group_size); ++i) {
          group.beta_sum += b[order[i]];
          group.dim_sum += dim;
          members.push_back(order[i]);
        }
        pair.groups.push_back(std::move(group));
        meta.group_members.push_back(std::move(members));
      }
      rep.num_groups += pair.groups.size();
      problem.pairs.push_back(std::move(pair));
      metas.push_back(std::move(meta));
    }
    if (problem.pairs.empty()) continue;

    const RoundSolution sol = solve_round(problem, opts.lambda);
    rep.total_variance += sol.variance;
    rep.total_z += sol.z;
    rep.total_objective += sol.objective;
    for (std::size_t p = 0; p < metas.size(); ++p) {
      const auto& meta = metas[p];
      for (std::size_t g = 0; g < meta.group_members.size(); ++g)
        for (std::uint32_t idx : meta.group_members[g])
          plan.bits[meta.src][meta.dst][idx] = sol.bits[p][g];
    }
  }

  // Observability: solve count/latency and the realized bit-width
  // distribution — recorded whether or not the caller asked for a report.
  {
    const obs::Instruments& ins = obs::instruments();
    ins.assigner_solves.add(1);
    ins.assigner_solve_us.record(solve_watch.elapsed_us());
    std::array<std::uint64_t, 3> dist_by_width{};
    for (const auto& per_device : plan.bits)
      for (const auto& per_peer : per_device)
        for (const int b : per_peer) {
          const int w = obs::width_index(b);
          if (w < 3) ++dist_by_width[static_cast<std::size_t>(w)];
        }
    for (int w = 0; w < 3; ++w)
      ins.assigner_bits[static_cast<std::size_t>(w)]->add(
          dist_by_width[static_cast<std::size_t>(w)]);
  }

  if (report) {
    rep.solve_wall_seconds = solve_watch.elapsed_seconds();
    // Simulated master gather/scatter of traced β data (paper Fig. 6):
    // every worker ships one double per message to rank 0 and receives one
    // byte (the bit choice) back.
    std::size_t traced_bytes = 0;
    for (int d = 1; d < n; ++d)
      for (int p = 0; p < n; ++p)
        traced_bytes += betas[d][p].size() * (sizeof(double) + 1);
    rep.sim_gather_scatter_seconds =
        cluster.transfer_seconds(1 % std::max(n, 2), 0, traced_bytes);
    *report = rep;
  }
  return plan;
}

ExchangePlan sample_uniform_plan(const DistGraph& dist, Direction dir,
                                 Rng& rng) {
  ExchangePlan plan = dir == Direction::kForward
                          ? ExchangePlan::uniform_forward(dist, 8)
                          : ExchangePlan::uniform_backward(dist, 8);
  for (auto& per_device : plan.bits)
    for (auto& per_peer : per_device)
      for (int& b : per_peer) b = kBitChoices[rng.uniform_int(3)];
  return plan;
}

}  // namespace adaqp
