#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/race_checker.h"
#include "common/check.h"
#include "common/env.h"
#include "core/timing.h"
#include "gnn/loss.h"
#include "memory/alloc_track.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "pipeline/async_exchange.h"
#include "pipeline/config.h"
#include "pipeline/stage_graph.h"
#include "pipeline/trace.h"
#include "runtime/thread_pool.h"
#include "transport/transport.h"

namespace adaqp {

std::string method_name(Method method) {
  switch (method) {
    case Method::kVanilla: return "Vanilla";
    case Method::kAdaQP: return "AdaQP";
    case Method::kAdaQPUniform: return "AdaQP-Uniform";
    case Method::kPipeGCN: return "PipeGCN-like";
    case Method::kSancus: return "SANCUS-like";
  }
  return "?";
}

void EpochBreakdown::accumulate(const EpochBreakdown& other) {
  comm += other.comm;
  comp += other.comp;
  quant += other.quant;
  total += other.total;
}

namespace {

/// "<tag><index>" ("L1", "d0"): the layer and device parts of stage and
/// race-checker labels.
std::string indexed(const char* tag, int index) {
  std::string label = tag;
  label += std::to_string(index);
  return label;
}

// ---- Race-checker annotations (ADAQP_RACECHECK) ---------------------------
//
// The compute stages of the layer graphs declare their row intervals so the
// checker can prove the central/marginal split and the exchange stages
// never touch the same bytes unordered. Lists are built only
// when the checker is enabled.

using analysis::AccessList;
using analysis::BufferAccess;

constexpr auto kRcRead = BufferAccess::Mode::kRead;
constexpr auto kRcWrite = BufferAccess::Mode::kWrite;

void rc_rows(AccessList& out, const Matrix& m, std::span<const NodeId> rows,
             BufferAccess::Mode mode, const std::string& label) {
  analysis::append_row_set(out, m.data(), m.cols() * sizeof(float),
                           rows.data(), rows.size(), mode, label);
}

BufferAccess rc_row_range(const Matrix& m, std::size_t row_begin,
                          std::size_t row_end, BufferAccess::Mode mode,
                          std::string label) {
  return analysis::row_range(m.data(), m.cols() * sizeof(float), row_begin,
                             row_end, mode, std::move(label));
}

}  // namespace

DistTrainer::DistTrainer(const Dataset& dataset, const DistGraph& dist,
                         const ClusterSpec& cluster,
                         const ModelConfig& model_config,
                         const TrainOptions& opts)
    : dataset_(dataset),
      dist_(dist),
      cluster_(cluster),
      opts_(opts),
      master_rng_(opts.seed),
      model_(model_config, master_rng_),
      adam_(opts.adam) {
  num_devices_ = dist_.num_devices();
  num_layers_ = model_.num_layers();
  async_pipeline_ = pipeline::async_enabled();
  ADAQP_CHECK(cluster_.num_devices() == num_devices_);
  ADAQP_CHECK(model_config.in_dim == dataset.spec.feature_dim);

  // The method, read once: everything below is method-agnostic.
  const Method method = opts_.method;
  const bool quantizing =
      method == Method::kAdaQP || method == Method::kAdaQPUniform;
  policy_.plans = method == Method::kAdaQP ? Policy::Plans::kAssigner
                  : quantizing ? Policy::Plans::kRandomUniform
                               : Policy::Plans::kUniform32;
  policy_.split = quantizing;
  policy_.deferred = method == Method::kPipeGCN;
  policy_.skip_stale = method == Method::kSancus;

  for (int d = 0; d < num_devices_; ++d)
    device_rngs_.push_back(master_rng_.split());

  // Per-device training rows, labels and targets.
  std::vector<std::uint8_t> is_train(dataset_.num_nodes(), 0);
  for (auto v : dataset_.train_nodes) is_train[v] = 1;
  global_train_count_ = static_cast<double>(dataset_.train_nodes.size());
  train_rows_.resize(num_devices_);
  train_labels_.resize(num_devices_);
  train_targets_.resize(num_devices_);
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    std::vector<std::uint32_t>& rows = train_rows_[d];
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      const NodeId g = dev.global_of_local[i];
      if (!is_train[g]) continue;
      rows.push_back(static_cast<std::uint32_t>(i));
      train_labels_[d].push_back(dataset_.labels[g]);
    }
    if (dataset_.spec.multi_label) {
      Matrix targets(rows.size(), dataset_.num_classes());
      std::size_t at = 0;
      for (std::size_t i = 0; i < dev.num_owned; ++i) {
        const NodeId g = dev.global_of_local[i];
        if (!is_train[g]) continue;
        const auto src = dataset_.label_matrix.row(g);
        std::copy(src.begin(), src.end(), targets.row(at++).begin());
      }
      train_targets_[d] = std::move(targets);
    }
  }

  // Activation buffers and caches (evaluation sizes its own on first use).
  acts_.resize(num_layers_ + 1);
  eval_acts_.resize(num_layers_ + 1);
  caches_.resize(num_layers_);
  acts_[0] = scatter_to_devices(dataset_.features, dist_);
  for (int l = 1; l <= num_layers_; ++l) {
    const std::size_t dim = model_.layer_out_dim(l - 1);
    acts_[l].reserve(num_devices_);
    for (int d = 0; d < num_devices_; ++d)
      acts_[l].emplace_back(dist_.devices[d].num_local(), dim);
  }
  for (int l = 0; l < num_layers_; ++l) caches_[l].resize(num_devices_);

  // Plans: everything starts full-precision; quantizing methods refresh
  // after the first traced epoch.
  fwd_plans_.resize(num_layers_);
  bwd_plans_.resize(num_layers_);
  for (int l = 0; l < num_layers_; ++l) {
    fwd_plans_[l] = ExchangePlan::uniform_forward(dist_, 32);
    bwd_plans_[l] = ExchangePlan::uniform_backward(dist_, 32);
  }
  eval_plan_ = ExchangePlan::uniform_forward(dist_, 32);
  fwd_ranges_.resize(num_layers_);
  bwd_ranges_.resize(num_layers_);

  // The persistent layer graphs. Training and evaluation exchanges share
  // one wire channel, claimed in deterministic order so replicated ranks
  // agree (src/transport/): these graphs run one at a time, so a (round,
  // direction, pair) tag is never in flight twice.
  fwd_graphs_.resize(num_layers_);
  bwd_graphs_.resize(num_layers_);
  eval_graphs_.resize(num_layers_);
  const std::uint32_t channel = transport::next_channel();
  for (int l = 0; l < num_layers_; ++l) {
    fwd_graphs_[l].acct.channel = channel;
    bwd_graphs_[l].acct.channel = channel;
    eval_graphs_[l].acct.channel = channel;
  }

  if (policy_.deferred) {
    pipegcn_bwd_scratch_.resize(num_layers_);
    pipegcn_joined_comm_.assign(num_layers_, 0.0);
    for (int l = 1; l < num_layers_; ++l) {
      const std::size_t dim = model_.layer_in_dim(l);
      for (int d = 0; d < num_devices_; ++d)
        pipegcn_bwd_scratch_[l].emplace_back(dist_.devices[d].num_local(),
                                             dim);
    }
    // Build every deferred exchange graph now (stages + warmed staging, no
    // RNG draws, nothing launched): the forward ones first launch in epoch
    // 1 — already steady state — and must not allocate. Several are in
    // flight at once, so each claims its own wire channel.
    deferred_fwd_.resize(num_layers_);
    deferred_bwd_.resize(num_layers_);
    const auto build_deferred = [&](LayerGraph& lg, int l, bool forward,
                                    std::vector<Matrix>& buffers,
                                    const ExchangePlan& plan) {
      lg.acct.channel = transport::next_channel();
      // Sizes the accounting slots the stages' race-checker access lists
      // point at, so it precedes the build.
      lg.acct.warm(dist_, plan, forward, model_.layer_in_dim(l));
      lg.graph = std::make_unique<pipeline::StageGraph>();
      lg.graph->set_label(indexed("L", l) + (forward ? "" : "b") +
                          "/deferred");
      if (forward)
        pipeline::add_forward_exchange_stages(*lg.graph, dist_, buffers, plan,
                                              lg.acct);
      else
        pipeline::add_backward_exchange_stages(*lg.graph, dist_, buffers,
                                               plan, lg.acct);
      lg.graph->prewarm();
    };
    for (int l = 0; l < num_layers_; ++l) {
      build_deferred(deferred_fwd_[l], l, /*forward=*/true, acts_[l],
                     fwd_plans_[l]);
      if (l > 0)
        build_deferred(deferred_bwd_[l], l, /*forward=*/false,
                       pipegcn_bwd_scratch_[l], bwd_plans_[l]);
    }
  }

  // ---- Memory subsystem: cache the stable param set and size the
  // persistent scratch the training loop reuses every epoch
  // (docs/ARCHITECTURE.md, "Memory subsystem").
  params_ = model_.params();
  grad_bytes_ = model_.grad_bytes();

  device_loss_.resize(num_devices_);
  loss_prob_.resize(num_devices_);
  grad_flow_.resize(2);
  for (auto& flow : grad_flow_) flow.resize(num_devices_);
  bwd_sinks_.resize(num_layers_);
  bwd_marginal_sinks_.resize(num_layers_);
  bwd_scratch_.resize(num_layers_);
  for (int l = 0; l < num_layers_; ++l) {
    bwd_sinks_[l].resize(num_devices_);
    bwd_marginal_sinks_[l].resize(num_devices_);
    bwd_scratch_[l].resize(num_devices_);
  }
  // Register every metrics instrument now: the registry inserts on first
  // use, and first use must not land inside a steady-state epoch.
  (void)obs::instruments();

  if (policy_.skip_stale) {
    // Broadcast streams: seeded apart from master_rng_, which the layer
    // compute's streams come from.
    Rng broadcast_seed(opts_.seed ^ 0x9e3779b97f4a7c15ull);
    for (int d = 0; d < num_devices_; ++d)
      broadcast_rngs_.push_back(broadcast_seed.split());
    sancus_last_bcast_.resize(num_layers_);
    sancus_last_norm_.assign(num_layers_, std::vector<double>(num_devices_));
    sancus_staleness_.assign(num_layers_,
                             std::vector<int>(num_devices_, 1 << 20));
    sancus_skip_.assign(num_layers_, std::vector<char>(num_devices_, 0));
    for (int l = 0; l < num_layers_; ++l) {
      sancus_last_bcast_[l].resize(num_devices_);
      fwd_graphs_[l].acct.skip = &sancus_skip_[l];
      bwd_graphs_[l].acct.skip = &sancus_skip_[l];
    }
  }
}

double DistTrainer::compute_seconds(int layer, bool backward,
                                    bool central_only, int device) const {
  const DeviceGraph& dev = dist_.devices[device];
  // Precomputed index views — no per-call row-vector builds.
  const std::span<const NodeId> rows =
      central_only ? dev.central_span() : dev.owned_span();
  const std::size_t in = model_.layer_in_dim(layer);
  const std::size_t out = model_.layer_out_dim(layer);
  return backward ? layer_backward_seconds(cluster_, dev, rows, in, out)
                  : layer_forward_seconds(cluster_, dev, rows, in, out);
}

double DistTrainer::max_compute_seconds(int layer, bool backward,
                                        bool central_only) const {
  double m = 0.0;
  for (int d = 0; d < num_devices_; ++d)
    m = std::max(m, compute_seconds(layer, backward, central_only, d));
  return m;
}

double DistTrainer::marginal_compute_seconds_max(int layer,
                                                 bool backward) const {
  double m = 0.0;
  const std::size_t in = model_.layer_in_dim(layer);
  const std::size_t out = model_.layer_out_dim(layer);
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    const double s =
        backward
            ? layer_backward_seconds(cluster_, dev, dev.marginal_nodes, in, out)
            : layer_forward_seconds(cluster_, dev, dev.marginal_nodes, in, out);
    m = std::max(m, s);
  }
  return m;
}

EpochBreakdown DistTrainer::layer_time(int l, bool backward,
                                       double comm) const {
  EpochBreakdown bd;
  bd.comm = comm;
  if (backward && l == 0) {
    // No exchange below the first layer: its backward is pure compute.
    bd.comp = max_compute_seconds(0, /*backward=*/true, false);
    bd.total = bd.comp;
    return bd;
  }
  if (policy_.split) {
    // Central compute hides inside communication; the quantize /
    // de-quantize kernels and marginal compute do not (Fig. 10a).
    const double central_s = max_compute_seconds(l, backward, true);
    const double tq = stats_scratch_.max_quant_seconds();
    const double tdq = stats_scratch_.max_dequant_seconds();
    bd.comp = marginal_compute_seconds_max(l, backward);
    bd.quant = tq + tdq;
    bd.total = tq + std::max(comm, central_s) + tdq + bd.comp;
    return bd;
  }
  bd.comp = max_compute_seconds(l, backward, false);
  // A deferred exchange (every warm one; backward ones always are) is
  // hidden inside computation; otherwise the exchange precedes compute.
  const bool hidden = policy_.deferred && (backward || pipegcn_warm_);
  bd.total = hidden ? std::max(bd.comp, comm) : comm + bd.comp;
  return bd;
}

EpochBreakdown DistTrainer::forward_layer(int l) {
  // Cross-iteration joins first: layer l's compute reads the halo rows the
  // pending deferred exchange of layer l delivers, and *writes* the owned
  // rows of acts_[l + 1] that the next pending exchange's encode stages
  // read — both must be joined before the trace below touches acts_[l].
  // Join time is stashed per slot and consumed by the slot's own layer.
  if (policy_.deferred && pipegcn_warm_) {
    join_deferred(l, /*forward=*/true);
    if (l + 1 < num_layers_) join_deferred(l + 1, /*forward=*/true);
  }
  // Trace input ranges for the assigner before any halo row of this
  // layer's input is rewritten — only when this epoch's refresh reads them.
  fwd_ranges_[l].resize(num_devices_);
  for (int d = 0; traces_ranges() && d < num_devices_; ++d)
    row_ranges_of_into(acts_[l][d], fwd_ranges_[l][d]);
  if (policy_.skip_stale) sancus_drift_step(l);
  if (policy_.deferred && !pipegcn_warm_) {
    // Cold start (epoch 0): the deferred exchange graph runs one
    // full-precision round before compute.
    launch_deferred(deferred_fwd_[l]);
    join_deferred(l, /*forward=*/true);
  }

  LayerGraph& lg = fwd_graphs_[l];
  const bool exchange = !policy_.deferred;
  // The exchange's per-pair streams are derived here, before the layer
  // compute draws its dropout masks from the device streams.
  if (exchange)
    lg.acct.init(num_devices_,
                 policy_.skip_stale ? broadcast_rngs_ : device_rngs_);
  if (!lg.graph)
    build_forward_graph(lg, l, acts_[l], acts_[l + 1], caches_[l],
                        fwd_plans_[l], /*training=*/true);
  run_layer_graph(lg, l, /*forward=*/true, exchange);

  double comm = exchange ? stats_scratch_.comm_seconds : 0.0;
  if (policy_.deferred) {
    comm = pipegcn_joined_comm_[l];
    pipegcn_joined_comm_[l] = 0.0;
    // Ship the (already-consumed) inputs so next epoch's halos are one
    // epoch stale; the stages stay in flight across the iteration boundary.
    if (pipegcn_warm_) launch_deferred(deferred_fwd_[l]);
  }
  return layer_time(l, /*backward=*/false, comm);
}

void DistTrainer::build_forward_graph(LayerGraph& lg, int l,
                                      std::vector<Matrix>& in,
                                      std::vector<Matrix>& out,
                                      std::vector<LayerCache>& caches,
                                      const ExchangePlan& plan,
                                      bool training) {
  // Stage bodies write disjoint rows and use private RNG streams, so every
  // schedule of this graph is bit-identical. Built once (training: warmup
  // epoch 0, uniform 32-bit plan = maximal payloads), re-armed in place
  // forever after: the stage lambdas read `plan` (stable address) at run
  // time, so plan refreshes need no rebuild.
  lg.graph = std::make_unique<pipeline::StageGraph>();
  pipeline::StageGraph& graph = *lg.graph;
  const std::string prefix = indexed("L", l) + (training ? "" : "e");
  graph.set_label(prefix + "/forward");
  const bool split = training && policy_.split;
  const bool exchange = !training || !policy_.deferred;
  pipeline::PairStages pair;
  if (exchange)
    pair = pipeline::add_forward_exchange_stages(graph, dist_, in, plan,
                                                 lg.acct);
  // Stage `first` (if any) plus every message decoding into d's halo rows.
  const auto after_inbound = [&](int d, int first) {
    std::vector<int> deps;
    if (first >= 0) deps.push_back(first);
    if (exchange)
      for (int p : dist_.devices[d].halo_senders)
        if (pair.stage[p][d] >= 0) deps.push_back(pair.stage[p][d]);
    return deps;
  };
  std::vector<int> central(num_devices_, -1);
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    const std::string dn = indexed("d", d);
    AccessList acc;
    if (analysis::racecheck_enabled()) {
      // Central rows aggregate only owned neighbors (layers.h), so their
      // read never touches the halo rows the exchange is decoding into;
      // full rows read everything, ordered behind the inbound decodes.
      acc.push_back(rc_row_range(in[d], 0,
                                 split ? dev.num_owned : dev.num_local(),
                                 kRcRead, "x[" + dn + "].input_rows"));
      if (split)
        rc_rows(acc, out[d], dev.central_span(), kRcWrite,
                "h[" + dn + "].central_rows");
      else
        acc.push_back(rc_row_range(out[d], 0, dev.num_owned, kRcWrite,
                                   "h[" + dn + "].owned_rows"));
      acc.push_back(analysis::write_of(&caches[d], sizeof(caches[d]),
                                       "cache[" + dn + "]"));
      acc.push_back(analysis::write_of(&device_rngs_[d],
                                       sizeof(device_rngs_[d]),
                                       "rng[" + dn + "]"));
    }
    if (split) {
      // Central rows are the compute meant to hide under the exchange: the
      // overlap report pairs them with the wire stages.
      central[d] = graph.add(
          prefix + "/central/" + dn,
          [this, &in, &out, &caches, l, d] {
            const DeviceGraph& device = dist_.devices[d];
            const GnnLayer& layer = model_.layer(l);
            layer.forward_prepare(device, caches[d], device_rngs_[d],
                                  /*training=*/true);
            layer.forward_rows(device, in[d], out[d], caches[d],
                               device.central_span());
          },
          {}, std::move(acc), {.category = obs::kCatCentral});
    } else {
      // Full rows wait on their inbound messages like marginal rows do:
      // compute that never hides.
      graph.add(
          prefix + "/full/" + dn,
          [this, &in, &out, &caches, l, d, training] {
            model_.layer(l).forward(dist_.devices[d], in[d], out[d],
                                    caches[d], device_rngs_[d], training);
          },
          after_inbound(d, -1), std::move(acc),
          {.category = obs::kCatMarginal});
    }
  }
  for (int d = 0; split && d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    const std::string dn = indexed("d", d);
    AccessList acc;
    if (analysis::racecheck_enabled()) {
      // Marginal rows aggregate halo neighbors too, so the read covers the
      // whole local matrix — the deps on this device's inbound decodes are
      // exactly what orders it.
      acc.push_back(rc_row_range(in[d], 0, dev.num_local(), kRcRead,
                                 "x[" + dn + "].local_rows"));
      rc_rows(acc, out[d], dev.marginal_span(), kRcWrite,
              "h[" + dn + "].marginal_rows");
      acc.push_back(analysis::write_of(&caches[d], sizeof(caches[d]),
                                       "cache[" + dn + "]"));
    }
    graph.add(
        prefix + "/marginal/" + dn,
        [this, &in, &out, &caches, l, d] {
          const DeviceGraph& device = dist_.devices[d];
          model_.layer(l).forward_rows(device, in[d], out[d], caches[d],
                                       device.marginal_span());
        },
        after_inbound(d, central[d]), std::move(acc),
        {.category = obs::kCatMarginal});
  }
  // Warm the staging the 32-bit warmup rounds never touch: quantized
  // rounds draw per-column stochastic-rounding uniforms.
  if (exchange)
    lg.acct.warm(dist_, plan, /*forward=*/true, model_.layer_in_dim(l));
}

EpochBreakdown DistTrainer::backward_layer(int l, std::vector<Matrix>& grads,
                                           std::vector<Matrix>& grad_x) {
  LayerGraph& lg = bwd_graphs_[l];
  const bool exchange = l > 0 && !policy_.deferred;
  // Size the input-gradient buffers (the exchange stage builder validates
  // shapes at build time): the row-subset adjoints accumulate, so the
  // split needs them zeroed; the full-row adjoint zeroes its own. Layer 0
  // produces none: nothing reads the gradient wrt the input features.
  const std::size_t in_dim = model_.layer_in_dim(l);
  for (int d = 0; l > 0 && d < num_devices_; ++d) {
    if (policy_.split)
      grad_x[d].reshape_zero(dist_.devices[d].num_local(), in_dim);
    else
      grad_x[d].reshape_uninit(dist_.devices[d].num_local(), in_dim);
  }
  if (l > 0) bwd_ranges_[l].resize(num_devices_);
  if (exchange)
    lg.acct.init(num_devices_,
                 policy_.skip_stale ? broadcast_rngs_ : device_rngs_);
  if (!lg.graph)
    build_backward_graph(l, grads, grad_x);
  else
    ADAQP_CHECK_MSG(lg.bound == &grads,
                    "backward layer graph rebound to a different grad buffer");
  run_layer_graph(lg, l, /*forward=*/false, exchange);

  double comm = exchange ? stats_scratch_.comm_seconds : 0.0;
  if (l > 0 && policy_.deferred) comm = pipegcn_backward_round(l, grad_x);
  return layer_time(l, /*backward=*/true, comm);
}

void DistTrainer::build_backward_graph(int l, std::vector<Matrix>& grads,
                                       std::vector<Matrix>& grad_x) {
  // Determinism at any schedule comes from the same rules as the forward:
  // disjoint writes per stage (marginal adjoints are the sole writers of
  // halo gradient rows; central adjoints write owned rows after them),
  // per-pair RNG streams derived serially per epoch, owner accumulation
  // folding senders ascending, and one serial fold stage applying
  // per-(device, subset) partials in ascending device order, marginal
  // before central.
  //
  // The stage lambdas capture grads / grad_x by reference: these are the
  // grad_flow_ ping-pong vectors, whose parity is fixed per layer, so the
  // very same objects arrive every epoch (checked by backward_layer).
  LayerGraph& lg = bwd_graphs_[l];
  lg.bound = &grads;
  lg.graph = std::make_unique<pipeline::StageGraph>();
  pipeline::StageGraph& graph = *lg.graph;
  const bool split = policy_.split && l > 0;
  const bool exchange = l > 0 && !policy_.deferred;
  const GnnLayer& layer = model_.layer(l);
  std::vector<LayerGrads>& sinks = bwd_sinks_[l];
  std::vector<LayerGrads>& marginal_sinks = bwd_marginal_sinks_[l];
  const std::string prefix = indexed("L", l) + "b";
  graph.set_label(prefix + "/backward");

  std::vector<int> marginal(num_devices_, -1);
  std::vector<int> compute(num_devices_, -1);
  std::vector<int> trace(num_devices_, -1);
  for (int d = 0; split && d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    const std::string dn = indexed("d", d);
    // Marginal-row adjoint: produces every halo gradient row this device
    // will ship, unblocking its encode stages. Marginal and central share
    // the per-(layer, device) scratch — they are serialized per device.
    AccessList acc;
    if (analysis::racecheck_enabled()) {
      // The marginal adjoint scatters into neighbors of marginal rows —
      // owned and halo rows alike — so its write claims the whole local
      // gradient matrix; everything downstream is ordered behind it.
      acc.push_back(rc_row_range(grads[d], 0, dev.num_local(), kRcRead,
                                 "grad_out[" + dn + "]"));
      acc.push_back(rc_row_range(grad_x[d], 0, dev.num_local(), kRcWrite,
                                 "grad[" + dn + "].local_rows"));
      acc.push_back(analysis::read_of(&caches_[l][d], sizeof(caches_[l][d]),
                                      "cache[" + dn + "]"));
      acc.push_back(analysis::read_of(&layer, sizeof(layer), "layer"));
      acc.push_back(analysis::write_of(&marginal_sinks[d],
                                       sizeof(marginal_sinks[d]),
                                       "marginal_sinks[" + dn + "]"));
    }
    marginal[d] = graph.add(
        prefix + "/marginal/" + dn,
        [this, &grads, &grad_x, &marginal_sinks, l, d] {
          const DeviceGraph& device = dist_.devices[d];
          model_.layer(l).backward_rows(device, grads[d], caches_[l][d],
                                        grad_x[d], marginal_sinks[d],
                                        device.marginal_span(),
                                        bwd_scratch_[l][d]);
        },
        {}, std::move(acc), {.category = obs::kCatMarginal});
  }
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    const std::string dn = indexed("d", d);
    // Central-row adjoint (owned-row writes only — the compute that runs
    // while the halo-gradient exchange is on the wire), or the full-row
    // adjoint, which writes every local row (layer 0: none).
    AccessList acc;
    if (analysis::racecheck_enabled()) {
      acc.push_back(rc_row_range(grads[d], 0, dev.num_local(), kRcRead,
                                 "grad_out[" + dn + "]"));
      if (l > 0)
        acc.push_back(rc_row_range(grad_x[d], 0,
                                   split ? dev.num_owned : dev.num_local(),
                                   kRcWrite, "grad[" + dn + "].rows"));
      acc.push_back(analysis::read_of(&caches_[l][d], sizeof(caches_[l][d]),
                                      "cache[" + dn + "]"));
      acc.push_back(analysis::read_of(&layer, sizeof(layer), "layer"));
      acc.push_back(analysis::write_of(&sinks[d], sizeof(sinks[d]),
                                       "sinks[" + dn + "]"));
    }
    if (split) {
      compute[d] = graph.add(
          prefix + "/central/" + dn,
          [this, &grads, &grad_x, &sinks, l, d] {
            const DeviceGraph& device = dist_.devices[d];
            model_.layer(l).backward_rows(device, grads[d], caches_[l][d],
                                          grad_x[d], sinks[d],
                                          device.central_span(),
                                          bwd_scratch_[l][d]);
          },
          {marginal[d]}, std::move(acc), {.category = obs::kCatCentral});
    } else {
      compute[d] = graph.add(
          prefix + "/full/" + dn,
          [this, &grads, &grad_x, &sinks, l, d] {
            model_.layer(l).backward(dist_.devices[d], grads[d],
                                     caches_[l][d],
                                     l > 0 ? &grad_x[d] : nullptr, sinks[d],
                                     bwd_scratch_[l][d]);
          },
          {}, std::move(acc), {.category = obs::kCatMarginal});
    }
  }
  for (int d = 0; l > 0 && d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    const std::string dn = indexed("d", d);
    // Assigner range trace: needs the complete local adjoint but must
    // precede the exchange's mutations (owner accumulate, halo zero). The
    // stage runs every epoch; it traces only when the refresh reads it.
    AccessList acc;
    if (analysis::racecheck_enabled()) {
      acc.push_back(rc_row_range(grad_x[d], 0, dev.num_local(), kRcRead,
                                 "grad[" + dn + "].local_rows"));
      acc.push_back(analysis::write_of(&bwd_ranges_[l][d],
                                       sizeof(bwd_ranges_[l][d]),
                                       "bwd_ranges[" + dn + "]"));
    }
    trace[d] = graph.add(
        prefix + "/trace/" + dn,
        [this, &grad_x, l, d] {
          if (traces_ranges())
            row_ranges_of_into(grad_x[d], bwd_ranges_[l][d]);
        },
        {compute[d]}, std::move(acc));
  }
  if (exchange) {
    pipeline::BackwardStageDeps deps;
    deps.encode = split ? marginal : compute;  // halo rows are complete
    deps.accumulate = trace;  // owner's own owned-row writes are complete
    deps.zero = trace;        // last halo-row reader is done
    pipeline::add_backward_exchange_stages(graph, dist_, grad_x,
                                           bwd_plans_[l], lg.acct, deps);
  }
  // Shared parameter-gradient fold: one serial stage, concurrent with the
  // wire stages, in fixed device-then-subset order.
  AccessList fold_acc;
  if (analysis::racecheck_enabled()) {
    fold_acc.push_back(analysis::write_of(&layer, sizeof(layer), "layer"));
    for (int d = 0; d < num_devices_; ++d) {
      const std::string dn = indexed("d", d);
      if (split)
        fold_acc.push_back(analysis::read_of(&marginal_sinks[d],
                                             sizeof(marginal_sinks[d]),
                                             "marginal_sinks[" + dn + "]"));
      fold_acc.push_back(analysis::read_of(&sinks[d], sizeof(sinks[d]),
                                           "sinks[" + dn + "]"));
    }
  }
  graph.add(
      prefix + "/fold",
      [this, &sinks, &marginal_sinks, split, l] {
        for (int d = 0; d < num_devices_; ++d) {
          if (split) model_.layer(l).apply_grads(marginal_sinks[d]);
          model_.layer(l).apply_grads(sinks[d]);
        }
      },
      compute, std::move(fold_acc), {.category = obs::kCatFold});
  // Warm the quantized rounds' uniform staging (the 32-bit build-epoch
  // rounds never draw any) and the owner-side decode accumulators.
  if (exchange)
    lg.acct.warm(dist_, bwd_plans_[l], /*forward=*/false,
                 model_.layer_in_dim(l));
}

void DistTrainer::launch_layer_graph(LayerGraph& lg) {
  if (lg.graph->launched()) lg.graph->reset();
  lg.in_flight = true;
  lg.launch_us = obs::monotonic_us();
  if (async_pipeline_) lg.graph->launch();
}

bool DistTrainer::join_layer_graph(LayerGraph& lg, bool exchange) {
  if (!lg.in_flight) return false;
  lg.in_flight = false;
  if (async_pipeline_)
    lg.graph->wait();
  else
    lg.graph->run_serial();
  if (exchange)
    pipeline::finalize_exchange_stats(lg.acct, dist_, cluster_,
                                      stats_scratch_);
  return true;
}

void DistTrainer::run_layer_graph(LayerGraph& lg, int l, bool forward,
                                  bool exchange) {
  launch_layer_graph(lg);
  join_layer_graph(lg, exchange);
  if (exchange) {
    if (policy_.skip_stale) {
      // Sequential broadcasts: every message pays its own link time (the
      // inefficiency the paper calls out in §5.1), not the ring
      // all-to-all's per-round straggler.
      double comm = 0.0;
      for (int d = 0; d < num_devices_; ++d)
        for (int p = 0; p < num_devices_; ++p)
          comm += cluster_.transfer_seconds(d, p,
                                            stats_scratch_.pair_bytes[d][p]);
      stats_scratch_.comm_seconds = comm;
    }
    account_exchange(l, forward);
  }
  capture_profile_segment(*lg.graph, l, forward);
}

void DistTrainer::sancus_drift_step(int l) {
  // Boundary rows are owned rows and the exchange decodes write only halo
  // rows, so every owner's decision is independent of the others'.
  for (int d = 0; d < num_devices_; ++d) {
    const std::span<const NodeId> boundary = dist_.devices[d].boundary_span();
    const Matrix& x = acts_[l][d];
    Matrix& last = sancus_last_bcast_[l][d];
    bool bcast = true;
    if (sancus_staleness_[l][d] < opts_.sancus_max_staleness &&
        last.rows() == boundary.size() && last.cols() == x.cols()) {
      // ||x[boundary] - last||_F summed like Matrix::frobenius_norm: float
      // differences squared into a double, in row-major order.
      double acc = 0.0;
      for (std::size_t i = 0; i < boundary.size(); ++i) {
        const auto cur = x.row(boundary[i]);
        const auto prev = last.row(i);
        for (std::size_t c = 0; c < cur.size(); ++c) {
          const float v = cur[c] - prev[c];
          acc += static_cast<double>(v) * v;
        }
      }
      const double drift = std::sqrt(acc) / (sancus_last_norm_[l][d] + 1e-12);
      bcast = drift > opts_.sancus_drift_threshold;
    }
    sancus_skip_[l][d] = bcast ? 0 : 1;
    if (!bcast) {
      sancus_staleness_[l][d]++;
      continue;
    }
    sancus_staleness_[l][d] = 0;
    last.reshape_uninit(boundary.size(), x.cols());
    for (std::size_t i = 0; i < boundary.size(); ++i) {
      const auto src = x.row(boundary[i]);
      std::copy(src.begin(), src.end(), last.row(i).begin());
    }
    sancus_last_norm_[l][d] = last.frobenius_norm();
  }
}

EpochBreakdown DistTrainer::forward_pass(double& loss_out) {
  EpochBreakdown total;
  for (int l = 0; l < num_layers_; ++l) total.accumulate(forward_layer(l));

  // Loss and its gradient wrt the logits — one device task each (disjoint
  // outputs). The gradient lands in grad_flow_[0], where backward_pass
  // starts; reshape_zero, not uninit, because the losses accumulate into
  // it. Loss terms are reduced in ascending device order.
  run_device_tasks([&](int d) {
    const Matrix& logits = acts_[num_layers_][d];
    Matrix& grad = grad_flow_[0][d];
    grad.reshape_zero(logits.rows(), logits.cols());
    if (!dataset_.spec.multi_label) {
      device_loss_[d] = softmax_cross_entropy(
          logits, train_rows_[d], train_labels_[d], global_train_count_, grad,
          loss_prob_[d]);
    } else {
      device_loss_[d] = bce_with_logits(logits, train_rows_[d],
                                        train_targets_[d], global_train_count_,
                                        grad);
    }
  });
  double loss = 0.0;
  for (int d = 0; d < num_devices_; ++d) loss += device_loss_[d];
  loss_out = loss / global_train_count_;
  return total;
}

EpochBreakdown DistTrainer::backward_pass() {
  EpochBreakdown total;

  // Gradients flow through the two persistent ping-pong buffer sets,
  // starting from the logit gradient forward_pass left in grad_flow_[0]: at
  // layer l, the incoming grad lives in grad_flow_[(num_layers_-1-l) % 2]
  // and the input grad in the other — fixed per layer across epochs, which
  // is what lets the persistent stage graphs bind them once.
  std::vector<Matrix>* grads = &grad_flow_[0];
  std::vector<Matrix>* grad_x = &grad_flow_[1];
  for (int l = num_layers_ - 1; l >= 0; --l) {
    total.accumulate(backward_layer(l, *grads, *grad_x));
    std::swap(grads, grad_x);
  }
  return total;
}

void DistTrainer::launch_deferred(LayerGraph& lg) {
  // fwd_plans_/bwd_plans_ are uniform 32-bit and never refreshed for
  // PipeGCN, so the plan a deferred graph reads is stable for the whole time
  // it stays in flight.
  lg.acct.init(num_devices_, device_rngs_);
  launch_layer_graph(lg);
}

double DistTrainer::join_deferred(int l, bool forward) {
  LayerGraph& lg = forward ? deferred_fwd_[l] : deferred_bwd_[l];
  if (!join_layer_graph(lg, /*exchange=*/true)) return 0.0;
  // Launch->join latency covers the full in-flight window — across the
  // iteration boundary, not just the blocked time inside the join.
  obs::instruments().exchange_submit_to_join_us.record(obs::monotonic_us() -
                                                       lg.launch_us);
  // Deferred traffic lands in the epoch row of the epoch that *joins* it
  // (one after the launch); the end-of-run drain past the last epoch only
  // feeds the global counters.
  account_exchange(l, forward);
  if (forward) pipegcn_joined_comm_[l] += stats_scratch_.comm_seconds;
  return stats_scratch_.comm_seconds;
}

double DistTrainer::pipegcn_backward_round(int l,
                                           std::vector<Matrix>& grads) {
  // Stale gradient pipeline as cross-iteration stages: the halo-row
  // gradients computed this epoch are staged into the persistent per-layer
  // scratch and shipped by an exchange that stays in flight while the
  // remaining backward layers, Adam, evaluation and the next epoch's
  // forward run. Last epoch's in-flight exchange is joined here — its
  // arrivals were accumulated into the scratch owned rows by the bwd-acc
  // stages.
  const bool had_pending = deferred_bwd_[l].in_flight;
  const double comm = join_deferred(l, /*forward=*/false);
  std::vector<Matrix>& scratch = pipegcn_bwd_scratch_[l];
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    if (had_pending) {
      for (std::size_t i = 0; i < dev.num_owned; ++i) {
        auto dst = grads[d].row(i);
        const auto src = scratch[d].row(i);
        for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
      }
    }
    // Re-stage: zero the owned rows the next exchange accumulates into,
    // copy this epoch's outbound halo contributions, then drop them
    // locally (they are being shipped).
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      auto row = scratch[d].row(i);
      std::fill(row.begin(), row.end(), 0.0f);
    }
    for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h) {
      const auto src = grads[d].row(h);
      std::copy(src.begin(), src.end(), scratch[d].row(h).begin());
      auto row = grads[d].row(h);
      std::fill(row.begin(), row.end(), 0.0f);
    }
  }
  launch_deferred(deferred_bwd_[l]);
  return comm;
}

void DistTrainer::account_exchange(int l, bool forward) {
  total_comm_bytes_ += stats_scratch_.total_bytes();
  capture_exchange_stats(stats_scratch_);
  if (forward && l == 0) last_layer1_pair_bytes_ = stats_scratch_.pair_bytes;
}

void DistTrainer::capture_exchange_stats(const ExchangeStats& stats) {
  obs::EpochRow* row = capture_.row(epoch_);
  if (row == nullptr) return;
  row->messages += stats.messages;
  for (int d = 0; d < num_devices_; ++d)
    for (int p = 0; p < num_devices_; ++p) {
      const std::size_t bytes = stats.pair_bytes[d][p];
      if (bytes == 0) continue;
      const auto& by_width = stats.pair_width_bytes[d][p];
      for (int w = 0; w < obs::kNumWidths; ++w)
        row->wire_bytes[static_cast<std::size_t>(w)] +=
            by_width[static_cast<std::size_t>(w)];
      capture_.add_pair(epoch_, d, p, by_width, bytes);
    }
}

void DistTrainer::capture_profile_segment(const pipeline::StageGraph& graph,
                                          int layer, bool forward) {
  obs::EpochRow* row = capture_.row(epoch_);
  if (row == nullptr) return;
  // Rebuild the executed graph inside the pre-sized DAG scratch: declared
  // roles, timestamps and dependency edges, plus this layer-epoch's
  // modeled quantize : comm : dequantize split so the fused exchange
  // stages can be attributed across encode/wire/decode. stats_scratch_
  // holds exactly this segment's exchange stats (finalized just before).
  obs::ProfileDag& dag = segment_dag_;
  dag.clear();
  dag.set_exchange_model(stats_scratch_.max_quant_seconds(),
                         stats_scratch_.comm_seconds,
                         stats_scratch_.max_dequant_seconds());
  const int n = static_cast<int>(graph.size());
  for (int id = 0; id < n; ++id)
    dag.add_stage(&graph.stage_name(id), graph.stage_role(id),
                  graph.stage_begin_us(id), graph.stage_end_us(id));
  for (int id = 0; id < n; ++id)
    for (const int dep : graph.stage_deps(id)) dag.add_dep(id, dep);
  // The segment is solved on every metrics run — its overlap is the row's
  // — and stored only when ADAQP_PROFILE armed the profile rows.
  obs::ProfileCapture& prof = capture_.profile();
  obs::SegmentProfile* stored = prof.segment(epoch_, layer, forward);
  obs::SegmentProfile unstored;
  obs::SegmentProfile* seg = stored != nullptr ? stored : &unstored;
  seg->layer = layer;
  seg->forward = forward;
  dag.compute(*seg, prof.pair_seconds(epoch_), num_devices_);
  obs::OverlapAccum& overlap = forward ? row->fwd_overlap : row->bwd_overlap;
  overlap.exchange_busy_s += seg->overlap.exchange_busy_s;
  overlap.compute_busy_s += seg->overlap.compute_busy_s;
  overlap.overlap_s += seg->overlap.overlap_s;
  if (stored == nullptr) return;

  // With a trace active, draw the segment's critical path as flow arrows
  // between the recorded stage spans (trace-enabled epochs are outside the
  // steady-state contract, so the recorder may allocate).
  pipeline::TraceRecorder& rec = pipeline::TraceRecorder::instance();
  if (!rec.enabled()) return;
  const int cp = std::min(seg->cp_stages, obs::kMaxCpStages);
  for (int i = 0; i + 1 < cp; ++i) {
    const std::string* from = seg->cp_names[static_cast<std::size_t>(i)];
    const std::string* to = seg->cp_names[static_cast<std::size_t>(i + 1)];
    if (from == nullptr || to == nullptr) continue;
    // Anchor each endpoint at the midpoint of its stage span so the flow
    // binds inside the recorded slice regardless of rounding.
    int from_id = -1;
    int to_id = -1;
    for (int id = 0; id < n; ++id) {
      if (&graph.stage_name(id) == from) from_id = id;
      if (&graph.stage_name(id) == to) to_id = id;
    }
    if (from_id < 0 || to_id < 0) continue;
    const double from_mid = rec.trace_ts(
        0.5 * (graph.stage_begin_us(from_id) + graph.stage_end_us(from_id)));
    const double to_mid = rec.trace_ts(
        0.5 * (graph.stage_begin_us(to_id) + graph.stage_end_us(to_id)));
    rec.record_flow(*from, from_mid, *to, to_mid);
  }
}

bool DistTrainer::refresh_epoch() const {
  return policy_.plans != Policy::Plans::kUniform32 &&
         (epoch_ == 0 ||
          (epoch_ + 1) % std::max(opts_.reassign_period, 1) == 0);
}

bool DistTrainer::traces_ranges() const {
  return policy_.plans == Policy::Plans::kAssigner && refresh_epoch();
}

void DistTrainer::refresh_plans() {
  if (policy_.plans == Policy::Plans::kAssigner) {
    const Aggregator agg = model_.config().aggregator;
    for (int l = 0; l < num_layers_; ++l) {
      if (fwd_ranges_[l].empty()) continue;
      AssignReport report;
      fwd_plans_[l] = assign_bit_widths(dist_, cluster_, agg,
                                        Direction::kForward, fwd_ranges_[l],
                                        model_.layer_in_dim(l),
                                        opts_.assigner, &report);
      assign_seconds_ +=
          report.solve_wall_seconds + report.sim_gather_scatter_seconds;
    }
    for (int l = 1; l < num_layers_; ++l) {
      if (bwd_ranges_[l].empty()) continue;
      AssignReport report;
      bwd_plans_[l] = assign_bit_widths(dist_, cluster_, agg,
                                        Direction::kBackward, bwd_ranges_[l],
                                        model_.layer_in_dim(l),
                                        opts_.assigner, &report);
      assign_seconds_ +=
          report.solve_wall_seconds + report.sim_gather_scatter_seconds;
    }
  } else if (policy_.plans == Policy::Plans::kRandomUniform) {
    for (int l = 0; l < num_layers_; ++l)
      fwd_plans_[l] =
          sample_uniform_plan(dist_, Direction::kForward, master_rng_);
    for (int l = 1; l < num_layers_; ++l)
      bwd_plans_[l] =
          sample_uniform_plan(dist_, Direction::kBackward, master_rng_);
  }
}

EpochRecord DistTrainer::train_epoch() {
  EpochRecord rec;
  rec.epoch = epoch_;

  // Wall-clock phase stamps (obs::Stopwatch clock) ride along with the
  // allocation samples: modeled seconds (rec.time) and measured seconds
  // (last_wall_) come from the same phase boundaries. Observational only —
  // nothing below reads them back into the numerics.
  const double w0 = obs::monotonic_us();
  const std::uint64_t a0 = memory::alloc_count();
  for (Param* p : params_) p->grad.set_zero();
  double loss = 0.0;
  EpochBreakdown fwd = forward_pass(loss);
  const std::uint64_t a1 = memory::alloc_count();
  const double w1 = obs::monotonic_us();
  EpochBreakdown bwd = backward_pass();
  const std::uint64_t a2 = memory::alloc_count();
  const double w2 = obs::monotonic_us();
  rec.train_loss = loss;

  // Model-gradient synchronization (numerics already global; timing only).
  const double sync = allreduce_seconds(cluster_, grad_bytes_);
  adam_.step(params_);
  const std::uint64_t a3 = memory::alloc_count();
  const double w3 = obs::monotonic_us();

  rec.time = fwd;
  rec.time.accumulate(bwd);
  rec.time.comm += sync;
  rec.time.total += sync;

  if (policy_.deferred) pipegcn_warm_ = true;

  // Periodic bit-width (re-)assignment at the end of the traced period.
  const bool refresh_now = refresh_epoch();
  if (refresh_now) refresh_plans();
  const std::uint64_t a4 = memory::alloc_count();
  const double w4 = obs::monotonic_us();

  if (opts_.eval_every_epoch) {
    const auto [val, test] = evaluate();
    rec.val_acc = val;
    rec.test_acc = test;
  }
  const std::uint64_t a5 = memory::alloc_count();
  const double w5 = obs::monotonic_us();

  alloc_report_.forward = a1 - a0;
  alloc_report_.backward = a2 - a1;
  alloc_report_.optimizer = a3 - a2;
  alloc_report_.refresh = a4 - a3;
  alloc_report_.evaluation = a5 - a4;
  // The zero-allocation contract covers warm training epochs proper: plan
  // refreshes, evaluation and the observability modes are excluded (they
  // rebuild data structures by design).
  alloc_report_.steady_state =
      epoch_ > 0 && !refresh_now && !opts_.eval_every_epoch &&
      !opts_.verbose && !analysis::racecheck_enabled() &&
      !pipeline::TraceRecorder::instance().enabled() &&
      transport::active().zero_alloc_delivery();
  if (alloc_report_.steady_state && memory::track_enabled() &&
      alloc_report_.total() != 0) {
    throw std::runtime_error(
        "ADAQP_ALLOC_TRACK: steady-state epoch " + std::to_string(epoch_) +
        " allocated (forward=" + std::to_string(alloc_report_.forward) +
        " backward=" + std::to_string(alloc_report_.backward) +
        " optimizer=" + std::to_string(alloc_report_.optimizer) +
        " refresh=" + std::to_string(alloc_report_.refresh) +
        " evaluation=" + std::to_string(alloc_report_.evaluation) + "); " +
        std::string(memory::steady_state_definition()));
  }
  last_wall_.forward_s = (w1 - w0) * 1e-6;
  last_wall_.backward_s = (w2 - w1) * 1e-6;
  last_wall_.optimizer_s = (w3 - w2) * 1e-6;
  last_wall_.refresh_s = (w4 - w3) * 1e-6;
  last_wall_.evaluation_s = (w5 - w4) * 1e-6;
  obs::instruments().trainer_epochs.add(1);
  if (obs::EpochRow* row = capture_.row(epoch_)) {
    // Exchange traffic and overlap accumulated into this row during the
    // passes; the scalar epoch fields land here, all pre-allocated.
    row->epoch = epoch_;
    row->train_loss = rec.train_loss;
    row->val_acc = rec.val_acc;
    row->test_acc = rec.test_acc;
    row->sim_comm_s = rec.time.comm;
    row->sim_comp_s = rec.time.comp;
    row->sim_quant_s = rec.time.quant;
    row->sim_total_s = rec.time.total;
    row->wall = last_wall_;
    row->allocs_forward = alloc_report_.forward;
    row->allocs_backward = alloc_report_.backward;
    row->allocs_optimizer = alloc_report_.optimizer;
    row->allocs_refresh = alloc_report_.refresh;
    row->allocs_evaluation = alloc_report_.evaluation;
    row->steady_state = alloc_report_.steady_state;
  }
  // Profiler phase walls: the rollup decomposes forward+backward+optimizer
  // into critical-path categories + scheduling + serial glue. No-op unless
  // run() armed the profiler; writes pre-allocated storage only.
  capture_.profile().set_epoch_phases(epoch_, last_wall_.forward_s,
                                      last_wall_.backward_s,
                                      last_wall_.optimizer_s);
  // With a trace active, sample every registry counter/gauge once per epoch
  // so wire bytes and message counts render as counter tracks next to the
  // stage spans (trace-enabled epochs are outside the steady-state
  // contract).
  if (pipeline::TraceRecorder::instance().enabled()) {
    pipeline::TraceRecorder& rec_tr = pipeline::TraceRecorder::instance();
    rec_tr.record_registry_counters(rec_tr.now_us());
  }
  ++epoch_;
  return rec;
}

std::pair<double, double> DistTrainer::evaluate() {
  // Full-precision inference through the same forward builder: per layer,
  // derive the exchange's streams from the device streams, then run the
  // layer's eval graph (built on first use). Its stats reach the global
  // exchange.* counters only, never the trainer's traffic totals.
  if (eval_acts_[0].empty()) {
    eval_acts_[0] = scatter_to_devices(dataset_.features, dist_);
    for (int l = 1; l <= num_layers_; ++l)
      for (int d = 0; d < num_devices_; ++d)
        eval_acts_[l].emplace_back(dist_.devices[d].num_local(),
                                   model_.layer_out_dim(l - 1));
  }
  for (int l = 0; l < num_layers_; ++l) {
    LayerGraph& lg = eval_graphs_[l];
    lg.acct.init(num_devices_, device_rngs_);
    if (!lg.graph)
      build_forward_graph(lg, l, eval_acts_[l], eval_acts_[l + 1],
                          caches_[l], eval_plan_, /*training=*/false);
    launch_layer_graph(lg);
    join_layer_graph(lg, /*exchange=*/true);
  }
  const Matrix logits = gather_from_devices(eval_acts_[num_layers_], dist_,
                                            model_.config().out_dim);

  auto metric = [&](const std::vector<std::uint32_t>& nodes) {
    if (!dataset_.spec.multi_label) {
      std::vector<std::int32_t> labels(nodes.size());
      for (std::size_t i = 0; i < nodes.size(); ++i)
        labels[i] = dataset_.labels[nodes[i]];
      return accuracy(logits, nodes, labels);
    }
    Matrix targets(nodes.size(), dataset_.num_classes());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto src = dataset_.label_matrix.row(nodes[i]);
      std::copy(src.begin(), src.end(), targets.row(i).begin());
    }
    return micro_f1(logits, nodes, targets);
  };
  return {metric(dataset_.val_nodes), metric(dataset_.test_nodes)};
}

RunResult DistTrainer::run() {
  RunResult result;
  result.method = method_name(opts_.method);
  result.model = model_.config().name();
  result.dataset = dataset_.spec.name;
  result.partition_setting = cluster_.partition_setting();

  // ADAQP_TRACE=<path>: record every pipeline stage of this run and write a
  // Chrome trace_event JSON there (open in chrome://tracing / Perfetto).
  const std::string trace_path = env::text("ADAQP_TRACE").value_or("");
  if (!trace_path.empty()) pipeline::TraceRecorder::instance().start();

  // ADAQP_METRICS=<path>: per-epoch run report (docs/OBSERVABILITY.md).
  // All capture storage is dimensioned here, before the first epoch —
  // steady-state epochs then record without allocating (test_memory gates
  // this with the variable set).
  const obs::ReportConfig metrics_cfg = obs::report_config();
  if (metrics_cfg.enabled) {
    capture_.init(opts_.epochs, num_devices_);
    // The DAG scratch every executed layer graph is solved in, sized for
    // the largest one — nd^2 pair stages, a handful of per-device stages,
    // the fold — so per-epoch capture stays allocation-free.
    const int nd = num_devices_;
    const int max_stages = nd * nd + 6 * nd + 8;
    segment_dag_.reserve(max_stages, max_stages * (nd + 4));
    // ADAQP_PROFILE (default on with metrics): store the solved segments
    // for the report's profile section.
    if (obs::profile_enabled())
      capture_.profile().init(opts_.epochs, num_layers_, num_devices_);
  }

  for (int e = 0; e < opts_.epochs; ++e) {
    EpochRecord rec = train_epoch();
    result.train_seconds += rec.time.total;
    result.avg_breakdown.accumulate(rec.time);
    result.best_val_acc = std::max(result.best_val_acc, rec.val_acc);
    if (opts_.verbose && (e % 10 == 0 || e + 1 == opts_.epochs))
      std::fprintf(stderr, "[%s] epoch %3d loss %.4f val %.4f (%.3fs sim)\n",
                   result.method.c_str(), e, rec.train_loss, rec.val_acc,
                   rec.time.total);
    result.epochs.push_back(std::move(rec));
  }
  // Drain the last epoch's still-in-flight PipeGCN deferred exchanges so
  // total_comm_bytes and the time accounting cover every exchange of the
  // run (there is no next-epoch compute left to hide the tail inside, so
  // its comm time is exposed). Identical in async and sync modes.
  if (policy_.deferred && !result.epochs.empty()) {
    EpochBreakdown tail;
    for (int l = 0; l < num_layers_; ++l) {
      tail.comm += join_deferred(l, /*forward=*/true);
      tail.comm += join_deferred(l, /*forward=*/false);
    }
    pipegcn_joined_comm_.assign(num_layers_, 0.0);
    if (tail.comm > 0.0) {
      tail.total = tail.comm;
      result.epochs.back().time.accumulate(tail);
      result.train_seconds += tail.total;
      result.avg_breakdown.accumulate(tail);
    }
  }
  if (!trace_path.empty()) {
    pipeline::TraceRecorder::instance().stop();
    if (!pipeline::TraceRecorder::instance().write_json(trace_path))
      std::fprintf(stderr, "[adaqp] could not write ADAQP_TRACE file %s\n",
                   trace_path.c_str());
  }
  const double n = static_cast<double>(std::max(opts_.epochs, 1));
  result.avg_breakdown.comm /= n;
  result.avg_breakdown.comp /= n;
  result.avg_breakdown.quant /= n;
  result.avg_breakdown.total /= n;
  result.assign_seconds = assign_seconds_;
  result.wall_clock_seconds = result.train_seconds + assign_seconds_;
  result.final_val_acc =
      result.epochs.empty() ? 0.0 : result.epochs.back().val_acc;
  result.final_test_acc =
      result.epochs.empty() ? 0.0 : result.epochs.back().test_acc;
  result.avg_epoch_seconds = result.train_seconds / n;
  result.throughput =
      result.avg_epoch_seconds > 0 ? 1.0 / result.avg_epoch_seconds : 0.0;
  result.total_comm_bytes = total_comm_bytes_;

  if (metrics_cfg.enabled) {
    obs::ReportMeta meta;
    meta.method = result.method;
    meta.model = result.model;
    meta.dataset = result.dataset;
    meta.partition = result.partition_setting;
    meta.devices = num_devices_;
    meta.layers = num_layers_;
    meta.threads = num_threads();
    // Host parallelism next to every overlap/speedup figure: hw threads <
    // requested threads means the schedule was oversubscribed and realized
    // overlap reflects time-slicing, not parallel hardware (machine-
    // readable form of the ROADMAP's measurement-gap caveat).
    meta.hardware_threads =
        static_cast<int>(std::thread::hardware_concurrency());
    meta.low_parallelism_host =
        meta.hardware_threads > 0 && meta.hardware_threads < meta.threads;
    meta.async = async_pipeline_;
    meta.epochs_requested = opts_.epochs;
    meta.sim_train_seconds = result.train_seconds;
    meta.assign_seconds = result.assign_seconds;
    meta.total_comm_bytes = total_comm_bytes_;
    if (!obs::write_report(capture_, meta, metrics_cfg))
      std::fprintf(stderr, "[adaqp] could not write ADAQP_METRICS report %s\n",
                   metrics_cfg.path.c_str());
  }
  return result;
}

RunResult run_training(const Dataset& dataset, const ClusterSpec& cluster,
                       Aggregator aggregator, const TrainOptions& opts,
                       std::size_t hidden_dim, const std::string& partitioner) {
  Rng rng(opts.seed * 7919 + 17);
  const auto part = make_partitioner(partitioner)
                        ->partition(dataset.graph, cluster.num_devices(), rng);
  const DistGraph dist = build_dist_graph(dataset.graph, part);

  ModelConfig mc;
  mc.aggregator = aggregator;
  mc.in_dim = dataset.spec.feature_dim;
  mc.hidden_dim = hidden_dim;
  mc.out_dim = dataset.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.5f;
  mc.layer_norm = true;

  DistTrainer trainer(dataset, dist, cluster, mc, opts);
  return trainer.run();
}

}  // namespace adaqp
