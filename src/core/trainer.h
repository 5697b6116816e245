// Distributed full-graph GNN trainers.
//
// One DistTrainer drives an entire training run of one method over the
// simulated cluster. Numerics are bit-exact (every message passes through
// the real quantization codec); time is accounted by the ClusterSpec cost
// model. Methods:
//
//   kVanilla      — synchronous full-precision messages, no overlap
//                   (paper's "Vanilla" baseline).
//   kAdaQP        — adaptive stochastic quantization (bi-objective bit-width
//                   assignment, re-solved periodically) + central/marginal
//                   computation-communication parallelization. The paper's
//                   contribution.
//   kAdaQPUniform — AdaQP with uniformly-random bit sampling from {2,4,8}
//                   (Table 6 ablation).
//   kPipeGCN      — cross-iteration pipelining with epoch-stale boundary
//                   embeddings and gradients, communication hidden inside
//                   computation (PipeGCN-like baseline).
//   kSancus       — staleness-aware broadcast skipping with sequential
//                   (non-ring) broadcast cost and dropped remote gradients
//                   on skipped epochs (SANCUS-like baseline).
//
// Execution: every per-device compute stage (layer forward/backward, loss,
// evaluation) runs as one task per simulated device on the runtime thread
// pool (src/runtime/), and shared parameter gradients are reduced in
// ascending device order — so a run is bit-identical at any ADAQP_THREADS
// setting (tests/test_runtime.cpp enforces this).
//
// Every method runs each layer, in each direction, as one persistent
// pipeline stage graph (src/pipeline/) built by the same two builders; the
// method only picks a small policy (DistTrainer::Policy): the bit-width plan
// source, whether compute splits into central/marginal row subsets, whether
// the halo exchange is deferred across the iteration boundary, and whether
// owners skip broadcasts whose rows barely drifted. With the split, the
// marginal-row encode/wire/decode stages run concurrently with the
// central-subgraph forward, joining before marginal compute — the *real*
// execution of the overlap the cost model's max(comm, central) arithmetic
// predicts; backward is full duplex: the marginal-row adjoint produces the
// halo gradient rows, whose encode/wire stages then run concurrently with
// the central-row adjoint and the shared parameter-gradient fold.
// Without it, one full-row stage per device waits for its inbound messages.
// PipeGCN's deferred exchanges are exchange-only graphs that stay in flight
// *across iteration boundaries*: a layer's stale halo send/recv overlaps the
// rest of the epoch and the next epoch's earlier layers, and is joined
// lazily just before its buffers are reread or rewritten. Evaluation runs
// the same forward builder in the Vanilla shape with dropout off, over
// private buffers. ADAQP_ASYNC=0 runs the same graphs serially in
// ascending stage-id order; both modes (and any thread
// count, and any ADAQP_ISA) are bit-identical, enforced by
// tests/test_pipeline.cpp. Setting ADAQP_TRACE to a path makes run() record
// a Chrome trace of the stages.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assign/bit_assigner.h"
#include "comm/cluster.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "dist/dist_graph.h"
#include "dist/halo_exchange.h"
#include "gnn/adam.h"
#include "gnn/model.h"
#include "obs/run_report.h"
#include "pipeline/async_exchange.h"
#include "runtime/parallel_for.h"

namespace adaqp {

enum class Method { kVanilla, kAdaQP, kAdaQPUniform, kPipeGCN, kSancus };

std::string method_name(Method method);

struct TrainOptions {
  Method method = Method::kAdaQP;
  int epochs = 100;
  Adam::Options adam;              ///< lr defaults to the paper's 0.01
  AssignerOptions assigner;        ///< group size, λ
  int reassign_period = 50;        ///< epochs between bit-width re-solves
  double sancus_drift_threshold = 0.30;
  int sancus_max_staleness = 12;
  std::uint64_t seed = 1;
  bool eval_every_epoch = true;
  bool verbose = false;
};

/// Per-epoch simulated time decomposition (paper Fig. 10a).
struct EpochBreakdown {
  double comm = 0.0;    ///< halo-exchange straggler time (fwd + bwd)
  double comp = 0.0;    ///< computation on the critical path (AdaQP: marginal
                        ///< graph only — central comp hides in comm)
  double quant = 0.0;   ///< quantize + de-quantize kernel time
  double total = 0.0;   ///< composed epoch duration with overlap applied

  void accumulate(const EpochBreakdown& other);
};

struct EpochRecord {
  int epoch = 0;
  double train_loss = 0.0;
  double val_acc = 0.0;
  double test_acc = 0.0;
  EpochBreakdown time;
};

/// Heap-allocation counts of the last train_epoch(), by phase (global
/// operator-new calls observed by memory::alloc_track). `steady_state`
/// records whether the epoch qualified for the zero-allocation contract
/// (see memory::steady_state_definition()); under ADAQP_ALLOC_TRACK=1,
/// train_epoch() throws if a qualifying epoch allocated at all.
struct EpochAllocReport {
  std::uint64_t forward = 0;
  std::uint64_t backward = 0;
  std::uint64_t optimizer = 0;   ///< gradient allreduce accounting + Adam
  std::uint64_t refresh = 0;     ///< bit-width plan re-assignment
  std::uint64_t evaluation = 0;
  bool steady_state = false;

  std::uint64_t total() const {
    return forward + backward + optimizer + refresh + evaluation;
  }
};

struct RunResult {
  std::string method;
  std::string model;
  std::string dataset;
  std::string partition_setting;
  std::vector<EpochRecord> epochs;

  double train_seconds = 0.0;    ///< Σ simulated epoch durations
  double assign_seconds = 0.0;   ///< bit-width assignment overhead
  double wall_clock_seconds = 0.0;  ///< train + assign (paper Table 5/9)
  double final_val_acc = 0.0;
  double final_test_acc = 0.0;
  double best_val_acc = 0.0;
  double avg_epoch_seconds = 0.0;
  double throughput = 0.0;       ///< epochs per simulated second (Table 4)
  EpochBreakdown avg_breakdown;
  std::size_t total_comm_bytes = 0;
};

class DistTrainer {
 public:
  DistTrainer(const Dataset& dataset, const DistGraph& dist,
              const ClusterSpec& cluster, const ModelConfig& model_config,
              const TrainOptions& opts);

  /// Train for opts.epochs epochs; returns the full run record.
  RunResult run();

  /// Run a single epoch (exposed for fine-grained benches); returns its
  /// record. Evaluation is performed iff opts.eval_every_epoch.
  EpochRecord train_epoch();

  /// Full-precision evaluation of the current model; returns
  /// (val metric, test metric). Does not advance simulated time.
  std::pair<double, double> evaluate();

  GnnModel& model() { return model_; }
  const DistGraph& dist() const { return dist_; }
  int current_epoch() const { return epoch_; }
  double assign_seconds() const { return assign_seconds_; }
  std::size_t total_comm_bytes() const { return total_comm_bytes_; }

  /// Per-pair wire bytes of the most recent layer-1 forward exchange
  /// (paper Fig. 2 reproduces this matrix).
  const std::vector<std::vector<std::size_t>>& last_layer1_pair_bytes() const {
    return last_layer1_pair_bytes_;
  }

  /// Per-phase heap-allocation counts of the most recent train_epoch().
  const EpochAllocReport& last_alloc_report() const { return alloc_report_; }

  /// Measured wall seconds of the most recent train_epoch(), stamped at the
  /// same phase boundaries as the allocation report — the counterpart to
  /// EpochRecord::time's *modeled* seconds (core/timing.h).
  const obs::PhaseWall& last_wall_report() const { return last_wall_; }

  /// The metrics capture of the current/most recent run() (exposed for
  /// tests). Disabled unless ADAQP_METRICS (or an obs::MetricsGuard) was
  /// active when run() started.
  const obs::RunCapture& run_capture() const { return capture_; }

 private:
  /// How the method runs a layer — the one place opts_.method is read
  /// (besides method_name), filled once by the constructor. The five
  /// methods differ only in these four choices; every layer of every
  /// method runs through the same forward/backward graph builders.
  struct Policy {
    enum class Plans { kUniform32, kAssigner, kRandomUniform };
    Plans plans = Plans::kUniform32;  ///< bit-width plan source
    /// Central/marginal row-subset compute stages (AdaQP): central rows
    /// overlap the exchange. Otherwise one full-row stage per device.
    bool split = false;
    /// The exchange runs outside the graph, one epoch late (PipeGCN).
    bool deferred = false;
    /// Per-owner broadcast skipping on boundary-row drift (SANCUS).
    bool skip_stale = false;
  };

  /// One persistent per-layer stage graph — a training layer in one
  /// direction, an evaluation layer, or a PipeGCN deferred exchange. One
  /// lifecycle for all: build once, then per run acct.init (when it holds
  /// an exchange), launch, join, finalize. Also holds the exchange
  /// accounting its stages write.
  struct LayerGraph {
    pipeline::ExchangeAccounting acct;
    /// Declared after acct, which its stages write: it is destroyed — and
    /// a run still in flight joined — first.
    std::unique_ptr<pipeline::StageGraph> graph;
    const void* bound = nullptr;    ///< backward: grads vector bound at build
    bool in_flight = false;         ///< launched, not yet joined
    double launch_us = 0.0;         ///< obs::monotonic_us() at launch
  };

  /// This epoch ends in a plan refresh (refresh_plans).
  bool refresh_epoch() const;
  /// This epoch traces the row ranges fwd_ranges_/bwd_ranges_: only the
  /// assigner's refresh reads them.
  bool traces_ranges() const;
  void refresh_plans();
  EpochBreakdown forward_pass(double& loss_out);
  EpochBreakdown backward_pass();

  /// Run fn(d) for every device as one task group on the runtime pool.
  /// Templated so per-epoch calls build no std::function (part of the
  /// zero-allocation steady-state contract, docs/ARCHITECTURE.md).
  template <typename Fn>
  void run_device_tasks(const Fn& fn) const {
    parallel_for_each(static_cast<std::size_t>(num_devices_),
                      [&fn](std::size_t d) { fn(static_cast<int>(d)); });
  }

  /// Layer l's forward (input acts_[l] -> acts_[l + 1]) and backward
  /// (grads -> grad_x): the policy's pre-graph steps, one run of the
  /// layer's persistent graph, exchange accounting and the modeled time.
  EpochBreakdown forward_layer(int l);
  EpochBreakdown backward_layer(int l, std::vector<Matrix>& grads,
                                std::vector<Matrix>& grad_x);
  /// Graph builders. Forward (layer l, `in` -> `out`): per-pair exchange
  /// stages (unless deferred), then per device either a central stage
  /// (concurrent with the exchange) and a marginal stage gated on its
  /// inbound messages, or one full-row stage gated on them. `training`
  /// false is evaluation: the Vanilla shape (no split, exchange in the
  /// graph) with dropout off, whatever the policy. Backward: per device
  /// either marginal then central row-subset adjoints or one full-row
  /// adjoint, a range trace, the halo-gradient exchange (encodes after the
  /// halo rows are final, owner accumulation after the owner's own writes
  /// and trace) and one serial parameter-gradient fold in ascending device
  /// order.
  void build_forward_graph(LayerGraph& lg, int l, std::vector<Matrix>& in,
                           std::vector<Matrix>& out,
                           std::vector<LayerCache>& caches,
                           const ExchangePlan& plan, bool training);
  void build_backward_graph(int l, std::vector<Matrix>& grads,
                            std::vector<Matrix>& grad_x);
  /// Launch half: re-arm a built graph and, in async mode, start it (the
  /// serial schedule runs in the join).
  void launch_layer_graph(LayerGraph& lg);
  /// Join half: finish the run and, when the graph holds an exchange,
  /// finalize its stats into stats_scratch_ (and the global exchange.*
  /// counters). Returns false, doing nothing, when no run is in flight.
  bool join_layer_graph(LayerGraph& lg, bool exchange);
  /// A training layer graph's run: launch, join, account the exchange;
  /// then capture its segment (overlap and profile).
  void run_layer_graph(LayerGraph& lg, int l, bool forward, bool exchange);
  /// Modeled seconds of one layer in one direction (paper Fig. 10a): with
  /// the split, central compute hides inside comm and quantize kernels and
  /// marginal compute do not; a deferred exchange hides inside compute;
  /// otherwise comm and compute add up. `comm` is this layer's exchange.
  EpochBreakdown layer_time(int l, bool backward, double comm) const;

  /// SANCUS drift test for layer input l, before its forward graph runs:
  /// each owner re-broadcasts its boundary rows only if they drifted past
  /// the threshold or hit the staleness cap; the rest are marked in
  /// sancus_skip_[l], which the layer's forward and backward exchanges
  /// read (remote gradients to a skipped owner are dropped).
  void sancus_drift_step(int l);

  /// Derive a deferred exchange graph's per-pair streams from
  /// device_rngs_ and launch it; it stays in flight across the iteration
  /// boundary.
  void launch_deferred(LayerGraph& lg);
  /// Join layer l's in-flight deferred exchange in one direction (no-op
  /// when none is pending); records its launch-to-join latency, accounts
  /// its wire bytes and returns its modeled comm seconds. Called lazily,
  /// right before the exchanged buffers are reread or rewritten — one
  /// epoch after the launch.
  double join_deferred(int l, bool forward);
  /// PipeGCN's backward exchange point of layer l: join last epoch's
  /// in-flight exchange, fold its arrivals into grads' owned rows, stage
  /// this epoch's halo-row gradients and launch them. Returns the joined
  /// exchange's comm seconds.
  double pipegcn_backward_round(int l, std::vector<Matrix>& grads);

  /// Account the exchange stats in stats_scratch_: total bytes, the
  /// current epoch's metrics row, and (layer-0 forward) the pair matrix.
  void account_exchange(int l, bool forward);
  /// Fold the halo-exchange stats just produced into the current epoch's
  /// metrics row (messages, wire bytes split by bit-width, per-pair
  /// volumes). No-op unless run() enabled capture. Purely observational:
  /// writes pre-allocated capture storage only.
  void capture_exchange_stats(const ExchangeStats& stats);
  /// Solve one executed layer graph in the critical-path profiler
  /// (obs/profile.h): every stage's declared role, timestamps and deps go
  /// into the pre-sized DAG scratch, and the exchange split model comes
  /// from stats_scratch_. The segment's realized overlap is added into the
  /// current epoch row (direction picks fwd_overlap/bwd_overlap); with
  /// ADAQP_PROFILE on, the solved SegmentProfile is also stored in the
  /// profile rows and, with ADAQP_TRACE active, its critical path is drawn
  /// as Chrome-trace flow arrows. No-op unless run() enabled metrics
  /// capture. Purely observational.
  void capture_profile_segment(const pipeline::StageGraph& graph, int layer,
                               bool forward);

  double compute_seconds(int layer, bool backward, bool central_only,
                         int device) const;
  double max_compute_seconds(int layer, bool backward, bool central_only) const;
  double marginal_compute_seconds_max(int layer, bool backward) const;

  const Dataset& dataset_;
  const DistGraph& dist_;
  ClusterSpec cluster_;
  TrainOptions opts_;
  Policy policy_;

  Rng master_rng_;
  std::vector<Rng> device_rngs_;
  /// SANCUS's exchange streams. Its 32-bit broadcasts draw nothing, so the
  /// exchange accounting derives its per-pair streams from this set and
  /// leaves device_rngs_ to the layer compute alone.
  std::vector<Rng> broadcast_rngs_;
  GnnModel model_;
  Adam adam_;

  int num_devices_ = 0;
  int num_layers_ = 0;

  // Per-device static data.
  std::vector<std::vector<std::uint32_t>> train_rows_;   ///< local owned ids
  std::vector<std::vector<std::int32_t>> train_labels_;
  std::vector<Matrix> train_targets_;            ///< multi-label targets
  double global_train_count_ = 0.0;

  // Activations: acts_[l][dev] is the input to layer l (l=0: features);
  // acts_[L][dev] holds the logits.
  std::vector<std::vector<Matrix>> acts_;
  std::vector<std::vector<LayerCache>> caches_;  ///< [layer][device]

  // Evaluation's private activations, sized on the first evaluate() (same
  // layout as acts_, so training state — notably PipeGCN's stale halos —
  // stays untouched), and the full-precision plan every eval layer uses.
  // Evaluation borrows caches_: they carry values only from a training
  // forward to its backward, and evaluation runs between training steps.
  std::vector<std::vector<Matrix>> eval_acts_;
  ExchangePlan eval_plan_;

  // Exchange plans per layer (forward) and per layer (backward).
  std::vector<ExchangePlan> fwd_plans_;
  std::vector<ExchangePlan> bwd_plans_;

  // Traced row ranges (forward: per layer input; backward: per layer grad).
  std::vector<std::vector<std::vector<float>>> fwd_ranges_;  ///< [layer][dev]
  std::vector<std::vector<std::vector<float>>> bwd_ranges_;

  // PipeGCN state. The deferred exchanges are cross-iteration pipeline
  // stages: launched after a layer's compute (forward) or at its backward
  // exchange point, joined lazily one epoch later. They capture the shared
  // fwd_plans_/bwd_plans_ entries, which stay the constructor's uniform
  // 32-bit plans for this method (Plans::kUniform32), so the referenced
  // plan is stable while an exchange is in flight. Backward staging uses
  // persistent per-layer scratch matrices (halo rows: this epoch's outbound
  // contributions; owned rows: the arrivals accumulated by the in-flight
  // exchange, harvested at join).
  bool pipegcn_warm_ = false;
  std::vector<std::vector<Matrix>> pipegcn_bwd_scratch_;  ///< [layer][device]
  /// Comm seconds of joined forward exchanges, stashed per slot until the
  /// slot's own layer consumes them (joins can happen one layer early).
  std::vector<double> pipegcn_joined_comm_;

  // SANCUS state: each owner's boundary rows at its last broadcast, per
  // layer input, and their Frobenius norm (the drift test's denominator,
  // computed once per broadcast).
  std::vector<std::vector<Matrix>> sancus_last_bcast_;  ///< [layer][device]
  std::vector<std::vector<double>> sancus_last_norm_;   ///< [layer][device]
  std::vector<std::vector<int>> sancus_staleness_;      ///< [layer][device]
  std::vector<std::vector<char>> sancus_skip_;          ///< [layer][owner]

  int epoch_ = 0;
  bool async_pipeline_ = true;  ///< resolved from ADAQP_ASYNC at construction
  double assign_seconds_ = 0.0;
  std::size_t total_comm_bytes_ = 0;
  std::vector<std::vector<std::size_t>> last_layer1_pair_bytes_;

  // ---- Memory subsystem (zero-allocation steady state) --------------------
  // Scratch is plain persistent members, sized at construction or in the
  // warmup epoch, so steady-state epochs only reuse capacity.
  std::vector<Param*> params_;   ///< cached model_.params() (stable set)
  std::size_t grad_bytes_ = 0;   ///< cached model_.grad_bytes()
  ExchangeStats stats_scratch_;  ///< reusable stats sink (main thread only)
  EpochAllocReport alloc_report_;
  obs::PhaseWall last_wall_;     ///< measured seconds of the last epoch

  // ---- Observability capture (src/obs/, docs/OBSERVABILITY.md) ------------
  // run() sizes capture_ (epochs x devices) and reserves the DAG scratch
  // before the first epoch when ADAQP_METRICS enables a report; every
  // per-epoch write below then lands in pre-allocated storage, so capture
  // runs through steady-state epochs without allocating.
  obs::RunCapture capture_;
  obs::ProfileDag segment_dag_;  ///< every captured layer graph is solved here

  // Loss scratch: per-device loss terms and softmax probability rows.
  std::vector<double> device_loss_;               ///< per device
  std::vector<std::vector<double>> loss_prob_;    ///< per device

  // Backward activation-gradient ping-pong. The parity of the buffer that
  // holds layer l's incoming gradient is fixed ((num_layers-1-l) & 1), so
  // the persistent backward stage graphs can capture these by reference.
  std::vector<std::vector<Matrix>> grad_flow_;    ///< [parity][device]

  // Persistent per-(layer, device) backward parameter-gradient sinks (the
  // full-row or central-row adjoint's; the split adds marginal-row ones)
  // and temporaries.
  std::vector<std::vector<LayerGrads>> bwd_sinks_;
  std::vector<std::vector<LayerGrads>> bwd_marginal_sinks_;
  std::vector<std::vector<LayerBackwardScratch>> bwd_scratch_;

  // The persistent per-layer graphs, [layer]: training forward/backward
  // (one wire channel shared with evaluation's, claimed at construction),
  // evaluation forward (built on the first evaluate()), and PipeGCN's
  // exchange-only deferred graphs (one channel each, built at construction;
  // deferred_bwd_[0] stays empty). Declared last so they are destroyed — and
  // an in-flight run joined — before the buffers their stages reference.
  std::vector<LayerGraph> fwd_graphs_;
  std::vector<LayerGraph> bwd_graphs_;
  std::vector<LayerGraph> eval_graphs_;
  std::vector<LayerGraph> deferred_fwd_;
  std::vector<LayerGraph> deferred_bwd_;
};

/// Convenience wrapper: partition + build + train one (dataset, model,
/// method) configuration and return the result.
RunResult run_training(const Dataset& dataset, const ClusterSpec& cluster,
                       Aggregator aggregator, const TrainOptions& opts,
                       std::size_t hidden_dim = 64,
                       const std::string& partitioner = "multilevel");

}  // namespace adaqp
