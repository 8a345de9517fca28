// Horovod-style data-parallel training primitives (the "distributed DL
// training tools such as Horovod" of paper Sec. III-A, Fig. 3 N).
//
// The three pillars, exactly as in Horovod:
//   1. broadcast_parameters — all replicas start identical: one bcast of
//                             the contiguous parameter slab
//   2. GradientReducer      — average grads each step over fixed offset
//                             ranges of the gradient slab (tensor fusion),
//                             binary16 on the wire if asked, intra-node
//                             first when the topology allows it, blocking
//                             or overlapped with the backward pass
//   3. ShardedSampler       — disjoint per-rank data shards, reshuffled
//                             each epoch with a common seed
// plus a DistributedTrainer that ties them to the nn:: layer stack and
// charges simulated compute time for the roofline model of the host device.
// Both collectives work on an nn::ParamStore: construct the trainer (or a
// ParamStore over the model) first, then broadcast its store.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "dist/compression.hpp"
#include "dist/overlap.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace msa::dist {

/// Options for gradient reduction.
struct AllreduceOptions {
  std::size_t bucket_bytes = 4u << 20;  ///< Horovod-style tensor fusion size
  bool fp16_compression = false;        ///< halve wire traffic via binary16
  /// Launch each bucket's allreduce nonblocking as soon as the backward pass
  /// finalises its gradients (Horovod's overlap), draining before the
  /// optimizer.  Bucket boundaries and per-bucket reduction order are
  /// identical to the blocking path, so results match bit for bit.
  bool overlap = false;
  /// Compose an intra-node ring reduce-scatter/allgather with a cross-node
  /// allreduce (see overlap.hpp).  Ignored when the machine topology gives
  /// the split nothing to exploit.
  bool hierarchical = false;
  std::optional<simnet::CollectiveAlgorithm> algorithm;  ///< force algorithm
};

/// The hierarchy @p options asks for on @p comm: the node-level split of
/// make_hierarchical when options.hierarchical is set, @p comm has more than
/// one rank and the topology makes the split worthwhile; nullopt otherwise
/// (take the flat path).  Collective when it splits.  GradientReducer and
/// ZeroOptimizer both build their hierarchy here.
[[nodiscard]] std::optional<HierarchicalComms> make_data_hierarchy(
    comm::Comm& comm, const AllreduceOptions& options);

/// Broadcast the contiguous parameter slab of @p store from @p root in ONE
/// bcast, so all replicas start from identical weights (Horovod
/// broadcast_variables).
void broadcast_parameters(comm::Comm& comm, nn::ParamStore& store,
                          int root = 0);

/// The one gradient exchange of the library (DistributedTrainer and the
/// data axis of PipelineStage): sum-and-average the gradient slab of one
/// ParamStore across ranks.  Buckets (Horovod tensor fusion) are fixed
/// offset ranges of at most bucket_bytes; each is encoded for the wire (the
/// fp32 range itself, or its binary16 copy), summed by one allreduce — flat,
/// or hierarchical_allreduce over make_data_hierarchy's split — then decoded
/// and scaled by 1/world in place.
///
/// reduce() is the blocking form.  The overlapped form (Horovod's
/// pipelining) is the BackwardObserver: it charges each finished layer's
/// backward compute (2x its forward flops; the caller tops up the rest) and
/// launches a bucket nonblocking the moment its last tensor is final, while
/// earlier layers still compute; finish() drains and decodes.  Both forms
/// share buckets, payloads and reductions, so their results are
/// bit-identical whatever the launch order, which only shapes the simulated
/// timeline.
class GradientReducer : public nn::BackwardObserver {
 public:
  /// @p comm must have size() > 1; @p comm and @p store must outlive the
  /// reducer.  Collective over @p comm when options.hierarchical is set.
  GradientReducer(comm::Comm& comm, nn::ParamStore& store,
                  const AllreduceOptions& options);

  /// Blocking form: exchange and average every bucket, in ascending order
  /// (no-op once the communicator has shrunk to one rank).
  void reduce();

  /// Re-derive the hierarchy over the communicator as it is now (recovery
  /// reseats it in place over the survivors).  Collective when
  /// options.hierarchical is set; no communication otherwise.
  void rebuild_hierarchy();

  /// True when the owner drives the overlapped form (options.overlap).
  [[nodiscard]] bool overlapped() const { return options_.overlap; }

  /// Overlapped form: reset per-step tracking.  Call after zero_grads,
  /// before backward.
  void begin_step();

  /// BackwardObserver: charge the layer's backward compute, mark its
  /// gradient ranges ready, launch any bucket that just filled.
  void on_layer_backward(nn::Layer& layer) override;

  /// Overlapped form: launch any buckets still unfilled (defensive: tensors
  /// not reported by any layer), drain every request, decode and scale.
  void finish();

  /// Backward flops charged through hooks this step (2x forward per layer).
  [[nodiscard]] double charged_flops() const { return charged_flops_; }

  /// Bucket count over the grad slab.
  [[nodiscard]] std::size_t bucket_count() const { return n_buckets_; }

  /// Buckets launched from inside the backward pass this step (the rest
  /// launched at finish()); visibility for tests and benches.
  [[nodiscard]] std::size_t launched_in_backward() const {
    return launched_in_backward_;
  }

 private:
  [[nodiscard]] std::span<float> bucket(std::size_t b) const;
  /// Bucket @p b as wire type @p T (float or Half).
  template <typename T>
  std::span<T> encode(std::size_t b);
  /// Bucket @p b back from the summed wire, scaled by 1/world.
  template <typename T>
  void decode(std::size_t b);
  /// Sum @p wire across ranks: blocking, or deferred on the progress engine.
  template <typename T>
  void exchange(std::span<T> wire);
  template <typename T>
  comm::Request exchange_deferred(std::span<T> wire);
  template <typename T>
  void reduce_as();
  void launch_bucket(std::size_t b);

  comm::Comm& comm_;
  nn::ParamStore& store_;
  AllreduceOptions options_;
  std::optional<HierarchicalComms> hier_;  // engaged only when exploitable
  std::size_t bucket_elems_;
  std::size_t n_buckets_;
  std::vector<std::vector<Half>> half_;  // per-bucket fp16 wire scratch
  // Overlapped-form bookkeeping, reset by begin_step().
  std::vector<std::size_t> remaining_;   // unready elements per bucket
  std::vector<char> launched_;           // per bucket
  std::vector<char> seen_;               // per registered grad tensor
  std::vector<comm::Request> requests_;
  std::vector<std::size_t> launched_buckets_;  // bucket index per request
  std::size_t launched_in_backward_ = 0;
  double charged_flops_ = 0.0;
};

/// One-shot blocking GradientReducer(comm, store, options).reduce();
/// options.overlap is ignored.  No-op on a single rank.
void allreduce_gradients(comm::Comm& comm, nn::ParamStore& store,
                         const AllreduceOptions& options = {});

/// The common epoch-@p epoch shuffle of [0, dataset_size) every rank agrees
/// on (Fisher–Yates under a shared seed).  ShardedSampler strides over it;
/// the health monitor's throughput-aware re-sharding slices it into
/// contiguous weighted blocks instead.
[[nodiscard]] std::vector<std::size_t> full_epoch_permutation(
    std::size_t dataset_size, std::uint64_t seed, std::size_t epoch);

/// Deterministic epoch-shuffled shard of [0, dataset_size) for one rank.
/// All ranks use the same seed, so shards are disjoint and cover the set
/// (up to equal-size truncation, as in practice with drop_last).
class ShardedSampler {
 public:
  ShardedSampler(std::size_t dataset_size, int rank, int world,
                 std::uint64_t seed = 42);

  /// Indices owned by this rank for @p epoch; size() entries.
  [[nodiscard]] std::vector<std::size_t> epoch_indices(std::size_t epoch) const;

  /// Samples per rank per epoch (dataset_size / world, truncated).
  [[nodiscard]] std::size_t size() const { return per_rank_; }

 private:
  std::size_t dataset_size_;
  int rank_, world_;
  std::uint64_t seed_;
  std::size_t per_rank_;
};

/// Result of one distributed optimisation step.
struct StepResult {
  float loss = 0.0f;       ///< this rank's microbatch loss
  double accuracy = 0.0;   ///< classification only
};

/// Data-parallel trainer wrapping a model replica on one rank.
///
/// Construction builds a ParamStore over the model (relocating parameters,
/// gradients, and optimizer state into contiguous slabs) and, on more than
/// one rank, the GradientReducer over it — so every step runs the fused
/// paths: slab-range allreduce and flat optimizer sweeps.
class DistributedTrainer {
 public:
  DistributedTrainer(comm::Comm& comm, nn::Layer& model, nn::Optimizer& opt,
                     AllreduceOptions options = {});

  ~DistributedTrainer();
  DistributedTrainer(const DistributedTrainer&) = delete;
  DistributedTrainer& operator=(const DistributedTrainer&) = delete;

  /// The slab store backing this trainer's model.
  [[nodiscard]] nn::ParamStore& param_store() { return store_; }

  /// Non-null when options.overlap is active (size() > 1).
  [[nodiscard]] const GradientReducer* reducer() const {
    return reducer_ && reducer_->overlapped() ? &*reducer_ : nullptr;
  }

  /// Classification step on this rank's microbatch.  Forward, backward,
  /// gradient allreduce, optimizer step; charges simulated compute time for
  /// forward+backward (2x forward flops for backward, the standard model).
  StepResult step_classification(const nn::Tensor& x,
                                 const std::vector<std::int32_t>& labels);

  /// Regression step (MAE when @p use_mae, else MSE) — the ARDS recipe.
  StepResult step_regression(const nn::Tensor& x, const nn::Tensor& target,
                             bool use_mae = true);

  /// Average of a scalar across ranks (for loss/metric reporting).
  [[nodiscard]] double average_metric(double value);

  /// Re-wire the gradient exchange after the communicator was reseated in
  /// place (ResilientTrainer recovery).  Collective only under
  /// options.hierarchical.
  void rebuild();

  /// Scale applied to the loss gradient before backward.  Under weighted
  /// (throughput-aware) micro-batching each rank's gradient is a mean over a
  /// different row count b_r; scaling by P*b_r/B_total makes the 1/P
  /// allreduce average equal the true global-batch mean.  1.0 = uniform.
  void set_loss_scale(double scale) { loss_scale_ = scale; }
  [[nodiscard]] double loss_scale() const { return loss_scale_; }

 private:
  void reduce_and_apply();
  /// Shared tail of both step flavours: charge compute, reduce, apply.
  void backward_reduce_apply(const nn::Tensor& loss_grad, double fwd_flops);

  comm::Comm& comm_;
  nn::Layer& model_;
  nn::Optimizer& opt_;
  nn::ParamStore store_;
  std::optional<GradientReducer> reducer_;  // engaged when size() > 1
  double loss_scale_ = 1.0;
};

}  // namespace msa::dist
