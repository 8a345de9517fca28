// Horovod-style data-parallel training primitives (the "distributed DL
// training tools such as Horovod" of paper Sec. III-A, Fig. 3 N).
//
// The three pillars, exactly as in Horovod:
//   1. broadcast_parameters      — all replicas start identical: one bcast
//                                  of the contiguous parameter slab
//   2. allreduce_gradients       — average grads each step over offset
//                                  ranges of the gradient slab (tensor
//                                  fusion) with optional fp16 compression
//   3. ShardedSampler            — disjoint per-rank data shards, reshuffled
//                                  each epoch with a common seed
// plus a DistributedTrainer that ties them to the nn:: layer stack and
// charges simulated compute time for the roofline model of the host device.
// Both collectives work on an nn::ParamStore: construct the trainer (or a
// ParamStore over the model) first, then broadcast its store.
#pragma once

#include <cstdint>
#include <optional>
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
  /// identical to the synchronous path, so results match bit for bit.
  bool overlap = false;
  /// Compose intra-group ring reduce-scatter/allgather with an inter-group
  /// allreduce (see overlap.hpp).  Ignored when the machine topology gives
  /// the split nothing to exploit.
  bool hierarchical = false;
  /// Grouping used when `hierarchical` is set.
  HierarchyLevel hierarchy_level = HierarchyLevel::Node;
  std::optional<simnet::CollectiveAlgorithm> algorithm;  ///< force algorithm
};

/// Broadcast the contiguous parameter slab of @p store from @p root in ONE
/// bcast, so all replicas start from identical weights (Horovod
/// broadcast_variables).
void broadcast_parameters(comm::Comm& comm, nn::ParamStore& store,
                          int root = 0);

/// Sum-and-average the gradient slab of @p store across ranks.  Buckets
/// (Horovod tensor fusion) are offset ranges of at most bucket_bytes, handed
/// to comm.allreduce in place and averaged in place — zero per-step
/// pack/unpack copies in the fp32 path.  fp16 compression converts each
/// range through a reused scratch buffer.
void allreduce_gradients(comm::Comm& comm, nn::ParamStore& store,
                         const AllreduceOptions& options = {});

/// Slab path through the two-level topology: same buckets, but each bucket
/// runs hierarchical_allreduce (intra reduce-scatter, inter allreduce, intra
/// allgather) instead of a flat world allreduce.  `options.algorithm` picks
/// the inter-group algorithm.
void allreduce_gradients(comm::Comm& comm, HierarchicalComms& topo,
                         nn::ParamStore& store,
                         const AllreduceOptions& options = {});

/// Backward-overlapped bucketed gradient reducer (the tentpole of Horovod's
/// pipelining, Sec. III-A): installed as the model's BackwardObserver, it
/// watches layers finish their backward pass in reverse order, maps their
/// gradient tensors onto contiguous grad-slab buckets, and launches a
/// nonblocking allreduce for every bucket the moment its last contributing
/// layer completes — while earlier layers are still computing.  finish()
/// drains all requests and applies the 1/world scaling before the optimizer
/// runs.
///
/// Determinism: bucket boundaries are fixed offset ranges of the grad slab
/// (identical to the synchronous allreduce_gradients), each bucket's payload
/// is final when launched, and buckets are reduced independently — so the
/// overlapped result is bit-identical to the synchronous path regardless of
/// launch order.  Launch *order* (gradient readiness) only shapes the
/// simulated timeline.
///
/// Also charges per-layer backward compute (2x the layer's forward flops) as
/// layers complete, so bucket issue times interleave honestly with compute;
/// the trainer tops up any remainder to keep totals equal to the sync path.
class OverlappedReducer : public nn::BackwardObserver {
 public:
  /// @p hier may be null (flat reduction).  All referees must outlive the
  /// reducer; @p comm must have size() > 1.
  OverlappedReducer(comm::Comm& comm, nn::ParamStore& store,
                    AllreduceOptions options, HierarchicalComms* hier);

  /// Reset per-step tracking.  Call after zero_grads, before backward.
  void begin_step();

  /// BackwardObserver: charge the layer's backward compute, mark its
  /// gradient ranges ready, launch any bucket that just filled.
  void on_layer_backward(nn::Layer& layer) override;

  /// Launch any buckets still unfilled (defensive: tensors not reported by
  /// any layer), drain every request, scale the slab by 1/world.
  void finish();

  /// Backward flops charged through hooks this step (2x forward per layer).
  [[nodiscard]] double charged_flops() const { return charged_flops_; }

  /// Bucket count over the grad slab (same boundaries as the sync path).
  [[nodiscard]] std::size_t bucket_count() const { return n_buckets_; }

  /// Buckets launched from inside the backward pass this step (the rest
  /// launched at finish()); visibility for tests and benches.
  [[nodiscard]] std::size_t launched_in_backward() const {
    return launched_in_backward_;
  }

 private:
  void launch_bucket(std::size_t b);

  comm::Comm& comm_;
  nn::ParamStore& store_;
  AllreduceOptions options_;
  HierarchicalComms* hier_;
  std::size_t bucket_elems_;
  std::size_t n_buckets_;
  std::vector<std::size_t> remaining_;   // unready elements per bucket
  std::vector<char> launched_;           // per bucket
  std::vector<char> seen_;               // per registered grad tensor
  std::vector<std::vector<Half>> half_;  // per-bucket fp16 wire scratch
  std::vector<comm::Request> requests_;
  std::vector<std::size_t> launched_buckets_;  // bucket index per request
  std::size_t launched_in_backward_ = 0;
  double charged_flops_ = 0.0;
};

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
/// gradients, and optimizer state into contiguous slabs), so every step
/// runs the fused paths: slab-range allreduce and flat optimizer sweeps.
class DistributedTrainer {
 public:
  DistributedTrainer(comm::Comm& comm, nn::Layer& model, nn::Optimizer& opt,
                     AllreduceOptions options = {});

  ~DistributedTrainer();
  DistributedTrainer(const DistributedTrainer&) = delete;
  DistributedTrainer& operator=(const DistributedTrainer&) = delete;

  /// The slab store backing this trainer's model.
  [[nodiscard]] nn::ParamStore& param_store() { return store_; }

  /// Non-null when options.hierarchical found an exploitable topology.
  [[nodiscard]] const HierarchicalComms* hierarchy() const {
    return hier_ ? &*hier_ : nullptr;
  }
  /// Non-null when options.overlap is active (size() > 1).
  [[nodiscard]] const OverlappedReducer* reducer() const {
    return reducer_ ? &*reducer_ : nullptr;
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
  AllreduceOptions options_;
  std::optional<HierarchicalComms> hier_;
  std::optional<OverlappedReducer> reducer_;
  double loss_scale_ = 1.0;
};

}  // namespace msa::dist
