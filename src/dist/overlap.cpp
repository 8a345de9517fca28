#include "dist/overlap.hpp"

#include <array>
#include <stdexcept>

#include "dist/distributed.hpp"
#include "obs/trace.hpp"

namespace msa::dist {

HierarchicalComms make_hierarchical(comm::Comm& world, HierarchyLevel level) {
  const simnet::RankLocation& loc =
      world.machine().location(world.world_rank());
  // Group key: ranks sharing a node (or module) reduce locally first.  The
  // module stride keeps node indices from different modules distinct.
  const int color = level == HierarchyLevel::Node
                        ? loc.module * 4096 + loc.node
                        : loc.module;
  comm::Comm intra = world.split(color, world.rank());
  // Cross-group communicator: the i-th rank of every group, keyed by my
  // intra rank (so chunk i's owners across all groups form one comm).
  comm::Comm cross = world.split(intra.rank(), color);
  // Eligible only when every group has the same size (the chunked exchange
  // pairs chunk owners one-to-one across groups) and both levels are
  // non-trivial.  Agreement is collective: min == max group size everywhere.
  std::array<int, 2> extent = {intra.size(), -intra.size()};
  world.allreduce(std::span<int>(extent), comm::ReduceOp::Max);
  const bool equal_sizes = extent[0] == -extent[1];
  const bool enabled = equal_sizes && intra.size() > 1 && cross.size() > 1;
  return HierarchicalComms{std::move(intra), std::move(cross), enabled};
}

void allreduce_gradients(comm::Comm& comm, HierarchicalComms& topo,
                         nn::ParamStore& store,
                         const AllreduceOptions& options) {
  if (comm.size() == 1) return;
  std::span<float> slab = store.grad_span();
  const std::size_t bucket_elems =
      std::max<std::size_t>(1, options.bucket_bytes / sizeof(float));
  const float inv_world = 1.0f / static_cast<float>(comm.size());
  std::vector<Half> half;
  for (std::size_t offset = 0; offset < slab.size(); offset += bucket_elems) {
    std::span<float> range =
        slab.subspan(offset, std::min(bucket_elems, slab.size() - offset));
    if (options.fp16_compression) {
      half.resize(range.size());
      encode_half(range, half);
      hierarchical_allreduce(comm, topo, std::span<Half>(half),
                             comm::ReduceOp::Sum, options.algorithm);
      decode_half(half, inv_world, range);
    } else {
      hierarchical_allreduce(comm, topo, range, comm::ReduceOp::Sum,
                             options.algorithm);
      for (float& g : range) g *= inv_world;
    }
  }
}

OverlappedReducer::OverlappedReducer(comm::Comm& comm, nn::ParamStore& store,
                                     AllreduceOptions options,
                                     HierarchicalComms* hier)
    : comm_(comm),
      store_(store),
      options_(options),
      hier_(hier),
      bucket_elems_(
          std::max<std::size_t>(1, options.bucket_bytes / sizeof(float))),
      n_buckets_((store.size() + bucket_elems_ - 1) / bucket_elems_) {
  if (comm_.size() <= 1) {
    throw std::invalid_argument(
        "OverlappedReducer: needs a multi-rank communicator");
  }
  remaining_.resize(n_buckets_);
  launched_.resize(n_buckets_, 0);
  seen_.resize(store_.grads().size(), 0);
  half_.resize(n_buckets_);
  requests_.reserve(n_buckets_);
  launched_buckets_.reserve(n_buckets_);
}

void OverlappedReducer::begin_step() {
  if (!requests_.empty()) {
    throw std::logic_error(
        "OverlappedReducer::begin_step: previous step never finished "
        "(requests still in flight)");
  }
  const std::size_t total = store_.size();
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    const std::size_t lo = b * bucket_elems_;
    remaining_[b] = std::min(bucket_elems_, total - lo);
    launched_[b] = 0;
  }
  std::fill(seen_.begin(), seen_.end(), 0);
  launched_buckets_.clear();
  launched_in_backward_ = 0;
  charged_flops_ = 0.0;
}

void OverlappedReducer::launch_bucket(std::size_t b) {
  launched_[b] = 1;
  launched_buckets_.push_back(b);
  const std::size_t lo = b * bucket_elems_;
  std::span<float> range = store_.grad_span().subspan(
      lo, std::min(bucket_elems_, store_.size() - lo));
  // The wire payload is final here: every tensor overlapping this bucket has
  // finished its backward accumulation (remaining_ hit zero), so packing /
  // reducing now produces exactly what the synchronous path would.
  if (options_.fp16_compression) {
    auto& h = half_[b];
    h.resize(range.size());
    encode_half(range, h);
    std::span<Half> wire(h);
    if (hier_ != nullptr) {
      comm::Comm world = comm_;
      HierarchicalComms topo = *hier_;
      requests_.push_back(comm_.idefer(
          wire.size_bytes(), [world, topo, wire,
                              alg = options_.algorithm]() mutable {
            hierarchical_allreduce(world, topo, wire, comm::ReduceOp::Sum,
                                   alg);
          }));
    } else {
      requests_.push_back(
          comm_.iallreduce(wire, comm::ReduceOp::Sum, options_.algorithm));
    }
  } else {
    if (hier_ != nullptr) {
      comm::Comm world = comm_;
      HierarchicalComms topo = *hier_;
      requests_.push_back(comm_.idefer(
          range.size_bytes(), [world, topo, range,
                               alg = options_.algorithm]() mutable {
            hierarchical_allreduce(world, topo, range, comm::ReduceOp::Sum,
                                   alg);
          }));
    } else {
      requests_.push_back(
          comm_.iallreduce(range, comm::ReduceOp::Sum, options_.algorithm));
    }
  }
}

void OverlappedReducer::on_layer_backward(nn::Layer& layer) {
  // Charge this layer's backward arithmetic first (2x forward, the standard
  // estimate) so the buckets it completes are issued at an honest sim time.
  const double flops = 2.0 * layer.forward_flops();
  if (flops > 0.0) {
    comm_.charge_compute(flops, 0.0);
    charged_flops_ += flops;
  }
  const auto& ranges = store_.ranges();
  for (nn::Tensor* g : layer.grads()) {
    const std::size_t idx = store_.index_of_grad(g);
    if (idx == nn::ParamStore::npos) continue;  // not slab-managed
    if (seen_[idx] != 0) continue;              // defensive: counted once
    seen_[idx] = 1;
    const nn::ParamStore::Range r = ranges[idx];
    // Walk the buckets this tensor's slab range overlaps.
    std::size_t off = r.offset;
    const std::size_t end = r.offset + r.count;
    while (off < end) {
      const std::size_t b = off / bucket_elems_;
      const std::size_t bucket_end = (b + 1) * bucket_elems_;
      const std::size_t take = std::min(end, bucket_end) - off;
      remaining_[b] -= take;
      if (remaining_[b] == 0 && launched_[b] == 0) {
        launch_bucket(b);
        ++launched_in_backward_;
      }
      off += take;
    }
  }
}

void OverlappedReducer::finish() {
  // Buckets whose tensors no layer reported (e.g. parameters outside the
  // observed container) go out now, ascending — same boundaries, so still
  // bit-identical to the sync path.
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    if (launched_[b] == 0) launch_bucket(b);
  }
  try {
    comm::wait_all(requests_);
  } catch (...) {
    // Rank failure mid-drain: the engine abandoned everything in flight.
    // Clear our bookkeeping so recovery can start a fresh step.
    requests_.clear();
    launched_buckets_.clear();
    throw;
  }
  requests_.clear();
  // Apply the 1/world averaging (and fp16 unpack) per bucket — the exact
  // post-reduce arithmetic of the synchronous slab path.
  const float inv_world = 1.0f / static_cast<float>(comm_.size());
  std::span<float> slab = store_.grad_span();
  for (std::size_t b : launched_buckets_) {
    const std::size_t lo = b * bucket_elems_;
    std::span<float> range =
        slab.subspan(lo, std::min(bucket_elems_, slab.size() - lo));
    if (options_.fp16_compression) {
      decode_half(half_[b], inv_world, range);
    } else {
      for (float& g : range) g *= inv_world;
    }
  }
  launched_buckets_.clear();
}

}  // namespace msa::dist
