#include "dist/overlap.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>

#include "dist/distributed.hpp"

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

std::optional<HierarchicalComms> make_data_hierarchy(
    comm::Comm& comm, const AllreduceOptions& options) {
  if (!options.hierarchical || comm.size() == 1) return std::nullopt;
  HierarchicalComms topo = make_hierarchical(comm);
  if (!topo.enabled) return std::nullopt;  // nothing to exploit: flat path
  return topo;
}

GradientReducer::GradientReducer(comm::Comm& comm, nn::ParamStore& store,
                                 const AllreduceOptions& options)
    : comm_(comm),
      store_(store),
      options_(options),
      hier_(make_data_hierarchy(comm, options)),
      bucket_elems_(
          std::max<std::size_t>(1, options.bucket_bytes / sizeof(float))),
      n_buckets_((store.size() + bucket_elems_ - 1) / bucket_elems_),
      half_(n_buckets_) {
  if (comm_.size() <= 1) {
    throw std::invalid_argument(
        "GradientReducer: needs a multi-rank communicator");
  }
}

std::span<float> GradientReducer::bucket(std::size_t b) const {
  const std::size_t lo = b * bucket_elems_;
  return store_.grad_span().subspan(
      lo, std::min(bucket_elems_, store_.size() - lo));
}

template <typename T>
std::span<T> GradientReducer::encode(std::size_t b) {
  if constexpr (std::is_same_v<T, float>) {
    return bucket(b);
  } else {
    const std::span<float> range = bucket(b);
    std::vector<Half>& h = half_[b];
    h.resize(range.size());
    encode_half(range, h);
    return h;
  }
}

template <typename T>
void GradientReducer::decode(std::size_t b) {
  // comm_.size() is read per use: recovery may shrink the communicator in
  // place under a live reducer.
  const float inv_world = 1.0f / static_cast<float>(comm_.size());
  if constexpr (std::is_same_v<T, float>) {
    for (float& g : bucket(b)) g *= inv_world;
  } else {
    decode_half(half_[b], inv_world, bucket(b));
  }
}

template <typename T>
void GradientReducer::exchange(std::span<T> wire) {
  if (hier_) {
    hierarchical_allreduce(comm_, *hier_, wire, comm::ReduceOp::Sum,
                           options_.algorithm);
  } else {
    comm_.allreduce(wire, comm::ReduceOp::Sum, options_.algorithm);
  }
}

template <typename T>
comm::Request GradientReducer::exchange_deferred(std::span<T> wire) {
  if (!hier_) {
    return comm_.iallreduce(wire, comm::ReduceOp::Sum, options_.algorithm);
  }
  // The body runs at drain time on handle snapshots taken now, in issue
  // order on every rank.
  comm::Comm world = comm_;
  HierarchicalComms topo = *hier_;
  return comm_.idefer(
      wire.size_bytes(),
      [world, topo, wire, alg = options_.algorithm]() mutable {
        hierarchical_allreduce(world, topo, wire, comm::ReduceOp::Sum, alg);
      });
}

template <typename T>
void GradientReducer::reduce_as() {
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    exchange(encode<T>(b));
    decode<T>(b);
  }
}

void GradientReducer::reduce() {
  if (comm_.size() == 1) return;  // shrunk to one survivor: nothing to sum
  if (options_.fp16_compression) {
    reduce_as<Half>();
  } else {
    reduce_as<float>();
  }
}

void GradientReducer::rebuild_hierarchy() {
  if (options_.hierarchical) hier_ = make_data_hierarchy(comm_, options_);
}

void GradientReducer::begin_step() {
  if (!requests_.empty()) {
    throw std::logic_error(
        "GradientReducer::begin_step: previous step never finished "
        "(requests still in flight)");
  }
  remaining_.resize(n_buckets_);
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    remaining_[b] = bucket(b).size();
  }
  launched_.assign(n_buckets_, 0);
  seen_.assign(store_.grads().size(), 0);
  launched_buckets_.clear();
  launched_in_backward_ = 0;
  charged_flops_ = 0.0;
}

void GradientReducer::launch_bucket(std::size_t b) {
  launched_[b] = 1;
  launched_buckets_.push_back(b);
  // The wire payload is final here: every tensor overlapping this bucket has
  // finished its backward accumulation (remaining_ hit zero), so encoding /
  // reducing now produces exactly what the blocking form would.
  requests_.push_back(options_.fp16_compression
                          ? exchange_deferred(encode<Half>(b))
                          : exchange_deferred(encode<float>(b)));
}

void GradientReducer::on_layer_backward(nn::Layer& layer) {
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

void GradientReducer::finish() {
  // Buckets whose tensors no layer reported (e.g. parameters outside the
  // observed container) go out now, ascending — same boundaries, so still
  // bit-identical to the blocking form.
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
  // Decode and average per bucket — the exact post-exchange arithmetic of
  // the blocking form.
  for (std::size_t b : launched_buckets_) {
    if (options_.fp16_compression) {
      decode<Half>(b);
    } else {
      decode<float>(b);
    }
  }
  launched_buckets_.clear();
}

}  // namespace msa::dist
