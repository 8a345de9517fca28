// Deterministic, fast random number generation (xoshiro256**).
//
// Every stochastic component of the library takes an explicit Rng so that
// experiments are reproducible rank-by-rank (critical for verifying that
// data-parallel training matches serial training bit-for-bit in tests).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

namespace msa::tensor {

namespace detail {

struct NormalPair {
  double cos_part;
  double sin_part;
};

/// The Box-Muller transform through libm: Rng::normal returns cos_part and
/// caches sin_part; Rng::fill_normal's fallback recomputes with it.
inline NormalPair box_muller_libm(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 6.283185307179586 * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

}  // namespace detail

/// xoshiro256** by Blackman & Vigna — small, fast, excellent statistics.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding as recommended by the authors.
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit word.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's multiply-shift rejection-free variant is overkill here;
    // modulo bias is negligible for n << 2^64.
    return next_u64() % n;
  }

  /// Standard normal via Box-Muller (cached second value).
  double normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-12) u1 = uniform();
    const double u2 = uniform();
    const detail::NormalPair y = detail::box_muller_libm(u1, u2);
    cached_ = y.sin_part;
    has_cached_ = true;
    return y.cos_part;
  }

  /// out[i] = static_cast<float>(normal()) * stddev for every i, bit for bit,
  /// leaving the generator in the state the scalar loop leaves it in (cached
  /// value included), at a fraction of its cost: whole pairs go through a
  /// vectorised transform in stack-held blocks (see tensor/box_muller.hpp).
  void fill_normal(std::span<float> out, float stddev);

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Bernoulli draw.
  bool bernoulli(double p) { return uniform() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace msa::tensor
