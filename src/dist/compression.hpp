// IEEE-754 binary16 ("half") software emulation for gradient compression.
//
// Horovod's fp16 compression halves allreduce wire traffic; the paper's
// 96/128-GPU runs rely on such bandwidth optimisations.  Half is trivially
// copyable and has the arithmetic needed by comm::reduce_into, so
// comm.allreduce<Half>() works directly, moving 2 bytes per element.
//
// One codec serves every fp16 path.  Both directions are branch-free inline
// bit manipulation (selects, no data-dependent branches or loops), so the
// bulk helpers encode_half / decode_half compile to vector code:
//   - encode rounds to nearest-even everywhere, subnormals included (per
//     IEEE: |x| in (2^-25, 2^-24) rounds up to 2^-24, the tie at 2^-25 goes
//     to +-0); overflow gives +-inf, NaN gives the quiet NaN 0x7E00 with
//     its sign;
//   - decode is exact (every half is a float).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace msa::dist {

/// Convert FP32 -> FP16 bits with round-to-nearest-even and proper
/// inf/nan/subnormal handling.
[[nodiscard]] inline std::uint16_t float_to_half_bits(float f) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t a = x & 0x7FFFFFFFu;  // |f|
  // |f| < 2^-14 (half subnormal or zero): adding 0.5f leaves a float whose
  // ulp is 2^-24, the half subnormal step, so the FPU's own round-to-nearest-
  // even picks the subnormal; its mantissa bits are the half payload.
  const std::uint32_t sub =
      std::bit_cast<std::uint32_t>(std::bit_cast<float>(a) + 0.5f) -
      0x3F000000u;
  // Half normal: re-bias the exponent (127 -> 15) and round the 23-bit
  // mantissa to 10 bits by adding 0xFFF plus the kept lsb (ties to even).
  // A mantissa carry rolls into the exponent, up to inf at 65520.
  const std::uint32_t norm =
      (a - 0x38000000u + 0xFFFu + ((a >> 13) & 1u)) >> 13;
  // |f| >= 2^16 overflows to inf; NaN becomes the quiet NaN.
  const std::uint32_t special = a > 0x7F800000u ? 0x7E00u : 0x7C00u;
  // Mask select: a ternary on `sub` lets the compiler sink the float add
  // into a branch, which it then cannot if-convert (the add may trap).
  const std::uint32_t is_sub =
      0u - static_cast<std::uint32_t>(a < 0x38800000u);
  std::uint32_t h = (sub & is_sub) | (norm & ~is_sub);
  h = a >= 0x47800000u ? special : h;
  return static_cast<std::uint16_t>(h | sign);
}

/// Convert FP16 bits -> FP32 (exact).
[[nodiscard]] inline float half_bits_to_float(std::uint16_t h) {
  const std::uint32_t bits = static_cast<std::uint32_t>(h);
  const std::uint32_t shifted = (bits & 0x7FFFu) << 13;  // exponent|mantissa
  const std::uint32_t exp = shifted & 0x0F800000u;
  // Re-bias the exponent (15 -> 127); inf/NaN need the exponent at 255.
  std::uint32_t x = shifted + 0x38000000u;
  x = exp == 0x0F800000u ? x + 0x38000000u : x;
  // Zero/subnormal: build 2^-14 * (1 + m/1024) and subtract 2^-14, which
  // leaves m * 2^-24 exactly (and +0 for m == 0).
  const float sub = std::bit_cast<float>(x + 0x00800000u) - 0x1p-14f;
  x = exp == 0 ? std::bit_cast<std::uint32_t>(sub) : x;
  return std::bit_cast<float>(x | ((bits & 0x8000u) << 16));
}

/// Arithmetic FP16 value type (sums performed in FP32, stored as FP16 —
/// matching GPU half-precision accumulate-then-round semantics per hop).
struct Half {
  std::uint16_t bits = 0;

  Half() = default;
  explicit Half(float f) : bits(float_to_half_bits(f)) {}

  [[nodiscard]] float to_float() const { return half_bits_to_float(bits); }

  friend Half operator+(Half a, Half b) {
    return Half(a.to_float() + b.to_float());
  }
  friend Half operator*(Half a, Half b) {
    return Half(a.to_float() * b.to_float());
  }
  friend bool operator<(Half a, Half b) { return a.to_float() < b.to_float(); }
  friend bool operator>(Half a, Half b) { return a.to_float() > b.to_float(); }
};

static_assert(sizeof(Half) == 2);

/// Pack: dst[i] = Half(src[i]).  The spans must have equal length.
inline void encode_half(std::span<const float> src, std::span<Half> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("encode_half: length mismatch");
  }
  const float* in = src.data();
  Half* out = dst.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i].bits = float_to_half_bits(in[i]);
  }
}

/// Unpack and scale: dst[i] = src[i].to_float() * scale (the post-reduce
/// 1/world averaging folds into the same sweep).  Equal lengths required.
inline void decode_half(std::span<const Half> src, float scale,
                        std::span<float> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("decode_half: length mismatch");
  }
  const Half* in = src.data();
  float* out = dst.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = half_bits_to_float(in[i].bits) * scale;
  }
}

}  // namespace msa::dist
