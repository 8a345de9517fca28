// Bulk normal sampling: Rng::fill_normal and its vectorised Box-Muller
// kernel (see tensor/box_muller.hpp for the contract of each piece).
#include "tensor/rng.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "tensor/box_muller.hpp"

namespace msa::tensor {

namespace detail {

namespace {

// Pairs per block of Rng::fill_normal: its four stack buffers hold this many.
constexpr std::size_t kBlock = 256;

// π/2 in three parts (Cody-Waite): the first two carry 33 significant bits,
// so k * part is exact for the quadrants k <= 4 that θ < 2π reaches; the
// third is the double nearest the rest (π/2 - sum < 1.1e-37).
constexpr double kPio2Hi = 0x1.921fb544p+0;
constexpr double kPio2Mid = 0x1.0b4611a6p-34;
constexpr double kPio2Lo = 0x1.3198a2e037073p-69;
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
// Adding and subtracting 1.5·2^52 rounds a double in [0, 2^51) to the
// nearest integer (std::floor / std::nearbyint would block vectorisation).
constexpr double kRoundMagic = 0x1.8p52;
constexpr double kLn2 = 0x1.62e42fefa39efp-1;
constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;

constexpr std::uint64_t kMantissaMask = 0x000FFFFFFFFFFFFFull;
constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;
// 2^52 as bits: OR-ing a biased exponent into its mantissa gives
// 2^52 + exponent exactly, so the exponent reaches double without a
// (non-vectorising on AVX2) int64 -> double conversion.
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;

// log(u) for normal positive u: u = 2^e m with m in [√½, √2), and
// log m = 2 atanh(s), s = (m - 1) / (m + 1), |s| <= 0.1716; the atanh series
// stops at s^19 / 19 (the next term is below 2^-55 of the sum).
inline double log_positive(double u) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  double m = std::bit_cast<double>((bits & kMantissaMask) | kOneBits);
  double e = std::bit_cast<double>((bits >> 52) | kTwo52Bits) -
             (0x1p52 + 1023.0);
  const bool high = m > kSqrt2;
  m = high ? 0.5 * m : m;
  e = high ? e + 1.0 : e;
  const double s = (m - 1.0) / (m + 1.0);
  const double s2 = s * s;
  double p = 1.0 / 19.0;
  p = p * s2 + 1.0 / 17.0;
  p = p * s2 + 1.0 / 15.0;
  p = p * s2 + 1.0 / 13.0;
  p = p * s2 + 1.0 / 11.0;
  p = p * s2 + 1.0 / 9.0;
  p = p * s2 + 1.0 / 7.0;
  p = p * s2 + 1.0 / 5.0;
  p = p * s2 + 1.0 / 3.0;
  return e * kLn2 + (2.0 * s + 2.0 * s * s2 * p);
}

// Taylor polynomials on |x| <= π/4: sin to x^15, cos to x^16 (remainders
// below 2^-54 of the value).
inline double sin_poly(double x, double x2) {
  double p = -1.0 / 1307674368000.0;  // -1/15!
  p = p * x2 + 1.0 / 6227020800.0;    // 1/13!
  p = p * x2 - 1.0 / 39916800.0;      // -1/11!
  p = p * x2 + 1.0 / 362880.0;        // 1/9!
  p = p * x2 - 1.0 / 5040.0;          // -1/7!
  p = p * x2 + 1.0 / 120.0;           // 1/5!
  p = p * x2 - 1.0 / 6.0;             // -1/3!
  return x + x * x2 * p;
}

inline double cos_poly(double x2) {
  double p = 1.0 / 20922789888000.0;  // 1/16!
  p = p * x2 - 1.0 / 87178291200.0;   // -1/14!
  p = p * x2 + 1.0 / 479001600.0;     // 1/12!
  p = p * x2 - 1.0 / 3628800.0;       // -1/10!
  p = p * x2 + 1.0 / 40320.0;         // 1/8!
  p = p * x2 - 1.0 / 720.0;           // -1/6!
  p = p * x2 + 1.0 / 24.0;            // 1/4!
  return 1.0 - 0.5 * x2 + x2 * x2 * p;
}

}  // namespace

void box_muller_approx(const double* __restrict u1,
                       const double* __restrict u2, double* __restrict yc,
                       double* __restrict ys, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = std::sqrt(-2.0 * log_positive(u1[i]));
    // The same double θ as Rng::normal, reduced by π/2: θ = kπ/2 + x.
    const double theta = 6.283185307179586 * u2[i];
    const double k = (theta * kTwoOverPi + kRoundMagic) - kRoundMagic;
    const double x = ((theta - k * kPio2Hi) - k * kPio2Mid) - k * kPio2Lo;
    const double x2 = x * x;
    const double sx = sin_poly(x, x2);
    const double cx = cos_poly(x2);
    // Quadrant k (0..4, 4 ≡ 0): cos θ = cx, -sx, -cx, sx; sin θ = sx, cx,
    // -sx, -cx.
    const bool odd = (k == 1.0) | (k == 3.0);
    const bool cos_neg = (k == 1.0) | (k == 2.0);
    const bool sin_neg = (k == 2.0) | (k == 3.0);
    const double c = odd ? sx : cx;
    const double s = odd ? cx : sx;
    yc[i] = r * (cos_neg ? -c : c);
    ys[i] = r * (sin_neg ? -s : s);
  }
}

bool near_float_midpoint(double y) {
  // Rounding a double (in float's normal range) to float keeps the top 23 of
  // its 52 mantissa bits; the dropped 29 bits equal 2^28 exactly at a
  // midpoint.  2^13 double ulps >= 2^-40·|y| for any y of the binade.
  constexpr std::uint64_t kDropped = (std::uint64_t{1} << 29) - 1;
  constexpr std::uint64_t kMid = std::uint64_t{1} << 28;
  constexpr std::uint64_t kMargin = std::uint64_t{1} << 13;
  const std::uint64_t low = std::bit_cast<std::uint64_t>(y) & kDropped;
  const bool mid = low - (kMid - kMargin) <= 2 * kMargin;
  return mid | (std::fabs(y) < 0x1p-100);
}

std::size_t box_muller_round(const double* u1, const double* u2,
                             const double* __restrict yc,
                             const double* __restrict ys, std::size_t n,
                             float stddev, float* __restrict out) {
  // A 64-bit flag accumulator, not bool, keeps this loop vectorisable.
  std::uint64_t any_near = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[2 * i] = static_cast<float>(yc[i]) * stddev;
    out[2 * i + 1] = static_cast<float>(ys[i]) * stddev;
    any_near |= std::uint64_t{near_float_midpoint(yc[i])} |
                std::uint64_t{near_float_midpoint(ys[i])};
  }
  if (any_near == 0) return 0;
  std::size_t recomputed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!near_float_midpoint(yc[i]) && !near_float_midpoint(ys[i])) continue;
    const NormalPair y = box_muller_libm(u1[i], u2[i]);
    out[2 * i] = static_cast<float>(y.cos_part) * stddev;
    out[2 * i + 1] = static_cast<float>(y.sin_part) * stddev;
    ++recomputed;
  }
  return recomputed;
}

}  // namespace detail

void Rng::fill_normal(std::span<float> out, float stddev) {
  std::size_t i = 0;
  // A cached sin value is the next normal(): emit it first.
  if (has_cached_ && !out.empty()) {
    out[i++] = static_cast<float>(normal()) * stddev;
  }
  if (out.size() - i >= 2) {
    std::array<double, detail::kBlock> u1{}, u2{}, yc{}, ys{};
    while (out.size() - i >= 2) {
      const std::size_t pairs =
          std::min(detail::kBlock, (out.size() - i) / 2);
      // The draws of normal(), in its order: u1 (with its rejection loop),
      // then u2, per pair.
      for (std::size_t p = 0; p < pairs; ++p) {
        double a = 0.0;
        while (a <= 1e-12) a = uniform();
        u1[p] = a;
        u2[p] = uniform();
      }
      detail::box_muller_approx(u1.data(), u2.data(), yc.data(), ys.data(),
                                pairs);
      detail::box_muller_round(u1.data(), u2.data(), yc.data(), ys.data(),
                               pairs, stddev, out.data() + i);
      i += 2 * pairs;
    }
  }
  // An odd tail draws one more pair and caches its sin value, as normal() does.
  if (i < out.size()) out[i] = static_cast<float>(normal()) * stddev;
}

}  // namespace msa::tensor
