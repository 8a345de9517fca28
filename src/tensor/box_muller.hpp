// The pieces of Rng::fill_normal, exposed for the tests that pin its
// exactness (tests/test_rng.cpp).  Library code calls Rng::fill_normal.
//
// The bulk sampler turns each (u1, u2) pair into the two Box-Muller values
// r cos θ and r sin θ (r = sqrt(-2 log u1), θ = 6.283185307179586 u2) in two
// steps: a branch-free kernel that approximates both products in double to
// well within 2^-46 of their libm values, then a rounding pass that converts
// them to float and recomputes with the libm formula any product lying within
// 2^-40 of a float rounding midpoint (or near zero).  Every float therefore
// equals static_cast<float>(libm value), whatever the build's -march or FMA
// contraction.  DESIGN.md ("Weight init") gives the error argument.
#pragma once

#include <cstddef>

namespace msa::tensor::detail {

/// yc[i] ≈ r cos θ and ys[i] ≈ r sin θ for each pair, with no libm call and
/// no branch (the loop vectorises).  Requires 1e-12 < u1[i] < 1 and
/// 0 <= u2[i] < 1, the ranges Rng::normal draws from.
void box_muller_approx(const double* u1, const double* u2, double* yc,
                       double* ys, std::size_t n);

/// True when float rounding of a value within 2^-46·|y| of `y` could differ
/// from float rounding of `y`: y lies within 2^-40·|y| (2^13 double ulps) of
/// a midpoint between adjacent floats, or |y| < 2^-100.
bool near_float_midpoint(double y);

/// out[2i] = float(yc[i]) * stddev and out[2i+1] = float(ys[i]) * stddev,
/// except that a pair with either value near_float_midpoint is recomputed
/// from (u1[i], u2[i]) with the libm formula of Rng::normal.  Returns the
/// number of pairs recomputed.
std::size_t box_muller_round(const double* u1, const double* u2,
                             const double* yc, const double* ys,
                             std::size_t n, float stddev, float* out);

}  // namespace msa::tensor::detail
