// Tests for the bulk normal sampler Rng::fill_normal: bit identity with the
// scalar Rng::normal loop (values and generator state), the accuracy of its
// vectorised Box-Muller kernel on adversarial uniforms, the midpoint guard
// that routes doubtful products through libm, and the synthetic datasets
// that draw through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <vector>

#include "core/hash.hpp"
#include "data/synthetic.hpp"
#include "tensor/box_muller.hpp"
#include "tensor/rng.hpp"

namespace {

using msa::tensor::Rng;
namespace detail = msa::tensor::detail;

std::uint32_t float_bits(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

std::uint64_t digest(const float* p, std::size_t n, std::uint64_t h = 0) {
  for (std::size_t i = 0; i < n; ++i) h = msa::hash::combine(h, float_bits(p[i]));
  return h;
}

TEST(RngFillNormal, MatchesScalarLoopBitForBit) {
  const std::size_t sizes[] = {0,   1,   2,   7,     255,
                               256, 257, 513, 32769, std::size_t{1} << 18};
  std::vector<float> bulk, scalar;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (const std::size_t n : sizes) {
      for (const bool cached : {false, true}) {
        Rng a(seed), b(seed);
        if (cached) {  // leave a Box-Muller sin value cached on entry
          a.normal();
          b.normal();
        }
        const float stddev = 0.5f + 0.01f * static_cast<float>(seed);
        bulk.assign(n, -1.0f);
        scalar.assign(n, -2.0f);
        a.fill_normal(bulk, stddev);
        for (float& v : scalar) v = static_cast<float>(b.normal()) * stddev;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(float_bits(bulk[i]), float_bits(scalar[i]))
              << "seed " << seed << " n " << n << " cached " << cached
              << " i " << i;
        }
        // Same state afterwards, the cached value included.
        ASSERT_EQ(a.normal(), b.normal()) << "seed " << seed << " n " << n;
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "seed " << seed << " n " << n;
      }
    }
  }
}

TEST(RngFillNormal, KernelWithinBoundOnAdversarialUniforms) {
  // u1: the largest uniform, the smallest the rejection loop lets through,
  // powers of two, and the √½ / √2 edges of the log reduction.
  std::vector<double> u1s = {1.0 - 0x1p-53, std::nextafter(1e-12, 1.0),
                             std::nextafter(std::nextafter(1e-12, 1.0), 1.0),
                             1e-12 * (1.0 + 0x1p-40),
                             std::numbers::sqrt2 / 2.0,
                             std::nextafter(std::numbers::sqrt2 / 2.0, 0.0),
                             std::nextafter(std::numbers::sqrt2 / 2.0, 1.0),
                             0.3, 0.5 + 0x1p-53};
  for (int e = 1; e <= 39; ++e) u1s.push_back(std::ldexp(1.0, -e));
  // u2: θ = 0 and θ near every multiple of π/2 (u2 = k/4 ± a few ulps),
  // plus the octant edges, where the reduced argument is near ±π/4.
  std::vector<double> u2s = {0.0, 0x1p-53, 1.0 - 0x1p-53};
  for (int k = 1; k <= 7; ++k) {
    const double q = k / 8.0;
    u2s.push_back(q);
    double lo = q, hi = q;
    for (int step = 0; step < 4; ++step) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 1.0);
      u2s.push_back(lo);
      u2s.push_back(hi);
    }
  }
  std::vector<double> a, b;
  for (const double u1 : u1s) {
    for (const double u2 : u2s) {
      a.push_back(u1);
      b.push_back(u2);
    }
  }
  const std::size_t n = a.size();
  std::vector<double> yc(n), ys(n);
  detail::box_muller_approx(a.data(), b.data(), yc.data(), ys.data(), n);
  std::vector<float> out(2 * n);
  detail::box_muller_round(a.data(), b.data(), yc.data(), ys.data(), n, 1.0f,
                           out.data());
  for (std::size_t i = 0; i < n; ++i) {
    const detail::NormalPair y = detail::box_muller_libm(a[i], b[i]);
    EXPECT_LE(std::fabs(yc[i] - y.cos_part), 0x1p-46 * std::fabs(y.cos_part))
        << "u1 " << a[i] << " u2 " << b[i];
    EXPECT_LE(std::fabs(ys[i] - y.sin_part), 0x1p-46 * std::fabs(y.sin_part))
        << "u1 " << a[i] << " u2 " << b[i];
    EXPECT_EQ(float_bits(out[2 * i]),
              float_bits(static_cast<float>(y.cos_part)));
    EXPECT_EQ(float_bits(out[2 * i + 1]),
              float_bits(static_cast<float>(y.sin_part)));
  }
}

TEST(RngFillNormal, MidpointGuardMargin) {
  // 1 + 2^-24 is the midpoint between the floats 1 and 1 + 2^-23; a double
  // ulp there is 2^-52, and the guard's margin is 2^13 of them.
  const double mid = 1.0 + 0x1p-24;
  EXPECT_TRUE(detail::near_float_midpoint(mid));
  EXPECT_TRUE(detail::near_float_midpoint(-mid));
  EXPECT_TRUE(detail::near_float_midpoint(mid + 0x1p-40));  // 2^12 ulps
  EXPECT_TRUE(detail::near_float_midpoint(mid - 0x1p-40));
  EXPECT_FALSE(detail::near_float_midpoint(mid + 0x1p-38));  // 2^14 ulps
  EXPECT_FALSE(detail::near_float_midpoint(mid - 0x1p-38));
  EXPECT_FALSE(detail::near_float_midpoint(1.0));
  EXPECT_FALSE(detail::near_float_midpoint(-2.5));
  EXPECT_FALSE(detail::near_float_midpoint(0.1));
  EXPECT_TRUE(detail::near_float_midpoint(0.0));
  EXPECT_TRUE(detail::near_float_midpoint(-0.0));
  EXPECT_TRUE(detail::near_float_midpoint(1e-31));
}

TEST(RngFillNormal, NearMidpointProductTakesScalarPath) {
  // Replace the kernel's cos product of the second pair with an exact float
  // midpoint: the rounding pass must recompute that pair with libm rather
  // than round the doctored value, and leave the other pairs alone.
  const double u1[3] = {0.25, 0.7, 0.9};
  const double u2[3] = {0.1, 0.3, 0.6};
  double yc[3], ys[3];
  detail::box_muller_approx(u1, u2, yc, ys, 3);
  yc[1] = 1.0 + 0x1p-24;
  float out[6];
  EXPECT_EQ(detail::box_muller_round(u1, u2, yc, ys, 3, 2.0f, out), 1u);
  for (int i = 0; i < 3; ++i) {
    const detail::NormalPair y = detail::box_muller_libm(u1[i], u2[i]);
    EXPECT_EQ(float_bits(out[2 * i]),
              float_bits(static_cast<float>(y.cos_part) * 2.0f));
    EXPECT_EQ(float_bits(out[2 * i + 1]),
              float_bits(static_cast<float>(y.sin_part) * 2.0f));
  }
  EXPECT_NE(float_bits(out[2]), float_bits(static_cast<float>(yc[1]) * 2.0f));
}

// Reference generators: one Rng::normal() call per element.
msa::data::ImageDataset scalar_multispectral(
    const msa::data::MultispectralConfig& cfg) {
  Rng rng(cfg.seed);
  msa::data::ImageDataset ds;
  ds.num_classes = cfg.classes;
  ds.images = msa::tensor::Tensor({cfg.samples, cfg.bands, cfg.patch, cfg.patch});
  ds.labels.resize(cfg.samples);
  std::vector<std::vector<float>> signatures(cfg.classes,
                                             std::vector<float>(cfg.bands));
  Rng sig_rng(cfg.seed ^ 0xABCDEFu);
  for (std::size_t c = 0; c < cfg.classes; ++c) {
    for (std::size_t b = 0; b < cfg.bands; ++b) {
      signatures[c][b] = static_cast<float>(
          std::sin(1.7 * static_cast<double>(c + 1) * static_cast<double>(b + 1)) +
          0.3 * sig_rng.normal());
    }
  }
  const std::size_t hw = cfg.patch * cfg.patch;
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    const auto cls = static_cast<std::size_t>(rng.uniform_index(cfg.classes));
    ds.labels[i] = static_cast<std::int32_t>(cls);
    const float illum = static_cast<float>(rng.uniform(0.8, 1.2));
    const double fx = rng.uniform(0.5, 2.0), fy = rng.uniform(0.5, 2.0);
    const double phase = rng.uniform(0.0, 6.28);
    for (std::size_t b = 0; b < cfg.bands; ++b) {
      float* plane = ds.images.data() + (i * cfg.bands + b) * hw;
      for (std::size_t yy = 0; yy < cfg.patch; ++yy) {
        for (std::size_t xx = 0; xx < cfg.patch; ++xx) {
          const double tex =
              0.3 * std::sin(fx * xx * 2.0 * std::numbers::pi / cfg.patch +
                             fy * yy * 2.0 * std::numbers::pi / cfg.patch +
                             phase);
          plane[yy * cfg.patch + xx] =
              illum * (signatures[cls][b] + static_cast<float>(tex)) +
              cfg.noise * static_cast<float>(rng.normal());
        }
      }
    }
  }
  return ds;
}

msa::data::TabularDataset scalar_tabular(std::size_t n, std::size_t d,
                                         std::size_t classes,
                                         std::uint64_t seed) {
  Rng rng(seed);
  msa::data::TabularDataset ds;
  ds.num_classes = classes;
  ds.x = msa::tensor::Tensor({n, d});
  ds.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double score = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const float v = static_cast<float>(rng.normal());
      ds.x.at2(i, j) = v;
      score += (j % 2 == 0 ? 1.0 : -1.0) * (v > 0.3f ? 1.0 : 0.0);
      if (j + 1 < d) score += 0.5 * (v * ds.x.at2(i, (j + 7) % d) > 0 ? 1 : 0);
    }
    const double q = score / (1.5 * static_cast<double>(d));
    auto cls = static_cast<std::int64_t>((q + 1.0) * 0.5 *
                                         static_cast<double>(classes));
    ds.y[i] = static_cast<std::int32_t>(
        std::clamp<std::int64_t>(cls, 0, static_cast<std::int64_t>(classes) - 1));
  }
  return ds;
}

std::uint64_t labels_digest(const std::vector<std::int32_t>& y) {
  std::uint64_t h = 0;
  for (const std::int32_t v : y) h = msa::hash::combine(h, static_cast<std::uint32_t>(v));
  return h;
}

TEST(RngFillNormal, MultispectralMatchesScalarGenerator) {
  msa::data::MultispectralConfig odd;  // 3 x 5 x 5: odd per-sample count
  odd.samples = 40;
  odd.bands = 3;
  odd.patch = 5;
  odd.noise = 0.3f;  // not a power of two: noise * n rounds
  odd.seed = 77;
  for (const auto& cfg : {msa::data::MultispectralConfig{}, odd}) {
    const auto got = msa::data::make_multispectral(cfg);
    const auto want = scalar_multispectral(cfg);
    EXPECT_EQ(digest(got.images.data(), got.images.numel()),
              digest(want.images.data(), want.images.numel()));
    EXPECT_EQ(labels_digest(got.labels), labels_digest(want.labels));
  }
}

TEST(RngFillNormal, TabularMatchesScalarGenerator) {
  // d < 7 reads partners not yet drawn, d = 7 pairs each column with
  // itself, odd d carries a cached value across rows.
  for (const std::size_t d : {3u, 5u, 7u, 8u, 13u, 64u}) {
    const auto got = msa::data::make_tabular(300, d, 4, 100 + d);
    const auto want = scalar_tabular(300, d, 4, 100 + d);
    EXPECT_EQ(digest(got.x.data(), got.x.numel()),
              digest(want.x.data(), want.x.numel()))
        << "d " << d;
    EXPECT_EQ(labels_digest(got.y), labels_digest(want.y)) << "d " << d;
  }
}

}  // namespace
