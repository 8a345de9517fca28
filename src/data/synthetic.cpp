#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace msa::data {

std::pair<Tensor, std::vector<std::int32_t>> ImageDataset::batch(
    const std::vector<std::size_t>& indices) const {
  const std::size_t C = images.dim(1), H = images.dim(2), W = images.dim(3);
  const std::size_t stride = C * H * W;
  Tensor out({indices.size(), C, H, W});
  std::vector<std::int32_t> y;
  y.reserve(indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t i = indices[k];
    std::copy(images.data() + i * stride, images.data() + (i + 1) * stride,
              out.data() + k * stride);
    y.push_back(labels[i]);
  }
  return {std::move(out), std::move(y)};
}

ImageDataset make_multispectral(const MultispectralConfig& cfg) {
  Rng rng(cfg.seed);
  ImageDataset ds;
  ds.num_classes = cfg.classes;
  ds.images = Tensor({cfg.samples, cfg.bands, cfg.patch, cfg.patch});
  ds.labels.resize(cfg.samples);

  // Class band signatures: deterministic, well separated in band space.
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
  const std::size_t block = cfg.bands * hw;
  std::vector<float> noise(block);  // one sample's unit noise, pixel order
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    const auto cls = static_cast<std::size_t>(rng.uniform_index(cfg.classes));
    ds.labels[i] = static_cast<std::int32_t>(cls);
    const float illum = static_cast<float>(rng.uniform(0.8, 1.2));
    // Low-frequency spatial texture shared across bands (terrain shading).
    const double fx = rng.uniform(0.5, 2.0), fy = rng.uniform(0.5, 2.0);
    const double phase = rng.uniform(0.0, 6.28);
    rng.fill_normal(noise, 1.0f);
    float* sample = ds.images.data() + i * block;
    for (std::size_t b = 0; b < cfg.bands; ++b) {
      float* plane = sample + b * hw;
      for (std::size_t yy = 0; yy < cfg.patch; ++yy) {
        for (std::size_t xx = 0; xx < cfg.patch; ++xx) {
          const double tex =
              0.3 * std::sin(fx * xx * 2.0 * std::numbers::pi / cfg.patch +
                             fy * yy * 2.0 * std::numbers::pi / cfg.patch +
                             phase);
          plane[yy * cfg.patch + xx] =
              illum * (signatures[cls][b] + static_cast<float>(tex));
        }
      }
    }
    // Adding the noise in its own pass over the stored signal leaves
    // noise * n the only product an FMA-contracting build can fuse into the
    // sum, so every build yields the bytes of the per-pixel normal()
    // formulation (tests/test_rng.cpp).
    for (std::size_t k = 0; k < block; ++k) {
      sample[k] = sample[k] + cfg.noise * noise[k];
    }
  }
  return ds;
}

ImageDataset make_cxr(const CxrConfig& cfg) {
  Rng rng(cfg.seed);
  ImageDataset ds;
  ds.num_classes = 3;
  ds.images = Tensor({cfg.samples, 1, cfg.size, cfg.size});
  ds.labels.resize(cfg.samples);
  const std::size_t S = cfg.size;
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    const auto cls = static_cast<std::size_t>(rng.uniform_index(3));
    ds.labels[i] = static_cast<std::int32_t>(cls);
    float* img = ds.images.data() + i * S * S;
    // Base thorax: two darker lung fields on a brighter mediastinum.
    for (std::size_t y = 0; y < S; ++y) {
      for (std::size_t x = 0; x < S; ++x) {
        const double cx1 = 0.3 * S, cx2 = 0.7 * S, cy = 0.5 * S;
        const double r1 = std::hypot(static_cast<double>(x) - cx1,
                                     static_cast<double>(y) - cy) / S;
        const double r2 = std::hypot(static_cast<double>(x) - cx2,
                                     static_cast<double>(y) - cy) / S;
        double v = 0.8 - 0.5 * std::exp(-8.0 * r1 * r1) -
                   0.5 * std::exp(-8.0 * r2 * r2);
        img[y * S + x] = static_cast<float>(v);
      }
    }
    if (cls == 1) {
      // Pneumonia: one focal bright consolidation in a random lung.
      const double cx = rng.bernoulli(0.5) ? 0.3 * S : 0.7 * S;
      const double cy = rng.uniform(0.3, 0.7) * S;
      const double radius = rng.uniform(0.08, 0.15) * S;
      for (std::size_t y = 0; y < S; ++y) {
        for (std::size_t x = 0; x < S; ++x) {
          const double r = std::hypot(x - cx, y - cy);
          img[y * S + x] +=
              static_cast<float>(0.6 * std::exp(-(r * r) / (radius * radius)));
        }
      }
    } else if (cls == 2) {
      // COVID-19: bilateral peripheral ground-glass texture.
      for (std::size_t y = 0; y < S; ++y) {
        for (std::size_t x = 0; x < S; ++x) {
          const bool peripheral = x < 0.45 * S || x > 0.55 * S;
          if (!peripheral) continue;
          img[y * S + x] += static_cast<float>(
              0.18 * std::sin(0.9 * x + 1.3 * y) +
              0.12 * rng.normal());
        }
      }
    }
    for (std::size_t p = 0; p < S * S; ++p) {
      img[p] += cfg.noise * static_cast<float>(rng.normal());
    }
  }
  return ds;
}

IcuDataset make_icu_timeseries(const IcuConfig& cfg) {
  Rng rng(cfg.seed);
  const std::size_t F = cfg.features;
  if (F < 2) throw std::invalid_argument("icu: need >= 2 features");
  // Per-channel physiology: set-point, AR coefficient, noise scale.
  std::vector<double> setpoint(F), ar(F), noise(F);
  for (std::size_t f = 0; f < F; ++f) {
    setpoint[f] = 1.0 + 0.5 * f;
    ar[f] = 0.85 + 0.02 * static_cast<double>(f % 5);
    noise[f] = 0.08 + 0.02 * static_cast<double>(f % 3);
  }

  std::vector<Tensor> series;  // per patient: (T, F)
  series.reserve(cfg.patients);
  for (std::size_t p = 0; p < cfg.patients; ++p) {
    Tensor s({cfg.series_len, F});
    std::vector<double> state(setpoint);
    const double circ_phase = rng.uniform(0.0, 6.28);
    for (std::size_t t = 0; t < cfg.series_len; ++t) {
      const double circadian =
          0.15 * std::sin(2.0 * std::numbers::pi * t / 24.0 + circ_phase);
      // Channels 1..F-1 evolve independently; channel 0 is a smooth function
      // of the others (the oxygenation index the GRU must reconstruct).
      for (std::size_t f = 1; f < F; ++f) {
        state[f] = setpoint[f] + ar[f] * (state[f] - setpoint[f]) +
                   noise[f] * rng.normal() + circadian;
        s.at2(t, f) = static_cast<float>(state[f]);
      }
      double drive = 0.0;
      for (std::size_t f = 1; f < F; ++f) {
        drive += std::sin(state[f]) / static_cast<double>(F - 1);
      }
      state[0] = setpoint[0] + ar[0] * (state[0] - setpoint[0]) +
                 0.4 * drive + 0.03 * rng.normal();
      s.at2(t, 0) = static_cast<float>(state[0]);
    }
    series.push_back(std::move(s));
  }

  // Build windows: predict channel 0 at t+1 from window [t-W+1, t].
  const std::size_t W = cfg.window;
  std::vector<std::pair<std::size_t, std::size_t>> anchors;  // (patient, t_end)
  for (std::size_t p = 0; p < cfg.patients; ++p) {
    for (std::size_t t = W; t + 1 < cfg.series_len; t += 4) {
      anchors.emplace_back(p, t);
    }
  }
  IcuDataset ds;
  ds.windows = Tensor({anchors.size(), W, F + 1});
  ds.targets = Tensor({anchors.size(), 1});
  for (std::size_t a = 0; a < anchors.size(); ++a) {
    const auto [p, t_end] = anchors[a];
    const Tensor& s = series[p];
    for (std::size_t w = 0; w < W; ++w) {
      const std::size_t t = t_end - W + 1 + w;
      const bool missing = rng.bernoulli(cfg.missing_rate);
      for (std::size_t f = 0; f < F; ++f) {
        ds.windows.at3(a, w, f) = missing ? 0.0f : s.at2(t, f);
      }
      ds.windows.at3(a, w, F) = missing ? 0.0f : 1.0f;  // observation mask
    }
    ds.targets.at2(a, 0) = s.at2(t_end + 1, 0);
  }
  return ds;
}

ml::SvmProblem make_blobs(std::size_t n, double separation,
                          std::uint64_t seed) {
  Rng rng(seed);
  ml::SvmProblem p;
  p.x = Tensor({n, 2});
  p.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = rng.bernoulli(0.5);
    const double cx = pos ? separation / 2 : -separation / 2;
    p.x.at2(i, 0) = static_cast<float>(cx + rng.normal());
    p.x.at2(i, 1) = static_cast<float>(rng.normal());
    p.y[i] = pos ? 1 : -1;
  }
  return p;
}

ml::SvmProblem make_moons(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  ml::SvmProblem p;
  p.x = Tensor({n, 2});
  p.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool upper = rng.bernoulli(0.5);
    const double t = rng.uniform(0.0, std::numbers::pi);
    double x, y;
    if (upper) {
      x = std::cos(t);
      y = std::sin(t);
    } else {
      x = 1.0 - std::cos(t);
      y = 0.5 - std::sin(t);
    }
    p.x.at2(i, 0) = static_cast<float>(x + noise * rng.normal());
    p.x.at2(i, 1) = static_cast<float>(y + noise * rng.normal());
    p.y[i] = upper ? 1 : -1;
  }
  return p;
}

TabularDataset make_tabular(std::size_t n, std::size_t d, std::size_t classes,
                            std::uint64_t seed) {
  Rng rng(seed);
  TabularDataset ds;
  ds.num_classes = classes;
  ds.x = Tensor({n, d});
  ds.y.resize(n);
  // Row-major, so one bulk draw gives every row the values a per-element
  // normal() loop would.
  rng.fill_normal(ds.x.flat(), 1.0f);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = ds.x.data() + i * d;
    double score = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const float v = row[j];
      // Non-linear interactions so trees beat linear models.  The partner
      // column counts only once drawn (k <= j); a later one reads as 0.
      score += (j % 2 == 0 ? 1.0 : -1.0) * (v > 0.3f ? 1.0 : 0.0);
      const std::size_t k = (j + 7) % d;
      const float partner = k <= j ? row[k] : 0.0f;
      if (j + 1 < d) score += 0.5 * (v * partner > 0 ? 1 : 0);
    }
    const double q = score / (1.5 * static_cast<double>(d));
    auto cls = static_cast<std::int64_t>((q + 1.0) * 0.5 *
                                         static_cast<double>(classes));
    ds.y[i] = static_cast<std::int32_t>(
        std::clamp<std::int64_t>(cls, 0, static_cast<std::int64_t>(classes) - 1));
  }
  return ds;
}

}  // namespace msa::data
