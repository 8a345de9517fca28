// Conv2D lowering tests: the span-copy im2col/col2im against an
// element-wise oracle, the grouped-sample Conv2D against a per-sample
// im2col + GEMM + col2im lowering, and Conv2D's grad-shape checks.  Every
// comparison is bit for bit (memcmp), not within a tolerance: the grouped
// lowering promises exactly the per-sample result for every shape.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/conv.hpp"
#include "par/pool.hpp"
#include "tensor/ops.hpp"

namespace {

using msa::tensor::Rng;
using msa::tensor::Tensor;
namespace ops = msa::tensor;

class ParGuard {
 public:
  ParGuard() : saved_(msa::par::num_threads()) {}
  ~ParGuard() { msa::par::set_num_threads(saved_); }

 private:
  std::size_t saved_;
};

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// ---- im2col / col2im --------------------------------------------------------

// Element-wise reference: one bounds test per column element.
void oracle_im2col(const float* input, std::size_t channels, std::size_t height,
                   std::size_t width, std::size_t k, std::size_t stride,
                   std::size_t pad, float* columns, std::size_t ld) {
  const std::size_t out_h = ops::conv_out_size(height, k, stride, pad);
  const std::size_t out_w = ops::conv_out_size(width, k, stride, pad);
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t kh = 0; kh < k; ++kh) {
      for (std::size_t kw = 0; kw < k; ++kw, ++row) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const long ih = static_cast<long>(oh * stride + kh) -
                            static_cast<long>(pad);
            const long iw = static_cast<long>(ow * stride + kw) -
                            static_cast<long>(pad);
            const bool inside = ih >= 0 && ih < static_cast<long>(height) &&
                                iw >= 0 && iw < static_cast<long>(width);
            columns[row * ld + oh * out_w + ow] =
                inside ? input[(c * height + static_cast<std::size_t>(ih)) *
                                   width +
                               static_cast<std::size_t>(iw)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

void oracle_col2im(const float* columns, std::size_t channels,
                   std::size_t height, std::size_t width, std::size_t k,
                   std::size_t stride, std::size_t pad, float* input_grad,
                   std::size_t ld) {
  const std::size_t out_h = ops::conv_out_size(height, k, stride, pad);
  const std::size_t out_w = ops::conv_out_size(width, k, stride, pad);
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t kh = 0; kh < k; ++kh) {
      for (std::size_t kw = 0; kw < k; ++kw, ++row) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          const long ih = static_cast<long>(oh * stride + kh) -
                          static_cast<long>(pad);
          if (ih < 0 || ih >= static_cast<long>(height)) continue;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const long iw = static_cast<long>(ow * stride + kw) -
                            static_cast<long>(pad);
            if (iw < 0 || iw >= static_cast<long>(width)) continue;
            input_grad[(c * height + static_cast<std::size_t>(ih)) * width +
                       static_cast<std::size_t>(iw)] +=
                columns[row * ld + oh * out_w + ow];
          }
        }
      }
    }
  }
}

// Sweeps c 1-3, h/w 1-9, k 1-5, stride 1-3, pad 0-3 (pad >= kernel
// included), with the default leading dimension and with a wider one
// (columns at an offset inside a two-sample block).
TEST(Im2ColSpanTest, MatchesElementwiseOracleBitForBit) {
  Rng rng(31);
  std::size_t geometries = 0;
  for (std::size_t c = 1; c <= 3; ++c) {
    for (std::size_t h = 1; h <= 9; ++h) {
      for (std::size_t w = 1; w <= 9; ++w) {
        for (std::size_t k = 1; k <= 5; ++k) {
          for (std::size_t stride = 1; stride <= 3; ++stride) {
            for (std::size_t pad = 0; pad <= 3; ++pad) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              ++geometries;
              const std::size_t ohw = ops::conv_out_size(h, k, stride, pad) *
                                      ops::conv_out_size(w, k, stride, pad);
              const std::size_t rows = c * k * k;
              const Tensor x = Tensor::randn({c, h, w}, rng);
              const Tensor g0 = Tensor::randn({c, h, w}, rng);
              for (const std::size_t ld : {std::size_t{0}, 2 * ohw + 3}) {
                const std::size_t row_ld = ld == 0 ? ohw : ld;
                const std::size_t off = ld == 0 ? 0 : ohw;
                // Poison so a column the span code forgets to write shows.
                std::vector<float> got(rows * row_ld + off, -7.0f);
                std::vector<float> want(got);
                ops::im2col(x.data(), c, h, w, k, k, stride, pad,
                            got.data() + off, ld);
                oracle_im2col(x.data(), c, h, w, k, stride, pad,
                              want.data() + off, row_ld);
                ASSERT_TRUE(same_bits(got.data(), want.data(), got.size()))
                    << "im2col c" << c << " h" << h << " w" << w << " k" << k
                    << " s" << stride << " p" << pad << " ld" << ld;
                // Accumulate onto a non-zero gradient so the order of
                // every += shows, not only the sums.
                Tensor gx_got = g0, gx_want = g0;
                ops::col2im(want.data() + off, c, h, w, k, k, stride, pad,
                            gx_got.data(), ld);
                oracle_col2im(want.data() + off, c, h, w, k, stride, pad,
                              gx_want.data(), row_ld);
                ASSERT_TRUE(
                    same_bits(gx_got.data(), gx_want.data(), gx_got.numel()))
                    << "col2im c" << c << " h" << h << " w" << w << " k" << k
                    << " s" << stride << " p" << pad << " ld" << ld;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(geometries, 10000u);
}

// ---- grouped Conv2D vs per-sample lowering ------------------------------------

struct ConvCase {
  std::size_t in_ch, out_ch, k, stride, pad, batch, hw;
  bool bias;
};

struct ConvResult {
  std::vector<float> y, gx, gw, gb;
};

// Per-sample lowering: one im2col + GEMM per sample forward; backward in
// chunks of ceil(B/8) samples, each accumulating into a zeroed per-chunk
// weight/bias partial, the partials added to the (zero) gradients in chunk
// order.
ConvResult per_sample_lowering(const ConvCase& cc, const Tensor& w,
                               const Tensor& b, const Tensor& x,
                               const Tensor& g) {
  const std::size_t B = cc.batch, H = cc.hw, W = cc.hw;
  const std::size_t oh = ops::conv_out_size(H, cc.k, cc.stride, cc.pad);
  const std::size_t ohw = oh * ops::conv_out_size(W, cc.k, cc.stride, cc.pad);
  const std::size_t rows = cc.in_ch * cc.k * cc.k;
  const std::size_t in_sz = cc.in_ch * H * W, out_sz = cc.out_ch * ohw;
  std::vector<float> cols(rows * ohw), prod(out_sz), gcols(rows * ohw);
  ConvResult r;
  r.y.resize(B * out_sz);
  for (std::size_t s = 0; s < B; ++s) {
    ops::im2col(x.data() + s * in_sz, cc.in_ch, H, W, cc.k, cc.k, cc.stride,
                cc.pad, cols.data());
    ops::gemm_raw(false, false, cc.out_ch, ohw, rows, 1.0f, w.data(), rows,
                  cols.data(), ohw, 0.0f, prod.data());
    for (std::size_t c = 0; c < cc.out_ch; ++c) {
      const float bias = cc.bias ? b[c] : 0.0f;
      for (std::size_t i = 0; i < ohw; ++i) {
        r.y[s * out_sz + c * ohw + i] = prod[c * ohw + i] + bias;
      }
    }
  }
  const std::size_t grain = (B + 7) / 8;
  const std::size_t nchunks = (B + grain - 1) / grain;
  const std::size_t wsize = w.numel();
  std::vector<float> gw_part(nchunks * wsize, 0.0f);
  std::vector<float> gb_part(nchunks * cc.out_ch, 0.0f);
  r.gx.assign(B * in_sz, 0.0f);
  for (std::size_t s = 0; s < B; ++s) {
    float* gwp = gw_part.data() + (s / grain) * wsize;
    float* gbp = gb_part.data() + (s / grain) * cc.out_ch;
    const float* g_s = g.data() + s * out_sz;
    ops::im2col(x.data() + s * in_sz, cc.in_ch, H, W, cc.k, cc.k, cc.stride,
                cc.pad, cols.data());
    ops::gemm_raw(false, true, cc.out_ch, rows, ohw, 1.0f, g_s, ohw,
                  cols.data(), ohw, 1.0f, gwp);
    for (std::size_t c = 0; c < cc.out_ch; ++c) {
      for (std::size_t i = 0; i < ohw; ++i) gbp[c] += g_s[c * ohw + i];
    }
    ops::gemm_raw(true, false, rows, ohw, cc.out_ch, 1.0f, w.data(), rows,
                  g_s, ohw, 0.0f, gcols.data());
    ops::col2im(gcols.data(), cc.in_ch, H, W, cc.k, cc.k, cc.stride, cc.pad,
                r.gx.data() + s * in_sz);
  }
  r.gw.assign(wsize, 0.0f);
  r.gb.assign(cc.bias ? cc.out_ch : 0, 0.0f);
  for (std::size_t c = 0; c < nchunks; ++c) {
    for (std::size_t i = 0; i < wsize; ++i) r.gw[i] += gw_part[c * wsize + i];
    for (std::size_t i = 0; i < r.gb.size(); ++i) {
      r.gb[i] += gb_part[c * cc.out_ch + i];
    }
  }
  return r;
}

Tensor case_input(const ConvCase& cc, bool grad) {
  const std::size_t oh = ops::conv_out_size(cc.hw, cc.k, cc.stride, cc.pad);
  Rng rng(grad ? 29 : 23);
  return grad ? Tensor::randn({cc.batch, cc.out_ch, oh, oh}, rng)
              : Tensor::randn({cc.batch, cc.in_ch, cc.hw, cc.hw}, rng);
}

msa::nn::Conv2D case_layer(const ConvCase& cc) {
  Rng wrng(17 + cc.out_ch);
  msa::nn::Conv2D conv(cc.in_ch, cc.out_ch, cc.k, cc.stride, cc.pad, wrng,
                       cc.bias);
  // Non-zero bias so a dropped or doubled bias add shows.
  Rng brng(5);
  if (cc.bias) *conv.params()[1] = Tensor::randn({cc.out_ch}, brng);
  return conv;
}

// Runs every case's layer at 1 and at 8 pool threads and compares y, gx, gw
// and gb with the per-sample lowering (computed first, at 1 thread).
void expect_layers_match_lowering(const std::vector<ConvCase>& cases) {
  ParGuard guard;
  msa::par::set_num_threads(1);
  std::vector<ConvResult> want;
  for (const ConvCase& cc : cases) {
    msa::nn::Conv2D conv = case_layer(cc);
    want.push_back(per_sample_lowering(
        cc, *conv.params()[0], cc.bias ? *conv.params()[1] : Tensor(),
        case_input(cc, false), case_input(cc, true)));
  }
  for (const std::size_t threads : {1, 8}) {
    msa::par::set_num_threads(threads);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const ConvCase& cc = cases[i];
      const ConvResult& ref = want[i];
      msa::nn::Conv2D conv = case_layer(cc);
      const Tensor y = conv.forward(case_input(cc, false), true);
      const Tensor gx = conv.backward(case_input(cc, true));
      const std::string what =
          "in" + std::to_string(cc.in_ch) + " out" +
          std::to_string(cc.out_ch) + " k" + std::to_string(cc.k) + " s" +
          std::to_string(cc.stride) + " p" + std::to_string(cc.pad) + " B" +
          std::to_string(cc.batch) + " hw" + std::to_string(cc.hw) +
          " bias" + std::to_string(cc.bias) + " threads" +
          std::to_string(threads);
      ASSERT_EQ(y.numel(), ref.y.size()) << what;
      ASSERT_TRUE(same_bits(y.data(), ref.y.data(), y.numel())) << "y " << what;
      ASSERT_TRUE(same_bits(gx.data(), ref.gx.data(), gx.numel()))
          << "gx " << what;
      const std::vector<Tensor*> grads = conv.grads();
      ASSERT_TRUE(same_bits(grads[0]->data(), ref.gw.data(), ref.gw.size()))
          << "gw " << what;
      if (cc.bias) {
        ASSERT_TRUE(same_bits(grads[1]->data(), ref.gb.data(), ref.gb.size()))
            << "gb " << what;
      }
    }
  }
}

// out_ch 67 takes the input-gradient GEMM past one 64-deep block of the
// transposed scalar kernel.  in_ch 29 at k 3 puts rows = 261 past one
// 256-deep packed block; every other case keeps rows below it.  On 5x5
// inputs a group holds 10 samples at stride 1 (batch 13 leaves a short last
// group) and 28 at stride 2.
TEST(Conv2DGroupedTest, MatchesPerSampleLoweringBitForBit) {
  std::vector<ConvCase> cases;
  for (const std::size_t out_ch : {8, 64, 67}) {
    for (const std::size_t k : {1, 3, 5}) {
      for (const std::size_t in_ch : {3, 29}) {
        if (in_ch == 29 && k != 3) continue;
        for (const std::size_t stride : {1, 2}) {
          for (const bool bias : {true, false}) {
            for (const std::size_t batch : {1, 2, 8, 9, 13}) {
              cases.push_back({in_ch, out_ch, k, stride, k / 2, batch, 5, bias});
            }
          }
        }
      }
    }
  }
  // One sample already fills the column cap (oh*ow = 289 > 256).
  cases.push_back({3, 8, 3, 1, 1, 9, 17, true});
  expect_layers_match_lowering(cases);
}

// The Conv2D layers of nn::make_resnet_rs(4, ...) on 4x16x16 patches at the
// dp_resnet microbatch of 8: stem, the three stages' 3x3 convs and the two
// strided 1x1 projections.
TEST(Conv2DGroupedTest, ResnetRsLayersMatchPerSampleLowering) {
  expect_layers_match_lowering({{4, 16, 3, 1, 1, 8, 16, false},
                                {16, 16, 3, 1, 1, 8, 16, false},
                                {16, 32, 3, 2, 1, 8, 16, false},
                                {32, 32, 3, 1, 1, 8, 8, false},
                                {16, 32, 1, 2, 0, 8, 16, false},
                                {32, 64, 3, 2, 1, 8, 8, false},
                                {64, 64, 3, 1, 1, 8, 4, false},
                                {32, 64, 1, 2, 0, 8, 8, false}});
}

// ---- shape checks -------------------------------------------------------------

TEST(Conv2DTest, BackwardRejectsMismatchedGradShape) {
  Rng rng(3);
  msa::nn::Conv2D conv(2, 4, 3, 1, 1, rng);
  // Backward before any forward has no cached input to size against.
  EXPECT_THROW(conv.backward(Tensor({2, 4, 6, 6})), std::invalid_argument);
  const Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  const Tensor y = conv.forward(x, true);
  ASSERT_EQ(y.shape(), (msa::tensor::Shape{2, 4, 6, 6}));
  EXPECT_THROW(conv.backward(Tensor({2, 4, 5, 6})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor({2, 4, 6, 5})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor({2, 3, 6, 6})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor({1, 4, 6, 6})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor({2, 4, 36})), std::invalid_argument);
  EXPECT_EQ(conv.backward(Tensor({2, 4, 6, 6})).shape(), x.shape());
}

}  // namespace
