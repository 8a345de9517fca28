// Tests for the msa::par substrate and the packed multi-threaded GEMM /
// conv kernels built on it: correctness of all four GEMM transpose
// combinations against a naive reference on awkward (non-square, odd)
// sizes, and the determinism guarantee — bit-identical Conv2D results for
// MSA_THREADS=1 vs MSA_THREADS=8.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/conv.hpp"
#include "par/pool.hpp"
#include "tensor/ops.hpp"

namespace {

using msa::tensor::Rng;
using msa::tensor::Tensor;

// Naive triple-loop reference for C = alpha * op(A) * op(B) + beta * C.
Tensor reference_gemm(bool trans_a, bool trans_b, float alpha,
                      const Tensor& a, const Tensor& b, float beta,
                      const Tensor& c_in) {
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  Tensor c = c_in;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a.at2(p, i) : a.at2(i, p);
        const float bv = trans_b ? b.at2(j, p) : b.at2(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at2(i, j) = alpha * static_cast<float>(acc) + beta * c_in.at2(i, j);
    }
  }
  return c;
}

void check_gemm_case(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                     std::size_t k, float alpha, float beta) {
  Rng rng(1234);
  Tensor a = trans_a ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
  Tensor b = trans_b ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
  Tensor c = Tensor::randn({m, n}, rng);
  const Tensor expected = reference_gemm(trans_a, trans_b, alpha, a, b, beta, c);
  msa::tensor::gemm(trans_a, trans_b, alpha, a, b, beta, c);
  // Accumulation order differs from the reference; tolerance scales with k.
  const float tol = 1e-4f * std::sqrt(static_cast<float>(k)) + 1e-5f;
  for (std::size_t i = 0; i < c.numel(); ++i) {
    ASSERT_NEAR(c[i], expected[i], tol)
        << "trans_a=" << trans_a << " trans_b=" << trans_b << " m=" << m
        << " n=" << n << " k=" << k << " i=" << i;
  }
}

class ParGuard {
 public:
  ParGuard() : saved_(msa::par::num_threads()) {}
  ~ParGuard() { msa::par::set_num_threads(saved_); }

 private:
  std::size_t saved_;
};

TEST(TensorPar, GemmAllTransposeCombinationsOddSizes) {
  ParGuard guard;
  msa::par::set_num_threads(4);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      // Small/odd (scalar path) and non-square larger (packed path) sizes.
      check_gemm_case(ta, tb, 33, 29, 17, 1.0f, 0.0f);
      check_gemm_case(ta, tb, 7, 5, 3, 1.3f, 0.7f);
      check_gemm_case(ta, tb, 129, 65, 127, 1.0f, 0.0f);
      check_gemm_case(ta, tb, 96, 160, 64, -0.5f, 1.0f);
    }
  }
}

TEST(TensorPar, GemmBitIdenticalAcrossThreadCounts) {
  ParGuard guard;
  Rng rng(7);
  const Tensor a = Tensor::randn({130, 70}, rng);
  const Tensor b = Tensor::randn({70, 90}, rng);
  Tensor c1({130, 90}), c8({130, 90});
  msa::par::set_num_threads(1);
  msa::tensor::gemm(false, false, 1.0f, a, b, 0.0f, c1);
  msa::par::set_num_threads(8);
  msa::tensor::gemm(false, false, 1.0f, a, b, 0.0f, c8);
  ASSERT_EQ(0, std::memcmp(c1.data(), c8.data(), c1.numel() * sizeof(float)));
}

TEST(TensorPar, SkinnyGemmMatchesTallProductRows) {
  // A product of at most two 4-row panels reads B in place (packing only a
  // ragged last column panel); one of m + 12 rows always packs B.  Rows
  // 0..m-1 of the tall product must match the skinny one bit for bit, for
  // ragged widths, depths across the 256-deep block, a padded row stride,
  // alpha != 1 and an accumulating beta.
  ParGuard guard;
  constexpr std::size_t kExtraRows = 12;
  // Below 48^3 multiply-adds gemm_raw takes the scalar kernel instead
  // (kPackedThreshold in tensor/ops.cpp); only packed shapes compare here.
  constexpr std::size_t kPackedThreshold = 48 * 48 * 48;
  std::size_t cases = 0;
  for (const std::size_t threads : {1, 8}) {
    msa::par::set_num_threads(threads);
    for (std::size_t m = 1; m <= 8; ++m) {
      for (const std::size_t n : {32, 45, 64, 100, 512}) {
        for (const std::size_t k : {200, 256, 257, 700}) {
          if (m * n * k <= kPackedThreshold) continue;
          for (const std::size_t ldb : {n, n + 7}) {
            const std::size_t tall = m + kExtraRows;
            Rng rng(1000 * m + 10 * n + k + ldb);
            const Tensor a = Tensor::randn({tall, k}, rng);
            const Tensor b = Tensor::randn({k, ldb}, rng);
            const Tensor c0 = Tensor::randn({tall, n}, rng);
            for (const float alpha : {1.0f, 0.75f}) {
              for (const float beta : {0.0f, 1.0f}) {
                Tensor skinny({m, n});
                std::memcpy(skinny.data(), c0.data(), m * n * sizeof(float));
                Tensor oracle = c0;
                msa::tensor::gemm_raw(false, false, m, n, k, alpha, a.data(),
                                      k, b.data(), ldb, beta, skinny.data());
                msa::tensor::gemm_raw(false, false, tall, n, k, alpha,
                                      a.data(), k, b.data(), ldb, beta,
                                      oracle.data());
                ASSERT_EQ(0, std::memcmp(skinny.data(), oracle.data(),
                                         m * n * sizeof(float)))
                    << "threads=" << threads << " m=" << m << " n=" << n
                    << " k=" << k << " ldb=" << ldb << " alpha=" << alpha
                    << " beta=" << beta;
                ++cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 1088u);
}

TEST(TensorPar, SkinnyTransposedGemmMatchesTallProductRows) {
  // With B transposed, a product of at most two 4-row panels packs each
  // column panel by register-tile transposes just before the micro-kernel
  // reads it.  Rows 0..m-1 must match, bit for bit, the tall (m + 12 row)
  // product of the same A with B transposed up front and read untransposed,
  // which shares none of the transposing code.  The tall transposed product
  // (the fully packed path) must match it too.  Covers ragged widths,
  // depths across the 256-deep block with tails shorter than a tile, padded
  // row strides, op(A) transposed or not, alpha != 1 and beta = 1.
  ParGuard guard;
  constexpr std::size_t kExtraRows = 12;
  // Below 48^3 multiply-adds gemm_raw takes the scalar kernel instead
  // (kPackedThreshold in tensor/ops.cpp); only packed shapes compare here.
  constexpr std::size_t kPackedThreshold = 48 * 48 * 48;
  std::size_t cases = 0;
  for (const std::size_t threads : {1, 8}) {
    msa::par::set_num_threads(threads);
    for (std::size_t m = 1; m <= 8; ++m) {
      for (const std::size_t n : {45, 100}) {
        for (const std::size_t k : {200, 203, 256, 257, 700}) {
          if (m * n * k <= kPackedThreshold) continue;
          for (const std::size_t ldb : {k, k + 7}) {
            for (const bool trans_a : {false, true}) {
              const std::size_t tall = m + kExtraRows;
              Rng rng(1000 * m + 10 * n + k + ldb + trans_a);
              // op(A) is tall x k either way; stored k x tall when
              // transposed, so the skinny product reads its first m columns.
              const Tensor a = trans_a ? Tensor::randn({k, tall}, rng)
                                       : Tensor::randn({tall, k}, rng);
              const std::size_t lda = trans_a ? tall : k;
              const Tensor b = Tensor::randn({n, ldb}, rng);
              Tensor bt({k, n});
              for (std::size_t p = 0; p < k; ++p) {
                for (std::size_t j = 0; j < n; ++j) bt.at2(p, j) = b.at2(j, p);
              }
              const Tensor c0 = Tensor::randn({tall, n}, rng);
              for (const float alpha : {1.0f, 0.75f}) {
                for (const float beta : {0.0f, 1.0f}) {
                  Tensor skinny({m, n});
                  std::memcpy(skinny.data(), c0.data(), m * n * sizeof(float));
                  Tensor packed = c0;
                  Tensor oracle = c0;
                  msa::tensor::gemm_raw(trans_a, true, m, n, k, alpha,
                                        a.data(), lda, b.data(), ldb, beta,
                                        skinny.data());
                  msa::tensor::gemm_raw(trans_a, true, tall, n, k, alpha,
                                        a.data(), lda, b.data(), ldb, beta,
                                        packed.data());
                  msa::tensor::gemm_raw(trans_a, false, tall, n, k, alpha,
                                        a.data(), lda, bt.data(), n, beta,
                                        oracle.data());
                  ASSERT_EQ(0, std::memcmp(skinny.data(), oracle.data(),
                                           m * n * sizeof(float)))
                      << "threads=" << threads << " m=" << m << " n=" << n
                      << " k=" << k << " ldb=" << ldb << " trans_a=" << trans_a
                      << " alpha=" << alpha << " beta=" << beta;
                  ASSERT_EQ(0, std::memcmp(packed.data(), oracle.data(),
                                           tall * n * sizeof(float)))
                      << "tall: threads=" << threads << " m=" << m
                      << " n=" << n << " k=" << k << " ldb=" << ldb;
                  ++cases;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 832u);
}

TEST(TensorPar, TransposeMatchesNaive) {
  ParGuard guard;
  msa::par::set_num_threads(4);
  Rng rng(5);
  const Tensor a = Tensor::randn({67, 45}, rng);
  const Tensor t = msa::tensor::transpose(a);
  ASSERT_EQ(t.dim(0), 45u);
  ASSERT_EQ(t.dim(1), 67u);
  for (std::size_t i = 0; i < a.dim(0); ++i) {
    for (std::size_t j = 0; j < a.dim(1); ++j) {
      ASSERT_EQ(a.at2(i, j), t.at2(j, i));
    }
  }
}

// Runs one Conv2D forward + backward with a fixed seed and returns all
// observable outputs (y, gx, gw, gb) concatenated.
std::vector<float> conv_run(std::size_t threads) {
  msa::par::set_num_threads(threads);
  Rng wrng(42);
  msa::nn::Conv2D conv(3, 8, 3, 1, 1, wrng);
  Rng xrng(77);
  const Tensor x = Tensor::randn({5, 3, 13, 11}, xrng);
  const Tensor y = conv.forward(x, true);
  Rng grng(99);
  const Tensor g = Tensor::randn(y.shape(), grng);
  const Tensor gx = conv.backward(g);
  std::vector<float> out;
  auto append = [&out](const Tensor& t) {
    out.insert(out.end(), t.data(), t.data() + t.numel());
  };
  append(y);
  append(gx);
  for (const Tensor* grad : conv.grads()) append(*grad);
  return out;
}

TEST(TensorPar, Conv2DBitIdenticalAcrossThreadCounts) {
  ParGuard guard;
  const std::vector<float> r1 = conv_run(1);
  const std::vector<float> r8 = conv_run(8);
  ASSERT_EQ(r1.size(), r8.size());
  ASSERT_EQ(0,
            std::memcmp(r1.data(), r8.data(), r1.size() * sizeof(float)));
}

TEST(TensorPar, ParallelForCoversRangeOnce) {
  ParGuard guard;
  msa::par::set_num_threads(8);
  std::vector<int> hits(10001, 0);
  msa::par::parallel_for(0, hits.size(), 37,
                         [&](std::size_t b, std::size_t e) {
                           for (std::size_t i = b; i < e; ++i) ++hits[i];
                         });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(1, hits[i]) << i;
}

TEST(TensorPar, ChunkDecompositionIndependentOfThreads) {
  ParGuard guard;
  auto chunks_of = [](std::size_t threads) {
    msa::par::set_num_threads(threads);
    std::vector<std::vector<std::size_t>> chunks(
        msa::par::chunk_count(0, 23, 5));
    msa::par::parallel_for_chunked(
        0, 23, 5, [&](std::size_t c, std::size_t b, std::size_t e) {
          chunks[c] = {b, e};
        });
    return chunks;
  };
  ASSERT_EQ(chunks_of(1), chunks_of(8));
}

TEST(TensorPar, NestedParallelForRunsInline) {
  ParGuard guard;
  msa::par::set_num_threads(4);
  std::vector<int> hits(256, 0);
  msa::par::parallel_for(0, 16, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      msa::par::parallel_for(0, 16, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[o * 16 + i];
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(1, hits[i]) << i;
}

}  // namespace
