#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace msa::tensor {

namespace {
constexpr std::size_t kBlock = 64;  // scalar-fallback cache block
constexpr std::size_t kMR = 4;      // micro-kernel rows
// Micro-kernel width: 4 x kNR accumulators must fit the register file of
// the SIMD ISA this TU is compiled for, with room left for operand loads.
// 8 accumulator vectors also cover FMA latency on all three tiers.
#if defined(__AVX512F__)
constexpr std::size_t kNR = 32;  // 8 zmm accumulators
#elif defined(__AVX__)
constexpr std::size_t kNR = 16;  // 8 ymm accumulators
#else
constexpr std::size_t kNR = 8;  // 8 xmm accumulators (SSE2 baseline)
#endif
constexpr std::size_t kKC = 256;  // packed-panel depth
// Transposed B is packed in square kT x kT tiles, one native SIMD vector per
// tile row, so a kNR-wide panel is two tiles across.
constexpr std::size_t kT = kNR / 2;
using TileRow = float __attribute__((vector_size(kT * sizeof(float))));
// Least work, in micro-kernel multiply-adds, of one chunk of a skinny
// product's column panels: smaller products stay on the calling thread,
// where waking the pool would cost more than it saves.
constexpr std::size_t kSkinnyChunkMacs = 1 << 19;
// Below this many multiply-adds the packing overhead dominates; use the
// serial scalar kernel.
constexpr std::size_t kPackedThreshold = 48 * 48 * 48;

bool uses_packed(std::size_t m, std::size_t n, std::size_t k) {
  return m * n * k > kPackedThreshold;
}

// Scale C by beta (beta == 1 is the caller's no-op case).
void scale_c(float* C, std::size_t count, float beta) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::memset(C, 0, count * sizeof(float));
    return;
  }
  par::parallel_for(0, count, 1 << 15, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) C[i] *= beta;
  });
}

// Serial cache-blocked scalar kernel, branch-free inner loop.  Handles all
// four transpose combinations via accessor lambdas; used for problems too
// small to amortise packing.
void gemm_scalar(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* A, std::size_t lda,
                 const float* B, std::size_t ldb, float* C) {
  auto a_at = [&](std::size_t i, std::size_t p) {
    return trans_a ? A[p * lda + i] : A[i * lda + p];
  };
  auto b_at = [&](std::size_t p, std::size_t j) {
    return trans_b ? B[j * ldb + p] : B[p * ldb + j];
  };

  // Fast path: no transposes — blocked i-k-j with contiguous inner loop.
  if (!trans_a && !trans_b) {
    for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
      const std::size_t i1 = std::min(i0 + kBlock, m);
      for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
        const std::size_t p1 = std::min(p0 + kBlock, k);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t p = p0; p < p1; ++p) {
            const float av = alpha * A[i * lda + p];
            const float* brow = B + p * ldb;
            float* crow = C + i * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
    return;
  }

  for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, m);
    for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
      const std::size_t j1 = std::min(j0 + kBlock, n);
      for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
        const std::size_t p1 = std::min(p0 + kBlock, k);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t j = j0; j < j1; ++j) {
            float acc = 0.0f;
            for (std::size_t p = p0; p < p1; ++p) acc += a_at(i, p) * b_at(p, j);
            C[i * n + j] += alpha * acc;
          }
        }
      }
    }
  }
}

// Pack one kMR-row micro-panel of alpha * op(A) for depth [p0, p1), rows
// [i0, i0 + kMR) clamped to m and zero-padded, laid out so the micro-kernel
// reads kMR consecutive floats per depth step.
void pack_a_panel(const float* A, std::size_t lda, bool trans, float alpha,
                  std::size_t i0, std::size_t m, std::size_t p0,
                  std::size_t p1, float* Ap) {
  const std::size_t kc = p1 - p0;
  const std::size_t mr = std::min(kMR, m - i0);
  for (std::size_t p = 0; p < kc; ++p) {
    const std::size_t pp = p0 + p;
    float* dst = Ap + p * kMR;
    for (std::size_t r = 0; r < mr; ++r) {
      const std::size_t i = i0 + r;
      dst[r] = alpha * (trans ? A[pp * lda + i] : A[i * lda + pp]);
    }
    for (std::size_t r = mr; r < kMR; ++r) dst[r] = 0.0f;
  }
}

// Butterfly step D of a tile transpose: rows i and i + D (bit D of i clear)
// trade the lanes whose index has bit D set, which swaps bit D of the row
// index with bit D of the lane index.  Steps 1, 2, ..., kT / 2 swap them
// all: element (i, j) ends at (j, i).
template <std::size_t D, std::size_t... J>
inline void transpose_step(TileRow (&r)[kT], std::index_sequence<J...>) {
#pragma GCC unroll 16
  for (std::size_t i = 0; i < kT; ++i) {
    if (i & D) continue;
    const TileRow x = r[i];
    const TileRow y = r[i + D];
    r[i] = __builtin_shufflevector(x, y, ((J & D) ? kT + (J ^ D) : J)...);
    r[i + D] = __builtin_shufflevector(x, y, ((J & D) ? kT + J : J ^ D)...);
  }
}

template <std::size_t D = 1>
inline void transpose_tile(TileRow (&r)[kT]) {
  transpose_step<D>(r, std::make_index_sequence<kT>{});
  if constexpr (2 * D < kT) transpose_tile<2 * D>(r);
}

// Pack kNR columns [j0, j0 + kNR) of op(B) = B^T for the whole tiles of
// depth [p0, p0 + kc): kT rows of B are read at a time, transposed in
// registers and stored as whole panel rows.  Returns the depth packed.
std::size_t pack_bt_tiles(const float* B, std::size_t ldb, std::size_t p0,
                          std::size_t kc, std::size_t j0, float* dst) {
  const std::size_t tiled = kc - kc % kT;
  for (std::size_t p = 0; p < tiled; p += kT) {
    for (std::size_t h = 0; h < kNR; h += kT) {
      TileRow r[kT];
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kT; ++t) {
        std::memcpy(&r[t], B + (j0 + h + t) * ldb + p0 + p, sizeof(TileRow));
      }
      transpose_tile(r);
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kT; ++t) {
        std::memcpy(dst + (p + t) * kNR + h, &r[t], sizeof(TileRow));
      }
    }
  }
  return tiled;
}

// Pack columns [j0, j0 + jn) of op(B), jn <= kNR, for depth [p0, p0 + kc)
// into one kc x kNR panel, zero-padded in the column direction.  With B
// transposed, a full panel goes through register tiles and the depth they
// leave (and all of a ragged panel) is copied along the rows of B.
void pack_b_panel(const float* B, std::size_t ldb, bool trans, std::size_t p0,
                  std::size_t kc, std::size_t j0, std::size_t jn,
                  float* dst) {
  if (!trans) {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = B + (p0 + p) * ldb + j0;
      float* d = dst + p * kNR;
      for (std::size_t jr = 0; jr < jn; ++jr) d[jr] = src[jr];
      for (std::size_t jr = jn; jr < kNR; ++jr) d[jr] = 0.0f;
    }
    return;
  }
  const std::size_t done =
      jn == kNR ? pack_bt_tiles(B, ldb, p0, kc, j0, dst) : 0;
  for (std::size_t jr = 0; jr < jn; ++jr) {
    const float* src = B + (j0 + jr) * ldb + p0;
    for (std::size_t p = done; p < kc; ++p) dst[p * kNR + jr] = src[p];
  }
  for (std::size_t p = done; p < kc; ++p) {
    for (std::size_t jr = jn; jr < kNR; ++jr) dst[p * kNR + jr] = 0.0f;
  }
}

// Pack op(B) rows [p0, p1) across the full width n into kNR-wide panels.
void pack_b(const float* B, std::size_t ldb, bool trans, std::size_t p0,
            std::size_t p1, std::size_t n, float* Bp) {
  const std::size_t kc = p1 - p0;
  const std::size_t npanels = (n + kNR - 1) / kNR;
  par::parallel_for(0, npanels, 4, [&](std::size_t jb, std::size_t je) {
    for (std::size_t jp = jb; jp < je; ++jp) {
      const std::size_t j0 = jp * kNR;
      pack_b_panel(B, ldb, trans, p0, kc, j0, std::min(kNR, n - j0),
                   Bp + jp * kc * kNR);
    }
  });
}

// kMR x kNR register-blocked micro-kernel: acc = Ap * Bp over kc depth
// steps, where depth step p's kNR columns start at Bp + p * ldb (kNR for a
// packed panel, the caller's row stride for B read in place).  No
// data-dependent branches; the j loop is one vector op under -march=native.
inline void microkernel(const float* Ap, const float* Bp, std::size_t ldb,
                        std::size_t kc, float acc[kMR][kNR]) {
  for (std::size_t r = 0; r < kMR; ++r) {
    for (std::size_t j = 0; j < kNR; ++j) acc[r][j] = 0.0f;
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = Ap + p * kMR;
    const float* b = Bp + p * ldb;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = a[r];
      for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * b[j];
    }
  }
}

// C rows [i0, i0 + mr), columns [j0, j0 + jn) += the micro-kernel tile.
inline void add_tile(const float acc[kMR][kNR], std::size_t mr,
                     std::size_t jn, float* C, std::size_t n, std::size_t i0,
                     std::size_t j0) {
  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = C + (i0 + r) * n + j0;
    for (std::size_t jr = 0; jr < jn; ++jr) crow[jr] += acc[r][jr];
  }
}

// Skinny products (at most two row panels: serving batches, pipeline
// microbatches) read each B panel only once or twice, so copying all of
// op(B) costs more than the kernel saves by reading it packed.  Instead the
// column panels are split into chunks, each owning disjoint C columns and
// walking the kKC depth blocks in order.  Per block, a full-width panel of a
// non-transposed B is read in place at stride ldb; a transposed or ragged
// one is packed into a stack-held, L1-resident kc x kNR buffer just before
// the micro-kernel reads it.  Every C element sums the same products in
// the same order over the same blocks as in gemm_packed, so the two paths
// agree bit for bit.
void gemm_skinny(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* A, std::size_t lda,
                 const float* B, std::size_t ldb, float* C) {
  const std::size_t npanels_n = (n + kNR - 1) / kNR;
  const std::size_t nrow_panels = (m + kMR - 1) / kMR;
  // At most one chunk per pool thread: a chunk reads its own column strip
  // of B, and on one thread, two strips run one after the other measured
  // up to 1.5x slower than one pass over whole rows of B.  Chunks own
  // disjoint C columns, so the split moves no bit.
  const std::size_t chunks = std::clamp<std::size_t>(
      std::min(nrow_panels * kMR * npanels_n * kNR * k / kSkinnyChunkMacs,
               par::num_threads()),
      1, npanels_n);
  const std::size_t grain = (npanels_n + chunks - 1) / chunks;
  par::parallel_for(0, npanels_n, grain, [&](std::size_t jb, std::size_t je) {
    alignas(64) float Ap[2][kKC * kMR];
    alignas(64) float Bp[kKC * kNR];
    float acc[kMR][kNR];
    for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
      const std::size_t p1 = std::min(k, p0 + kKC);
      const std::size_t kc = p1 - p0;
      for (std::size_t rp = 0; rp < nrow_panels; ++rp) {
        pack_a_panel(A, lda, trans_a, alpha, rp * kMR, m, p0, p1, Ap[rp]);
      }
      for (std::size_t jp = jb; jp < je; ++jp) {
        const std::size_t j0 = jp * kNR;
        const std::size_t jn = std::min(kNR, n - j0);
        const bool in_place = !trans_b && jn == kNR;
        if (!in_place) pack_b_panel(B, ldb, trans_b, p0, kc, j0, jn, Bp);
        for (std::size_t rp = 0; rp < nrow_panels; ++rp) {
          if (in_place) {
            microkernel(Ap[rp], B + p0 * ldb + j0, ldb, kc, acc);
          } else {
            microkernel(Ap[rp], Bp, kNR, kc, acc);
          }
          add_tile(acc, std::min(kMR, m - rp * kMR), jn, C, n, rp * kMR, j0);
        }
      }
    }
  });
}

// Packed path: pack op(B) per depth block, then parallelise row panels of C
// across the pool.  Each chunk owns disjoint C rows and the depth-block
// order is fixed, so the result is bit-identical for any pool size.  The
// skinny rule stops at two row panels: taller products read each panel
// many times, and reading those in place measured 20-60 % slower (1024^3,
// 64 x 2048 x 2048, 128 x 4096 x 256) than reading one contiguous copy.
void gemm_packed(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* A, std::size_t lda,
                 const float* B, std::size_t ldb, float* C) {
  const std::size_t npanels_n = (n + kNR - 1) / kNR;
  const std::size_t nrow_panels = (m + kMR - 1) / kMR;
  if (nrow_panels <= 2) {
    gemm_skinny(trans_a, trans_b, m, n, k, alpha, A, lda, B, ldb, C);
    return;
  }
  // Left uninitialised: pack_b writes every float of a depth block before
  // the micro-kernel reads it.  On the heap, not in the scratch arena,
  // where it would stay resident on every rank thread.
  const auto Bp_buf = std::make_unique_for_overwrite<float[]>(
      std::min(kKC, k) * npanels_n * kNR);
  float* Bp = Bp_buf.get();
  for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
    const std::size_t p1 = std::min(k, p0 + kKC);
    const std::size_t kc = p1 - p0;
    pack_b(B, ldb, trans_b, p0, p1, n, Bp);
    par::parallel_for(0, nrow_panels, 4, [&](std::size_t rb, std::size_t re) {
      par::Scratch scratch;
      float* Ap = scratch.floats(kc * kMR);
      float acc[kMR][kNR];
      for (std::size_t rp = rb; rp < re; ++rp) {
        const std::size_t i0 = rp * kMR;
        pack_a_panel(A, lda, trans_a, alpha, i0, m, p0, p1, Ap);
        for (std::size_t jp = 0; jp < npanels_n; ++jp) {
          microkernel(Ap, Bp + jp * kc * kNR, kNR, kc, acc);
          const std::size_t j0 = jp * kNR;
          add_tile(acc, std::min(kMR, m - i0), std::min(kNR, n - j0), C, n,
                   i0, j0);
        }
      }
    });
  }
}

}  // namespace

void gemm_raw(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
              std::size_t k, float alpha, const float* A, std::size_t lda,
              const float* B, std::size_t ldb, float beta, float* C) {
  obs::ScopedSpan span(obs::Category::Compute, "gemm", /*bytes=*/0,
                       static_cast<std::uint64_t>(gemm_flops(m, n, k)));
  scale_c(C, m * n, beta);
  if (!uses_packed(m, n, k)) {
    gemm_scalar(trans_a, trans_b, m, n, k, alpha, A, lda, B, ldb, C);
  } else {
    gemm_packed(trans_a, trans_b, m, n, k, alpha, A, lda, B, ldb, C);
  }
}

bool gemm_widening_exact(bool trans_a, bool trans_b, std::size_t m,
                         std::size_t n, std::size_t n_wide, std::size_t k) {
  if (uses_packed(m, n, k) == uses_packed(m, n_wide, k)) return true;
  // Scalar at n, packed at n_wide.  The packed kernel restarts its
  // accumulator every kKC depth steps; the no-transpose scalar kernel
  // accumulates straight into C over the whole depth, the others restart
  // every kBlock steps.  The chains agree only within one block of both.
  return k <= ((trans_a || trans_b) ? kBlock : kKC);
}

void gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c) {
  if (a.ndim() != 2 || b.ndim() != 2 || c.ndim() != 2) {
    throw std::invalid_argument("gemm: all operands must be 2-D");
  }
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t kb = trans_b ? b.dim(1) : b.dim(0);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  if (k != kb || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm: dimension mismatch");
  }
  gemm_raw(trans_a, trans_b, m, n, k, alpha, a.data(), a.dim(1), b.data(),
           b.dim(1), beta, c.data());
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  gemm(false, false, 1.0f, a, b, 0.0f, c);
  return c;
}

Tensor transpose(const Tensor& a) {
  if (a.ndim() != 2) throw std::invalid_argument("transpose: need 2-D");
  const std::size_t rows = a.dim(0), cols = a.dim(1);
  Tensor t({cols, rows});
  const float* src = a.data();
  float* dst = t.data();
  // Cache-blocked tile copy, parallel over source-row blocks (each block
  // writes a disjoint set of destination columns).
  constexpr std::size_t kTile = 32;
  const std::size_t row_blocks = (rows + kTile - 1) / kTile;
  par::parallel_for(0, row_blocks, 2, [&](std::size_t bb, std::size_t be) {
    for (std::size_t rb = bb; rb < be; ++rb) {
      const std::size_t i0 = rb * kTile;
      const std::size_t i1 = std::min(i0 + kTile, rows);
      for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
        const std::size_t j1 = std::min(j0 + kTile, cols);
        for (std::size_t i = i0; i < i1; ++i) {
          const float* srow = src + i * cols;
          for (std::size_t j = j0; j < j1; ++j) dst[j * rows + i] = srow[j];
        }
      }
    }
  });
  return t;
}

double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

std::size_t conv_out_size(std::size_t in, std::size_t kernel,
                          std::size_t stride, std::size_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

namespace {
// Output positions o in [lo, hi) whose input index o*stride + tap - pad lies
// inside [0, extent), clamped to [0, out); lo <= hi always.  With
// pad >= kernel or tap >= extent + pad the bounds fall outside [0, out),
// and pad - tap or extent + pad - tap would wrap if taken unguarded.
struct Span {
  std::size_t lo, hi;
};

Span inside_span(std::size_t extent, std::size_t out, std::size_t tap,
                 std::size_t stride, std::size_t pad) {
  const std::size_t lo = tap >= pad ? 0 : (pad - tap + stride - 1) / stride;
  const std::size_t hi =
      tap >= extent + pad ? 0 : (extent + pad - tap + stride - 1) / stride;
  return {std::min(lo, out), std::min(hi, out)};
}
}  // namespace

// Both walk the column rows in (c, kh, kw) order and, per output row, touch
// only the in-bounds column span [cs.lo, cs.hi): one contiguous run of the
// input row when stride == 1, a strided one otherwise.
void im2col(const float* input, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel_h, std::size_t kernel_w,
            std::size_t stride, std::size_t pad, float* columns,
            std::size_t ld) {
  const std::size_t out_h = conv_out_size(height, kernel_h, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel_w, stride, pad);
  if (ld == 0) ld = out_h * out_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t kh = 0; kh < kernel_h; ++kh) {
      const Span rs = inside_span(height, out_h, kh, stride, pad);
      for (std::size_t kw = 0; kw < kernel_w; ++kw, ++row) {
        const Span cs = inside_span(width, out_w, kw, stride, pad);
        float* col_row = columns + row * ld;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          float* dst = col_row + oh * out_w;
          if (oh < rs.lo || oh >= rs.hi || cs.lo == cs.hi) {
            std::fill(dst, dst + out_w, 0.0f);
            continue;
          }
          const float* src = input +
                             (c * height + oh * stride + kh - pad) * width +
                             cs.lo * stride + kw - pad;
          std::fill(dst, dst + cs.lo, 0.0f);
          if (stride == 1) {
            std::copy(src, src + (cs.hi - cs.lo), dst + cs.lo);
          } else {
            for (std::size_t j = cs.lo; j < cs.hi; ++j) {
              dst[j] = src[(j - cs.lo) * stride];
            }
          }
          std::fill(dst + cs.hi, dst + out_w, 0.0f);
        }
      }
    }
  }
}

void col2im(const float* columns, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel_h, std::size_t kernel_w,
            std::size_t stride, std::size_t pad, float* input_grad,
            std::size_t ld) {
  const std::size_t out_h = conv_out_size(height, kernel_h, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel_w, stride, pad);
  if (ld == 0) ld = out_h * out_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t kh = 0; kh < kernel_h; ++kh) {
      const Span rs = inside_span(height, out_h, kh, stride, pad);
      for (std::size_t kw = 0; kw < kernel_w; ++kw, ++row) {
        const Span cs = inside_span(width, out_w, kw, stride, pad);
        if (cs.lo == cs.hi) continue;
        const float* col_row = columns + row * ld;
        for (std::size_t oh = rs.lo; oh < rs.hi; ++oh) {
          const float* src = col_row + oh * out_w + cs.lo;
          float* dst = input_grad +
                       (c * height + oh * stride + kh - pad) * width +
                       cs.lo * stride + kw - pad;
          const std::size_t n = cs.hi - cs.lo;
          if (stride == 1) {
            for (std::size_t j = 0; j < n; ++j) dst[j] += src[j];
          } else {
            for (std::size_t j = 0; j < n; ++j) dst[j * stride] += src[j];
          }
        }
      }
    }
  }
}

void softmax_rows(Tensor& logits) {
  if (logits.ndim() != 2) throw std::invalid_argument("softmax_rows: need 2-D");
  const std::size_t rows = logits.dim(0);
  const std::size_t cols = logits.dim(1);
  float* d = logits.data();
  par::parallel_for(0, rows, 16, [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      float* row = d + r * cols;
      const float mx = *std::max_element(row, row + cols);
      float denom = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) {
        row[c] = std::exp(row[c] - mx);
        denom += row[c];
      }
      const float inv = 1.0f / denom;
      for (std::size_t c = 0; c < cols; ++c) row[c] *= inv;
    }
  });
}

}  // namespace msa::tensor
