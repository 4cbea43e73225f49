// AVX2 backend. This TU is the only one built with -mavx2 (and without
// FMA contraction — see CMakeLists.txt): everything else in the library
// stays baseline-x86-64 so the binary runs on any CPU, and dispatch only
// routes here after __builtin_cpu_supports("avx2") says it may.
//
// Vectorization strategy (docs/kernels.md):
//   * gemm_batch: each (sample, row) output is one dot product: 8-lane
//     partial sums, a horizontal reduction, the scalar tail, then the bias
//     — re-associates the sum, agreement with scalar bounded by
//     kGemmUlpBound. Rows go eight at a time, reduced with a lane-exact
//     8-way hsum, while the samples stream past.
//   * gemm_backward_batch: bitwise equal to scalar. Every lane does the
//     scalar multiply-then-add in the scalar order; up to 64 gradient
//     columns sit in registers while the (nonzero) samples or rows stream
//     past in order. Narrow shapes turn the lanes around so that enough
//     add chains are in flight: a grad_w of fewer than 32 columns carries
//     eight rows per vector, and a grad_x column range of fewer than 16
//     columns carries eight samples per vector.
//   * adam_update: bitwise equal to the scalar loop; groups of eight lanes
//     whose first moment is subnormal or nearly so are kept exactly or
//     emulated in double, so no instruction sees a subnormal operand.
#include "nn/kernels/kernels.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/contracts.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace imx::nn::kernels {

bool avx2_kernels_compiled() {
#if defined(__AVX2__)
    return true;
#else
    return false;
#endif
}

}  // namespace imx::nn::kernels

namespace imx::nn::kernels::detail {

#if defined(__AVX2__)

namespace {

/// Per-thread scratch, reused across calls so the hot path never allocates
/// after warm-up.
std::vector<float>& scratch() {
    thread_local std::vector<float> buffer;
    return buffer;
}

inline float hsum(__m256 v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    return _mm_cvtss_f32(s);
}

/// hsum of eight vectors at once: lane k is bitwise hsum(a[k]). Pairing
/// a[k] with a[k+4] folds lo+hi for two inputs per 256-bit add; the in-lane
/// 4x4 transpose then lines up each input's four partial sums s0..s3, so
/// the (s0+s2) + (s1+s3) adds happen in hsum's order, lane by lane.
inline __m256 hsum8(const __m256 a[8]) {
    __m256 s[4];
    for (int k = 0; k < 4; ++k) {
        s[k] = _mm256_add_ps(_mm256_permute2f128_ps(a[k], a[k + 4], 0x20),
                             _mm256_permute2f128_ps(a[k], a[k + 4], 0x31));
    }
    const __m256 t0 = _mm256_unpacklo_ps(s[0], s[1]);
    const __m256 t1 = _mm256_unpacklo_ps(s[2], s[3]);
    const __m256 t2 = _mm256_unpackhi_ps(s[0], s[1]);
    const __m256 t3 = _mm256_unpackhi_ps(s[2], s[3]);
    const __m256 c0 = _mm256_shuffle_ps(t0, t1, 0x44);
    const __m256 c1 = _mm256_shuffle_ps(t0, t1, 0xEE);
    const __m256 c2 = _mm256_shuffle_ps(t2, t3, 0x44);
    const __m256 c3 = _mm256_shuffle_ps(t2, t3, 0xEE);
    return _mm256_add_ps(_mm256_add_ps(c0, c2), _mm256_add_ps(c1, c3));
}

/// One gemm dot product without the bias: the 8-lane partial sums, hsum,
/// then the scalar tail in column order.
inline float dot1(const float* wrow, const float* x, int in_f) {
    __m256 acc = _mm256_setzero_ps();
    int c = 0;
    for (; c + 8 <= in_f; c += 8) {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(wrow + c),
                                               _mm256_loadu_ps(x + c)));
    }
    float sum = hsum(acc);
    for (; c < in_f; ++c) sum += wrow[c] * x[c];
    return sum;
}

/// A gradient accumulation's terms: term i adds `scale[i] * row(i)[c]`,
/// where row(i) = base + index[i] * ld.
struct Terms {
    const float* scale;
    const std::int32_t* index;
    const float* base;
    std::size_t ld;

    [[nodiscard]] const float* row(int i) const {
        return base + static_cast<std::size_t>(index[i]) * ld;
    }
};

/// For each 8-bit mask: its set bits, lowest first, and their count.
struct LeftPack {
    alignas(32) std::int32_t lanes[256][8];
    int count[256];
};

constexpr LeftPack make_left_pack() {
    LeftPack table{};
    for (int mask = 0; mask < 256; ++mask) {
        int k = 0;
        for (int bit = 0; bit < 8; ++bit) {
            if ((mask >> bit) & 1) table.lanes[mask][k++] = bit;
        }
        table.count[mask] = k;
    }
    return table;
}

constexpr LeftPack kLeftPack = make_left_pack();

/// The zero-gradient skip as a compacted term list: writes the i < n with
/// g[i] != 0 (NaN included), in order, to index and their g[i] to scale,
/// and returns their count. Both buffers need n + 8 entries.
int compact_nonzero(const float* g, int n, float* scale, std::int32_t* index) {
    int count = 0;
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(g + i);
        const int mask = _mm256_movemask_ps(
            _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_NEQ_UQ));
        const __m256i pick = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(kLeftPack.lanes[mask]));
        _mm256_storeu_ps(scale + count, _mm256_permutevar8x32_ps(v, pick));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(index + count),
            _mm256_add_epi32(pick, _mm256_set1_epi32(i)));
        count += kLeftPack.count[mask];
    }
    for (; i < n; ++i) {
        scale[count] = g[i];
        index[count] = i;
        count += g[i] != 0.0F ? 1 : 0;
    }
    return count;
}

/// Per-thread term-list buffers.
struct TermScratch {
    std::vector<float> scale;
    std::vector<std::int32_t> index;
};

TermScratch& term_scratch(std::size_t n) {
    thread_local TermScratch scratch;
    scratch.scale.resize(n + 8);
    scratch.index.resize(n + 8);
    return scratch;
}

/// Lanes [0, count) set.
inline __m256i tail_mask(int count) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(count),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// dst[c] += terms.scale[i] * terms.row(i)[c] for i in order, over the
/// columns [c0, c0 + 8*NV) plus `tail` masked columns when kTail. The
/// block lives in NV (+1) registers across the whole term list — one
/// dependency chain per register — and every lane performs exactly the
/// scalar kernel's `dst + scale*row` sequence.
template <int NV, bool kTail>
void accumulate_block(const Terms& terms, int n, int c0, int tail,
                      float* dst) {
    constexpr int kVecs = NV + (kTail ? 1 : 0);
    static_assert(kVecs > 0 && NV <= 8, "block of 1..8 vectors (+ tail)");
    const __m256i mask = tail_mask(tail);
    __m256 acc[kVecs];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_ps(dst + c0 + 8 * v);
    if constexpr (kTail) acc[NV] = _mm256_maskload_ps(dst + c0 + 8 * NV, mask);
    for (int i = 0; i < n; ++i) {
        const __m256 scale = _mm256_set1_ps(terms.scale[i]);
        const float* row = terms.row(i) + c0;
        for (int v = 0; v < NV; ++v) {
            acc[v] = _mm256_add_ps(
                acc[v], _mm256_mul_ps(scale, _mm256_loadu_ps(row + 8 * v)));
        }
        if constexpr (kTail) {
            acc[NV] = _mm256_add_ps(
                acc[NV],
                _mm256_mul_ps(scale, _mm256_maskload_ps(row + 8 * NV, mask)));
        }
    }
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(dst + c0 + 8 * v, acc[v]);
    if constexpr (kTail) _mm256_maskstore_ps(dst + c0 + 8 * NV, mask, acc[NV]);
}

/// The last (< 64 column) block: `nv` full vectors plus `tail` columns.
template <int NV>
void accumulate_last_block(int nv, int tail, const Terms& terms, int n,
                           int c0, float* dst) {
    if constexpr (NV < 8) {
        if (nv != NV) {
            accumulate_last_block<NV + 1>(nv, tail, terms, n, c0, dst);
        } else if (tail > 0) {
            accumulate_block<NV, true>(terms, n, c0, tail, dst);
        } else if constexpr (NV > 0) {
            accumulate_block<NV, false>(terms, n, c0, 0, dst);
        }
    }
}

/// dst[0..width) += sum_i terms.scale[i] * terms.row(i)[...], in order.
void accumulate_columns(const Terms& terms, int n, int width, float* dst) {
    int c = 0;
    for (; c + 64 <= width; c += 64) {
        accumulate_block<8, false>(terms, n, c, 0, dst);
    }
    const int rest = width - c;
    accumulate_last_block<0>(rest / 8, rest % 8, terms, n, c, dst);
}

/// Below this many input columns a grad_w row holds too few registers to
/// hide the add latency, and below half of it grad_x columns go across
/// the samples (grad_x_columns).
constexpr int kNarrowWidth = 32;

/// 8x8 transpose in registers: row k of the result is column k of `r`.
void transpose8(__m256 r[8]) {
    __m256 t[8];
    for (int k = 0; k < 4; ++k) {
        t[2 * k] = _mm256_unpacklo_ps(r[2 * k], r[2 * k + 1]);
        t[2 * k + 1] = _mm256_unpackhi_ps(r[2 * k], r[2 * k + 1]);
    }
    __m256 u[8];
    for (int k = 0; k < 2; ++k) {
        u[4 * k] = _mm256_shuffle_ps(t[4 * k], t[4 * k + 2], 0x44);
        u[4 * k + 1] = _mm256_shuffle_ps(t[4 * k], t[4 * k + 2], 0xEE);
        u[4 * k + 2] = _mm256_shuffle_ps(t[4 * k + 1], t[4 * k + 3], 0x44);
        u[4 * k + 3] = _mm256_shuffle_ps(t[4 * k + 1], t[4 * k + 3], 0xEE);
    }
    for (int k = 0; k < 4; ++k) {
        r[k] = _mm256_permute2f128_ps(u[k], u[k + 4], 0x20);
        r[k + 4] = _mm256_permute2f128_ps(u[k], u[k + 4], 0x31);
    }
}

/// One grad_w term where its sample's gradient `go` is nonzero, else -0.0f,
/// which adds as an exact no-op to every value (-0 included). NaN
/// gradients contribute, as the scalar `go == 0` skip lets them.
struct SkipZero {
    explicit SkipZero(__m256 go)
        : keep(_mm256_cmp_ps(go, _mm256_setzero_ps(), _CMP_NEQ_UQ)),
          no_op(_mm256_andnot_ps(keep, _mm256_set1_ps(-0.0F))) {}
    [[nodiscard]] __m256 term(__m256 product) const {
        return _mm256_or_ps(_mm256_and_ps(keep, product), no_op);
    }
    __m256 keep;
    __m256 no_op;
};

/// grad_w rows [r0, r0+8), columns [c0, c0+NC): lanes carry the eight
/// rows and one register per column holds their running sums while the
/// samples stream past in order, so each element sees the scalar kernel's
/// add sequence, with NC independent chains in flight. Unless
/// kMasked, zero-gradient terms are added unmasked: go * x is then +-0,
/// an exact no-op on a sum that is not -0, which holds when every x is
/// finite and no seed is -0 (grad_w_rows8 checks; a sum that is not -0
/// never becomes -0).
template <int NC, bool kMasked>
void grad_w_block(int batch, int out_f, int in_f, int r0, int c0,
                  const float* x, const float* gy, float* gw) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t out = static_cast<std::size_t>(out_f);
    float* base = gw + static_cast<std::size_t>(r0) * in +
                  static_cast<std::size_t>(c0);
    // The 8 x NC block, transposed into one register per column.
    const __m256i columns = tail_mask(NC);
    __m256 acc[8];
    for (std::size_t k = 0; k < 8; ++k) {
        acc[k] = _mm256_maskload_ps(base + k * in, columns);
    }
    transpose8(acc);
    const float* gy_r0 = gy + static_cast<std::size_t>(r0);
    const float* x_c0 = x + static_cast<std::size_t>(c0);
    for (std::size_t s = 0; s < static_cast<std::size_t>(batch); ++s) {
        const __m256 go = _mm256_loadu_ps(gy_r0 + s * out);
        const SkipZero skip(go);
        const float* xs = x_c0 + s * in;
        for (int c = 0; c < NC; ++c) {
            const __m256 product =
                _mm256_mul_ps(go, _mm256_broadcast_ss(xs + c));
            acc[c] = _mm256_add_ps(acc[c],
                                   kMasked ? skip.term(product) : product);
        }
    }
    transpose8(acc);
    for (std::size_t k = 0; k < 8; ++k) {
        _mm256_maskstore_ps(base + k * in, columns, acc[k]);
    }
}

/// Does any of the n floats at p match `bits` under `mask`?
bool any_bits(const float* p, std::size_t n, std::uint32_t mask,
              std::uint32_t bits) {
    const __m256i m = _mm256_set1_epi32(static_cast<int>(mask));
    const __m256i b = _mm256_set1_epi32(static_cast<int>(bits));
    __m256i hit = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(p + i));
        hit = _mm256_or_si256(hit,
                              _mm256_cmpeq_epi32(_mm256_and_si256(v, m), b));
    }
    bool any = _mm256_testz_si256(hit, hit) == 0;
    for (; i < n; ++i) {
        std::uint32_t v = 0;
        std::memcpy(&v, p + i, sizeof v);
        any = any || (v & mask) == bits;
    }
    return any;
}

/// grad_w rows [r0, r0+8) of a narrow layer, eight columns at a time.
/// `x_finite`: no x is inf or NaN.
void grad_w_rows8(int batch, int out_f, int in_f, int r0, const float* x,
                  bool x_finite, const float* gy, float* gw) {
    using Block = void (*)(int, int, int, int, int, const float*,
                           const float*, float*);
    static constexpr Block kPlain[8] = {
        grad_w_block<1, false>, grad_w_block<2, false>,
        grad_w_block<3, false>, grad_w_block<4, false>,
        grad_w_block<5, false>, grad_w_block<6, false>,
        grad_w_block<7, false>, grad_w_block<8, false>};
    static constexpr Block kMasked[8] = {
        grad_w_block<1, true>, grad_w_block<2, true>, grad_w_block<3, true>,
        grad_w_block<4, true>, grad_w_block<5, true>, grad_w_block<6, true>,
        grad_w_block<7, true>, grad_w_block<8, true>};
    const std::size_t block = 8 * static_cast<std::size_t>(in_f);
    const bool plain =
        x_finite && !any_bits(gw + static_cast<std::size_t>(r0) *
                                       static_cast<std::size_t>(in_f),
                              block, 0xffffffffU, 0x80000000U);
    const Block* blocks = plain ? kPlain : kMasked;
    for (int c0 = 0; c0 < in_f; c0 += 8) {
        blocks[std::min(8, in_f - c0) - 1](batch, out_f, in_f, r0, c0, x, gy,
                                           gw);
    }
}

/// dst[c * ld + s] = src[s * src_ld + c] for s < rows, c < cols; dst
/// entries from `rows` up to ld are zero.
void transpose_into(const float* src, int rows, int cols, int src_ld,
                    float* dst, int ld) {
    const auto at = [](int i, int stride) {
        return static_cast<std::size_t>(i) * static_cast<std::size_t>(stride);
    };
    int c0 = 0;
    for (; c0 + 8 <= cols; c0 += 8) {
        int s0 = 0;
        for (; s0 + 8 <= rows; s0 += 8) {
            __m256 r[8];
            for (int k = 0; k < 8; ++k) {
                r[k] = _mm256_loadu_ps(src + at(s0 + k, src_ld) + c0);
            }
            transpose8(r);
            for (int k = 0; k < 8; ++k) {
                _mm256_storeu_ps(dst + at(c0 + k, ld) + s0, r[k]);
            }
        }
        for (int c = c0; c < c0 + 8; ++c) {
            for (int s = s0; s < ld; ++s) {
                dst[at(c, ld) + static_cast<std::size_t>(s)] =
                    s < rows ? src[at(s, src_ld) + static_cast<std::size_t>(c)]
                             : 0.0F;
            }
        }
    }
    for (int c = c0; c < cols; ++c) {
        for (int s = 0; s < ld; ++s) {
            dst[at(c, ld) + static_cast<std::size_t>(s)] =
                s < rows ? src[at(s, src_ld) + static_cast<std::size_t>(c)]
                         : 0.0F;
        }
    }
}

/// grad_x columns [first, in) with lanes across samples: grad_y is
/// transposed once so each output row's gradients for eight samples load
/// as one vector, and NB sample blocks run as independent chains. Each
/// element sums the rows in order from +0, skipping zero gradients (a
/// skipped term adds +0, a no-op since the sum is never -0).
template <int NB>
void grad_x_blocks(int out_f, int in_f, int first, int width, const float* w,
                   const float* gy_t, int ld, int s0, int batch, float* gx) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t rows = static_cast<std::size_t>(out_f);
    for (int c = first; c < in_f; ++c) {
        __m256 acc[NB];
        for (int b = 0; b < NB; ++b) acc[b] = _mm256_setzero_ps();
        const float* w_c = w + static_cast<std::size_t>(c);
        const float* gy_s0 = gy_t + static_cast<std::size_t>(s0);
        for (std::size_t r = 0; r < rows; ++r) {
            const __m256 wv = _mm256_set1_ps(w_c[r * in]);
            const float* gr = gy_s0 + r * static_cast<std::size_t>(ld);
            for (int b = 0; b < NB; ++b) {
                const __m256 go = _mm256_loadu_ps(gr + 8 * b);
                const __m256 keep =
                    _mm256_cmp_ps(go, _mm256_setzero_ps(), _CMP_NEQ_UQ);
                acc[b] = _mm256_add_ps(
                    acc[b], _mm256_and_ps(keep, _mm256_mul_ps(go, wv)));
            }
        }
        alignas(32) float lanes[8];
        for (int b = 0; b < NB; ++b) {
            _mm256_store_ps(lanes, acc[b]);
            for (int k = 0; k < 8 && s0 + 8 * b + k < batch; ++k) {
                gx[static_cast<std::size_t>(s0 + 8 * b + k) *
                       static_cast<std::size_t>(width) +
                   static_cast<std::size_t>(c - first)] = lanes[k];
            }
        }
    }
}

/// grad_x_blocks over the whole batch; gy_t is grad_y transposed, rows
/// of ld floats (a multiple of 8, zero past the batch).
void grad_x_columns(int batch, int out_f, int in_f, int first,
                    const float* w, const float* gy_t, int ld, float* gx) {
    using Blocks = void (*)(int, int, int, int, const float*, const float*,
                            int, int, int, float*);
    static constexpr Blocks kBlocks[8] = {
        grad_x_blocks<1>, grad_x_blocks<2>, grad_x_blocks<3>,
        grad_x_blocks<4>, grad_x_blocks<5>, grad_x_blocks<6>,
        grad_x_blocks<7>, grad_x_blocks<8>};
    for (int s0 = 0; s0 < batch; s0 += 64) {
        const int blocks = std::min(8, (batch - s0 + 7) / 8);
        kBlocks[blocks - 1](out_f, in_f, first, in_f - first, w, gy_t, ld,
                            s0, batch, gx);
    }
}

}  // namespace

void avx2_gemm_batch(int batch, int out_f, int in_f, const float* w,
                     const float* x, const float* b, float* y) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t out = static_cast<std::size_t>(out_f);
    const int body = in_f / 8 * 8;
    const int ntail = in_f - body;
    // Rows in blocks of eight, the samples streaming past: lane k of a
    // block is row r+k's dot1(), the scalar tail vectorized across the
    // rows from pre-packed tail columns. The bias add comes after the whole
    // dot product, as in the leftover rows below.
    int r8 = 0;
    for (; r8 + 8 <= out_f; r8 += 8) {
        const float* w0 = w + static_cast<std::size_t>(r8) * in;
        __m256 tail[7];
        for (int j = 0; j < ntail; ++j) {
            const float* col = w0 + body + j;
            tail[j] = _mm256_setr_ps(col[0], col[in], col[2 * in], col[3 * in],
                                     col[4 * in], col[5 * in], col[6 * in],
                                     col[7 * in]);
        }
        const __m256 bias = _mm256_loadu_ps(b + r8);
        for (int s = 0; s < batch; ++s) {
            const float* xs = x + static_cast<std::size_t>(s) * in;
            __m256 acc[8];
            for (int k = 0; k < 8; ++k) acc[k] = _mm256_setzero_ps();
            for (int c = 0; c < body; c += 8) {
                const __m256 xv = _mm256_loadu_ps(xs + c);
                for (int k = 0; k < 8; ++k) {
                    acc[k] = _mm256_add_ps(
                        acc[k],
                        _mm256_mul_ps(_mm256_loadu_ps(w0 + k * in + c), xv));
                }
            }
            __m256 sum = hsum8(acc);
            for (int j = 0; j < ntail; ++j) {
                sum = _mm256_add_ps(
                    sum, _mm256_mul_ps(tail[j], _mm256_set1_ps(xs[body + j])));
            }
            _mm256_storeu_ps(y + static_cast<std::size_t>(s) * out + r8,
                             _mm256_add_ps(bias, sum));
        }
    }
    // Rows left over from the 8-blocks (all of them for the 1- and
    // 2-output heads).
    for (int r = r8; r < out_f; ++r) {
        const float* wrow = w + static_cast<std::size_t>(r) * in;
        for (int s = 0; s < batch; ++s) {
            y[static_cast<std::size_t>(s) * out + static_cast<std::size_t>(r)] =
                b[r] + dot1(wrow, x + static_cast<std::size_t>(s) * in, in_f);
        }
    }
}

void avx2_gemm_backward_batch(int batch, int out_f, int in_f, const float* w,
                              const float* x, const float* gy, float* gx,
                              float* gw, float* gb, int gx_first) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t out = static_cast<std::size_t>(out_f);
    if (gb != nullptr) {
        // Lanes carry rows; each lane adds the samples' gradients in order,
        // 64 rows side by side as independent chains.
        int r = 0;
        for (; r + 64 <= out_f; r += 64) {
            __m256 acc[8];
            for (int v = 0; v < 8; ++v) {
                acc[v] = _mm256_loadu_ps(gb + r + 8 * v);
            }
            for (int s = 0; s < batch; ++s) {
                const float* gys = gy + static_cast<std::size_t>(s) * out + r;
                for (int v = 0; v < 8; ++v) {
                    acc[v] =
                        _mm256_add_ps(acc[v], _mm256_loadu_ps(gys + 8 * v));
                }
            }
            for (int v = 0; v < 8; ++v) {
                _mm256_storeu_ps(gb + r + 8 * v, acc[v]);
            }
        }
        for (; r + 8 <= out_f; r += 8) {
            __m256 acc = _mm256_loadu_ps(gb + r);
            for (int s = 0; s < batch; ++s) {
                const float* gys = gy + static_cast<std::size_t>(s) * out;
                acc = _mm256_add_ps(acc, _mm256_loadu_ps(gys + r));
            }
            _mm256_storeu_ps(gb + r, acc);
        }
        for (; r < out_f; ++r) {
            for (int s = 0; s < batch; ++s) {
                gb[r] += gy[static_cast<std::size_t>(s) * out +
                            static_cast<std::size_t>(r)];
            }
        }
    }
    // The zero-gradient skip becomes a compacted term list, so the
    // accumulation loops run branch-free over the terms that contribute.
    TermScratch& list =
        term_scratch(static_cast<std::size_t>(std::max(batch, out_f)));
    // grad_y transposed, for the paths that read it by row: rows of ld
    // floats, zero past the batch. Built on first use.
    const int ld = (batch + 7) / 8 * 8;
    const float* gy_t = nullptr;
    const auto transposed = [&] {
        if (gy_t == nullptr) {
            std::vector<float>& buffer = scratch();
            buffer.resize(out * static_cast<std::size_t>(ld));
            transpose_into(gy, batch, out_f, out_f, buffer.data(), ld);
            gy_t = buffer.data();
        }
        return gy_t;
    };
    if (gw != nullptr) {
        // A narrow layer keeps too few columns per row in registers to
        // hide the add latency: its rows go eight at a time across lanes.
        const int narrow_rows = in_f < kNarrowWidth ? out_f / 8 * 8 : 0;
        const bool x_finite =
            narrow_rows > 0 &&
            !any_bits(x, static_cast<std::size_t>(batch) * in, 0x7f800000U,
                      0x7f800000U);
        for (int r = 0; r < narrow_rows; r += 8) {
            grad_w_rows8(batch, out_f, in_f, r, x, x_finite, gy, gw);
        }
        // grad_w row r: the samples' x rows scaled by grad_y[s, r].
        const Terms terms{list.scale.data(), list.index.data(), x, in};
        for (int r = narrow_rows; r < out_f; ++r) {
            const int n = compact_nonzero(
                transposed() + static_cast<std::size_t>(r) *
                                   static_cast<std::size_t>(ld),
                batch, list.scale.data(), list.index.data());
            accumulate_columns(terms, n, in_f,
                               gw + static_cast<std::size_t>(r) * in);
        }
    }
    if (gx == nullptr) return;
    const int width = in_f - gx_first;
    if (width < kNarrowWidth / 2) {
        grad_x_columns(batch, out_f, in_f, gx_first, w, transposed(), ld, gx);
        return;
    }
    // grad_x row s: the weight rows scaled by grad_y[s, r], from zero.
    const Terms terms{list.scale.data(), list.index.data(),
                      w + static_cast<std::size_t>(gx_first), in};
    for (int s = 0; s < batch; ++s) {
        const int n = compact_nonzero(gy + static_cast<std::size_t>(s) * out,
                                      out_f, list.scale.data(),
                                      list.index.data());
        float* gxs = gx + static_cast<std::size_t>(s) *
                              static_cast<std::size_t>(width);
        std::fill(gxs, gxs + width, 0.0F);
        accumulate_columns(terms, n, width, gxs);
    }
}

void avx2_bias_act(std::int64_t n, const float* x, float bias, Act act,
                   float* y) {
    const __m256 bvec = _mm256_set1_ps(bias);
    std::int64_t i = 0;
    if (act == Act::kRelu) {
        const __m256 zero = _mm256_setzero_ps();
        for (; i + 8 <= n; i += 8) {
            const __m256 t = _mm256_add_ps(_mm256_loadu_ps(x + i), bvec);
            // max_ps(t, 0) returns the second operand on equality or NaN,
            // matching the scalar `t > 0 ? t : 0` exactly.
            _mm256_storeu_ps(y + i, _mm256_max_ps(t, zero));
        }
        for (; i < n; ++i) {
            const float t = x[i] + bias;
            y[i] = t > 0.0F ? t : 0.0F;
        }
    } else {
        for (; i + 8 <= n; i += 8) {
            _mm256_storeu_ps(y + i,
                             _mm256_add_ps(_mm256_loadu_ps(x + i), bvec));
        }
        for (; i < n; ++i) y[i] = x[i] + bias;
    }
}

namespace {

// Adam without subnormal operands (docs/kernels.md). A lane whose gradient
// stays zero decays its first moment into the subnormal range, and from
// there m, m/bc1, lr*m/bc1 and the update each cost a microcode assist.
// An 8-lane group holding such a lane computes its m and p chains in
// double instead: each float operation becomes the double operation on
// the exact operands, rounded once to float. That is exact (a product of
// two floats is exact in double; for a sum or a quotient, double's 53 >=
// 2*24+2 bits make the second rounding innocuous), and no instruction
// below reads or writes a subnormal float.

/// Lanes 0-3 and 4-7 of a float vector as doubles. A subnormal converts
/// as its sign alone plus its significand k times 2^-149, both exact.
void soft_widen(__m256 x, __m256d& lo, __m256d& hi) {
    const __m256i bits = _mm256_castps_si256(x);
    const __m256i subnormal = _mm256_cmpeq_epi32(
        _mm256_and_si256(bits, _mm256_set1_epi32(0x7f800000)),
        _mm256_setzero_si256());
    const __m256 sign_or_normal = _mm256_castsi256_ps(_mm256_andnot_si256(
        _mm256_andnot_si256(
            _mm256_set1_epi32(static_cast<int>(0x80000000U)), subnormal),
        bits));
    const __m256i k = _mm256_and_si256(
        _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffff)), subnormal);
    const __m256d grid = _mm256_set1_pd(0x1p-149);
    lo = _mm256_or_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(sign_or_normal)),
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(k)), grid));
    hi = _mm256_or_pd(
        _mm256_cvtps_pd(_mm256_extractf128_ps(sign_or_normal, 1)),
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(k, 1)),
                      grid));
}

/// d rounded to the nearest float, ties to even, kept as a double, for
/// |d| < 2^127: adding and subtracting M = 1.5 * 2^(e+29), where 2^e is
/// d's binade but at least 2^-126 (the subnormal grid's), rounds d to a
/// multiple of 2^(e-23). M is built on the exponent bits (the clamp is a
/// 32-bit max on the high halves). The sign is restored for results that
/// round to zero.
__m256d soft_round(__m256d d) {
    const __m256i binade = _mm256_max_epi32(
        _mm256_and_si256(_mm256_castpd_si256(d),
                         _mm256_set1_epi64x(0x7ff0000000000000LL)),
        _mm256_set1_epi64x(static_cast<long long>(1023 - 126) << 52));
    const __m256d magic = _mm256_castsi256_pd(_mm256_add_epi64(
        binade, _mm256_set1_epi64x((29LL << 52) | (1LL << 51))));
    return _mm256_or_pd(_mm256_sub_pd(_mm256_add_pd(d, magic), magic),
                        _mm256_and_pd(d, _mm256_set1_pd(-0.0)));
}

/// Two vectors of soft_round()ed doubles as eight floats: lanes below
/// 2^-126 as their sign plus their multiple k of 2^-149, the rest
/// converted.
__m256 soft_narrow(__m256d lo, __m256d hi) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    const auto half = [&](__m256d d, __m128& converted) {
        const __m256d mag = _mm256_andnot_pd(sign, d);
        const __m256d tiny =
            _mm256_cmp_pd(mag, _mm256_set1_pd(0x1p-126), _CMP_LT_OQ);
        converted =
            _mm256_cvtpd_ps(_mm256_andnot_pd(_mm256_andnot_pd(sign, tiny), d));
        return _mm256_cvttpd_epi32(
            _mm256_and_pd(tiny, _mm256_mul_pd(mag, _mm256_set1_pd(0x1p149))));
    };
    __m128 converted_lo;
    __m128 converted_hi;
    const __m128i k_lo = half(lo, converted_lo);
    const __m128i k_hi = half(hi, converted_hi);
    const __m256 converted = _mm256_insertf128_ps(
        _mm256_castps128_ps256(converted_lo), converted_hi, 1);
    const __m256i k = _mm256_inserti128_si256(_mm256_castsi128_si256(k_lo),
                                              k_hi, 1);
    return _mm256_or_ps(converted, _mm256_castsi256_ps(k));
}

/// What adam_update decides once per call.
struct AdamPlan {
    explicit AdamPlan(const AdamStep& s) {
        // First moments below this (magnitude bits) make lr*m/bc1 leave
        // the normal range, for beta1 >= 1/4; other lanes stay exact on
        // the float path, only slower.
        const float bound = static_cast<float>(
            std::min(0x1p-124 / static_cast<double>(s.lr),
                     static_cast<double>(FLT_MAX)));
        std::memcpy(&tiny_bound, &bound, sizeof tiny_bound);
        soft_ok = s.lr <= 1.0F && s.eps >= 0x1p-32F;
        // Once bc1 is 1, a zero-gradient lane with m = k * 2^-149 is stuck
        // while beta1*k rounds back to k and lr*k rounds to zero: m stays,
        // and p loses a signed zero, so p stays unless it is -0 (or NaN).
        if (s.bc1 == 1.0F && std::isfinite(s.scale)) {
            for (std::uint32_t k = 1; k < 64; ++k) {
                const double kd = static_cast<double>(k);
                if (std::nearbyint(static_cast<double>(s.beta1) * kd) != kd ||
                    static_cast<double>(s.lr) * kd >= 0.5) {
                    break;
                }
                stuck_bound = k;
            }
        }
    }

    std::uint32_t tiny_bound = 0;
    std::uint32_t stuck_bound = 0;  ///< largest stuck k; 0: none
    /// With lr <= 1 and eps >= 2^-32 the emulation's intermediates stay
    /// below 2^127 for inputs below 2^64.
    bool soft_ok = false;
};

/// Groups of eight lanes whose m and p chains are emulated side by side:
/// each chain is a run of dependent roundings, and interleaving groups
/// lets their latencies overlap.
constexpr int kSoftGroups = 4;

/// The m and p chains of the groups at offsets at[0..kSoftGroups) (repeats
/// allowed: every load precedes every store), for finite m, p and
/// (1-beta1)*grad below 2^64 with lr <= 1 and eps >= 2^-32, which keep
/// every intermediate below 2^127. v already holds the updated moment.
template <bool kDivBc1>
void adam_soft_groups(const AdamStep& s, const std::int64_t* at, float* p,
                      const float* g, float* m, const float* v) {
    __m256d m_d[kSoftGroups][2];
    __m256d c1_grad[kSoftGroups][2];
    __m256d denom[kSoftGroups][2];
    __m256d p_d[kSoftGroups][2];
    const auto halves = [](__m256 x, __m256d* out) {
        out[0] = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
        out[1] = _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
    };
    for (int q = 0; q < kSoftGroups; ++q) {
        const std::int64_t j = at[q];
        const __m256 grad =
            _mm256_mul_ps(_mm256_loadu_ps(g + j), _mm256_set1_ps(s.scale));
        halves(_mm256_mul_ps(_mm256_set1_ps(1.0F - s.beta1), grad),
               c1_grad[q]);
        const __m256 v_hat =
            _mm256_div_ps(_mm256_loadu_ps(v + j), _mm256_set1_ps(s.bc2));
        halves(_mm256_add_ps(_mm256_sqrt_ps(v_hat), _mm256_set1_ps(s.eps)),
               denom[q]);
        halves(_mm256_loadu_ps(p + j), p_d[q]);
        soft_widen(_mm256_loadu_ps(m + j), m_d[q][0], m_d[q][1]);
    }
    const __m256d beta1 = _mm256_set1_pd(s.beta1);
    const __m256d bc1 = _mm256_set1_pd(s.bc1);
    const __m256d lr = _mm256_set1_pd(s.lr);
    for (int q = 0; q < kSoftGroups; ++q) {
        for (int h = 0; h < 2; ++h) {
            m_d[q][h] = soft_round(_mm256_add_pd(
                soft_round(_mm256_mul_pd(beta1, m_d[q][h])), c1_grad[q][h]));
        }
    }
    for (int q = 0; q < kSoftGroups; ++q) {
        for (int h = 0; h < 2; ++h) {
            const __m256d m_hat =
                kDivBc1 ? soft_round(_mm256_div_pd(m_d[q][h], bc1))
                        : m_d[q][h];
            const __m256d step = soft_round(_mm256_div_pd(
                soft_round(_mm256_mul_pd(lr, m_hat)), denom[q][h]));
            p_d[q][h] = soft_round(_mm256_sub_pd(p_d[q][h], step));
        }
    }
    for (int q = 0; q < kSoftGroups; ++q) {
        _mm256_storeu_ps(m + at[q], soft_narrow(m_d[q][0], m_d[q][1]));
        _mm256_storeu_ps(p + at[q], soft_narrow(p_d[q][0], p_d[q][1]));
    }
}

enum class GroupPath { kDone, kSoft };

/// How a group whose first moments include tiny ones goes on: kKeep when
/// each tiny lane is stuck, kSoft within the emulation's range, else
/// kDone, with the plain loop (exact and merely slow) already run.
enum class TinyPath { kKeep, kSoft, kDone };

/// Out of line, so that adam_group's common path inlines into its loop.
TinyPath tiny_path(const AdamStep& s, const AdamPlan& plan, __m256i tiny,
                   __m256 mj, __m256 pj, __m256 gj, __m256 c1_grad,
                   __m256 denom, float* p, const float* g, float* m,
                   float* v) {
    const __m256i magnitude = _mm256_set1_epi32(0x7fffffff);
    const auto mag = [&](__m256 x) {
        return _mm256_and_si256(_mm256_castps_si256(x), magnitude);
    };
    const __m256i m_mag = mag(mj);
    // Stuck: m <= stuck_bound * 2^-149, g = +-0, p neither -0 nor NaN, the
    // denominator positive (so +-0/denom is +-0).
    const __m256i stuck = _mm256_and_si256(
        _mm256_and_si256(
            _mm256_cmpgt_epi32(
                _mm256_set1_epi32(static_cast<int>(plan.stuck_bound + 1)),
                m_mag),
            _mm256_cmpeq_epi32(mag(gj), _mm256_setzero_si256())),
        _mm256_and_si256(
            _mm256_andnot_si256(
                _mm256_cmpeq_epi32(
                    _mm256_castps_si256(pj),
                    _mm256_set1_epi32(static_cast<int>(0x80000000U))),
                _mm256_cmpgt_epi32(_mm256_set1_epi32(0x7f800001), mag(pj))),
            _mm256_castps_si256(
                _mm256_cmp_ps(denom, _mm256_setzero_ps(), _CMP_GT_OQ))));
    if (_mm256_testc_si256(stuck, tiny) != 0) return TinyPath::kKeep;
    const __m256i limit = _mm256_set1_epi32(0x5f800000);  // 2^64
    const __m256i in_range = _mm256_and_si256(
        _mm256_and_si256(_mm256_cmpgt_epi32(limit, m_mag),
                         _mm256_cmpgt_epi32(limit, mag(pj))),
        _mm256_cmpgt_epi32(limit, mag(c1_grad)));
    if (plan.soft_ok && _mm256_movemask_epi8(in_range) == -1) {
        return TinyPath::kSoft;
    }
    scalar_adam_update(s, 8, p, g, m, v);
    return TinyPath::kDone;
}

/// Eight lanes through adam_update's float operations, or, when one has
/// a tiny first moment that is not stuck, only v (kSoft: the caller
/// emulates m and p). x / 1.0F == x for every x, so skipping m/bc1 once
/// bc1 rounds to 1 is exact.
template <bool kDivBc1>
GroupPath adam_group(const AdamStep& s, const AdamPlan& plan, float* p,
                     const float* g, float* m, float* v) {
    const __m256 mj = _mm256_loadu_ps(m);
    const __m256 pj = _mm256_loadu_ps(p);
    const __m256i m_mag = _mm256_and_si256(_mm256_castps_si256(mj),
                                           _mm256_set1_epi32(0x7fffffff));
    const __m256i tiny = _mm256_andnot_si256(
        _mm256_cmpeq_epi32(m_mag, _mm256_setzero_si256()),
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(plan.tiny_bound)), m_mag));
    const __m256 gj = _mm256_loadu_ps(g);
    const __m256 grad = _mm256_mul_ps(gj, _mm256_set1_ps(s.scale));
    const __m256 c1_grad =
        _mm256_mul_ps(_mm256_set1_ps(1.0F - s.beta1), grad);
    const __m256 v1 = _mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(s.beta2), _mm256_loadu_ps(v)),
        _mm256_mul_ps(
            _mm256_mul_ps(_mm256_set1_ps(1.0F - s.beta2), grad), grad));
    const __m256 denom = _mm256_add_ps(
        _mm256_sqrt_ps(_mm256_div_ps(v1, _mm256_set1_ps(s.bc2))),
        _mm256_set1_ps(s.eps));
    __m256i keep = _mm256_setzero_si256();  // lanes whose m and p stay
    if (_mm256_testz_si256(tiny, tiny) == 0) {
        const TinyPath path = tiny_path(s, plan, tiny, mj, pj, gj, c1_grad,
                                        denom, p, g, m, v);
        if (path == TinyPath::kDone) return GroupPath::kDone;
        if (path == TinyPath::kSoft) {
            _mm256_storeu_ps(v, v1);
            return GroupPath::kSoft;
        }
        keep = tiny;
    }
    // Kept lanes run on m = 0, which touches no subnormal.
    const __m256 m0 = _mm256_andnot_ps(_mm256_castsi256_ps(keep), mj);
    const __m256 m1 =
        _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(s.beta1), m0), c1_grad);
    const __m256 m_hat =
        kDivBc1 ? _mm256_div_ps(m1, _mm256_set1_ps(s.bc1)) : m1;
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(_mm256_set1_ps(s.lr), m_hat), denom);
    const __m256 kept = _mm256_castsi256_ps(keep);
    _mm256_storeu_ps(m, _mm256_blendv_ps(m1, mj, kept));
    _mm256_storeu_ps(v, v1);
    _mm256_storeu_ps(p, _mm256_blendv_ps(_mm256_sub_ps(pj, step), pj, kept));
    return GroupPath::kDone;
}

template <bool kDivBc1>
void adam_lanes(const AdamStep& s, std::int64_t n, float* p, const float* g,
                float* m, float* v) {
    const AdamPlan plan(s);
    std::int64_t pending[kSoftGroups];
    int count = 0;
    const auto flush = [&] {
        if (count == 0) return;
        for (int q = count; q < kSoftGroups; ++q) pending[q] = pending[0];
        adam_soft_groups<kDivBc1>(s, pending, p, g, m, v);
        count = 0;
    };
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        if (adam_group<kDivBc1>(s, plan, p + j, g + j, m + j, v + j) ==
            GroupPath::kSoft) {
            pending[count++] = j;
            if (count == kSoftGroups) flush();
        }
    }
    flush();
    // The last n % 8 lanes (a head's bias) take the plain loop.
    scalar_adam_update(s, n - j, p + j, g + j, m + j, v + j);
}

}  // namespace

void avx2_adam_update(const AdamStep& s, std::int64_t n, float* p,
                      const float* g, float* m, float* v) {
    if (s.bc1 == 1.0F) {
        adam_lanes<false>(s, n, p, g, m, v);
    } else {
        adam_lanes<true>(s, n, p, g, m, v);
    }
}

#else  // !defined(__AVX2__)

// Built without AVX2 codegen: dispatch can never route here (see
// avx2_kernels_compiled()), so these stubs only assert the invariant.

void avx2_gemm_batch(int, int, int, const float*, const float*, const float*,
                     float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm_backward_batch(int, int, int, const float*, const float*,
                              const float*, float*, float*, float*, int) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_bias_act(std::int64_t, const float*, float, Act, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_adam_update(const AdamStep&, std::int64_t, float*, const float*,
                      float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

#endif  // defined(__AVX2__)

}  // namespace imx::nn::kernels::detail
