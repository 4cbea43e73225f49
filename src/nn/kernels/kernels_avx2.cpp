// AVX2 backend. This TU is the only one built with -mavx2 (and without
// FMA contraction — see CMakeLists.txt): everything else in the library
// stays baseline-x86-64 so the binary runs on any CPU, and dispatch only
// routes here after __builtin_cpu_supports("avx2") says it may.
//
// Vectorization strategy (docs/kernels.md):
//   * conv2d_forward: the input is copied once into an explicitly
//     zero-padded scratch, removing every bounds check; lanes then carry 8
//     consecutive output columns, each an independent accumulator in the
//     same per-element tap order as scalar — bitwise identical results.
//   * gemm: one 8-lane partial-sum accumulator per output row with a
//     horizontal reduction — re-associates the sum, agreement bounded by
//     kGemmUlpBound.
//   * backward kernels: grad_input/grad_weight updates are lane-
//     independent but the tap order differs from scalar, and grad_bias /
//     grad_weight reductions fold 8 lanes — bounded by kBackwardUlpBound.
//   * gemm_batch / gemm_backward_batch: bitwise equal to avx2_gemm /
//     avx2_gemm_backward looped over the samples. Forward keeps one
//     accumulator per (sample, row) and reduces eight rows at a time with
//     a lane-exact hsum; backward holds up to 64 gradient columns in
//     registers while the (nonzero) samples or rows stream past in order.
#include "nn/kernels/kernels.hpp"

#include <algorithm>
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
/// after warm-up. Distinct buffers: backward needs the padded input and the
/// padded grad-input alive at once.
std::vector<float>& scratch(int which) {
    thread_local std::vector<float> buffers[2];
    return buffers[which];
}

/// Copy a CHW tensor into a zero-padded [c, h+2p, w+2p] scratch layout.
void pad_input(const Conv2dGeom& g, const float* in, std::vector<float>& out) {
    const std::size_t ph = static_cast<std::size_t>(g.in_h + 2 * g.padding);
    const std::size_t pw = static_cast<std::size_t>(g.in_w + 2 * g.padding);
    out.assign(static_cast<std::size_t>(g.in_channels) * ph * pw, 0.0F);
    for (int c = 0; c < g.in_channels; ++c) {
        for (int y = 0; y < g.in_h; ++y) {
            const float* src =
                in + (static_cast<std::size_t>(c) * g.in_h + y) * g.in_w;
            float* dst = out.data() +
                         (static_cast<std::size_t>(c) * ph +
                          static_cast<std::size_t>(y + g.padding)) *
                             pw +
                         static_cast<std::size_t>(g.padding);
            for (int x = 0; x < g.in_w; ++x) dst[x] = src[x];
        }
    }
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

/// One term of a gradient accumulation: `scale * row[c]`.
struct Term {
    float scale;
    const float* row;
};

std::vector<Term>& term_scratch() {
    thread_local std::vector<Term> terms;
    return terms;
}

/// Lanes [0, count) set.
inline __m256i tail_mask(int count) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(count),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// dst[c] += terms[i].scale * terms[i].row[c] for i in order, over the
/// columns [c0, c0 + 8*NV) plus `tail` masked columns when kTail. The
/// block lives in NV (+1) registers across the whole term list — one
/// dependency chain per register — and every lane performs exactly the
/// per-sample kernel's `dst + scale*row` sequence.
template <int NV, bool kTail>
void accumulate_block(const Term* terms, int n, int c0, int tail,
                      float* dst) {
    constexpr int kVecs = NV + (kTail ? 1 : 0);
    static_assert(kVecs > 0 && NV <= 8, "block of 1..8 vectors (+ tail)");
    const __m256i mask = tail_mask(tail);
    __m256 acc[kVecs];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_ps(dst + c0 + 8 * v);
    if constexpr (kTail) acc[NV] = _mm256_maskload_ps(dst + c0 + 8 * NV, mask);
    for (int i = 0; i < n; ++i) {
        const __m256 scale = _mm256_set1_ps(terms[i].scale);
        const float* row = terms[i].row + c0;
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
void accumulate_last_block(int nv, int tail, const Term* terms, int n, int c0,
                           float* dst) {
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

/// dst[0..width) += sum_i terms[i].scale * terms[i].row[...], terms in order.
void accumulate_columns(const Term* terms, int n, int width, float* dst) {
    int c = 0;
    for (; c + 64 <= width; c += 64) {
        accumulate_block<8, false>(terms, n, c, 0, dst);
    }
    const int rest = width - c;
    accumulate_last_block<0>(rest / 8, rest % 8, terms, n, c, dst);
}

}  // namespace

void avx2_conv2d_forward(const Conv2dGeom& g, const float* in, const float* w,
                         const float* b, float* out) {
    std::vector<float>& padded = scratch(0);
    pad_input(g, in, padded);
    const std::size_t ph = static_cast<std::size_t>(g.in_h + 2 * g.padding);
    const std::size_t pw = static_cast<std::size_t>(g.in_w + 2 * g.padding);
    const int oh = g.out_h();
    const int ow = g.out_w();
    const int taps = g.in_channels * g.kernel * g.kernel;

    for (int oc = 0; oc < g.out_channels; ++oc) {
        const float bias = b[oc];
        const float* wbase = w + static_cast<std::size_t>(oc) *
                                     static_cast<std::size_t>(taps);
        for (int oy = 0; oy < oh; ++oy) {
            float* out_row =
                out + (static_cast<std::size_t>(oc) * oh + oy) *
                          static_cast<std::size_t>(ow);
            int ox = 0;
            for (; ox + 8 <= ow; ox += 8) {
                __m256 acc = _mm256_set1_ps(bias);
                const float* wv = wbase;
                for (int ic = 0; ic < g.in_channels; ++ic) {
                    const float* chan = padded.data() +
                                        static_cast<std::size_t>(ic) * ph * pw;
                    for (int ky = 0; ky < g.kernel; ++ky) {
                        const float* src =
                            chan + static_cast<std::size_t>(oy + ky) * pw + ox;
                        for (int kx = 0; kx < g.kernel; ++kx) {
                            const __m256 wvec = _mm256_set1_ps(*wv++);
                            acc = _mm256_add_ps(
                                acc, _mm256_mul_ps(
                                         wvec, _mm256_loadu_ps(src + kx)));
                        }
                    }
                }
                _mm256_storeu_ps(out_row + ox, acc);
            }
            // Scalar tail over the padded scratch: same tap order as the
            // vector body (and as the scalar backend), so it stays bitwise.
            for (; ox < ow; ++ox) {
                float acc = bias;
                const float* wv = wbase;
                for (int ic = 0; ic < g.in_channels; ++ic) {
                    const float* chan = padded.data() +
                                        static_cast<std::size_t>(ic) * ph * pw;
                    for (int ky = 0; ky < g.kernel; ++ky) {
                        const float* src =
                            chan + static_cast<std::size_t>(oy + ky) * pw + ox;
                        for (int kx = 0; kx < g.kernel; ++kx) {
                            acc += *wv++ * src[kx];
                        }
                    }
                }
                out_row[ox] = acc;
            }
        }
    }
}

void avx2_conv2d_backward(const Conv2dGeom& g, const float* in, const float* w,
                          const float* gout, float* gin, float* gw,
                          float* gb) {
    std::vector<float>& padded_in = scratch(0);
    pad_input(g, in, padded_in);
    const std::size_t ph = static_cast<std::size_t>(g.in_h + 2 * g.padding);
    const std::size_t pw = static_cast<std::size_t>(g.in_w + 2 * g.padding);
    const int oh = g.out_h();
    const int ow = g.out_w();

    // Accumulate grad-input into a zero-padded scratch; border writes land
    // in the padding and are dropped by the copy-back, which is exactly the
    // out-of-range-tap rule of the scalar backend.
    std::vector<float>& padded_gin = scratch(1);
    padded_gin.assign(static_cast<std::size_t>(g.in_channels) * ph * pw, 0.0F);

    for (int oc = 0; oc < g.out_channels; ++oc) {
        const float* go_base = gout + static_cast<std::size_t>(oc) *
                                          static_cast<std::size_t>(oh) *
                                          static_cast<std::size_t>(ow);
        // grad_bias: 8-lane reduction over the full output map.
        {
            __m256 acc = _mm256_setzero_ps();
            const std::int64_t n =
                static_cast<std::int64_t>(oh) * static_cast<std::int64_t>(ow);
            std::int64_t i = 0;
            for (; i + 8 <= n; i += 8) {
                acc = _mm256_add_ps(acc, _mm256_loadu_ps(go_base + i));
            }
            float sum = hsum(acc);
            for (; i < n; ++i) sum += go_base[i];
            gb[oc] += sum;
        }
        for (int ic = 0; ic < g.in_channels; ++ic) {
            float* gin_chan =
                padded_gin.data() + static_cast<std::size_t>(ic) * ph * pw;
            const float* in_chan =
                padded_in.data() + static_cast<std::size_t>(ic) * ph * pw;
            for (int ky = 0; ky < g.kernel; ++ky) {
                for (int kx = 0; kx < g.kernel; ++kx) {
                    const std::size_t widx =
                        ((static_cast<std::size_t>(oc) * g.in_channels + ic) *
                             g.kernel +
                         static_cast<std::size_t>(ky)) *
                            g.kernel +
                        static_cast<std::size_t>(kx);
                    const __m256 wvec = _mm256_set1_ps(w[widx]);
                    __m256 gw_acc = _mm256_setzero_ps();
                    float gw_tail = 0.0F;
                    for (int oy = 0; oy < oh; ++oy) {
                        const float* go_row =
                            go_base + static_cast<std::size_t>(oy) * ow;
                        const std::size_t row_off =
                            static_cast<std::size_t>(oy + ky) * pw +
                            static_cast<std::size_t>(kx);
                        const float* in_row = in_chan + row_off;
                        float* gin_row = gin_chan + row_off;
                        int ox = 0;
                        for (; ox + 8 <= ow; ox += 8) {
                            const __m256 go_vec = _mm256_loadu_ps(go_row + ox);
                            gw_acc = _mm256_add_ps(
                                gw_acc,
                                _mm256_mul_ps(go_vec,
                                              _mm256_loadu_ps(in_row + ox)));
                            _mm256_storeu_ps(
                                gin_row + ox,
                                _mm256_add_ps(_mm256_loadu_ps(gin_row + ox),
                                              _mm256_mul_ps(go_vec, wvec)));
                        }
                        for (; ox < ow; ++ox) {
                            gw_tail += go_row[ox] * in_row[ox];
                            gin_row[ox] += go_row[ox] * w[widx];
                        }
                    }
                    gw[widx] += hsum(gw_acc) + gw_tail;
                }
            }
        }
    }

    // Copy the interior of the padded grad-input back to CHW.
    for (int c = 0; c < g.in_channels; ++c) {
        for (int y = 0; y < g.in_h; ++y) {
            const float* src = padded_gin.data() +
                               (static_cast<std::size_t>(c) * ph +
                                static_cast<std::size_t>(y + g.padding)) *
                                   pw +
                               static_cast<std::size_t>(g.padding);
            float* dst =
                gin + (static_cast<std::size_t>(c) * g.in_h + y) * g.in_w;
            for (int x = 0; x < g.in_w; ++x) dst[x] = src[x];
        }
    }
}

void avx2_gemm(int out_f, int in_f, const float* w, const float* x,
               const float* b, float* y) {
    for (int r = 0; r < out_f; ++r) {
        const float* wrow =
            w + static_cast<std::size_t>(r) * static_cast<std::size_t>(in_f);
        y[r] = b[r] + dot1(wrow, x, in_f);
    }
}

void avx2_gemm_batch(int batch, int out_f, int in_f, const float* w,
                     const float* x, const float* b, float* y) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t out = static_cast<std::size_t>(out_f);
    const int body = in_f / 8 * 8;
    const int ntail = in_f - body;
    // Rows in blocks of eight, the samples streaming past: lane k of a
    // block is row r+k's dot1(), the scalar tail vectorized across the
    // rows from pre-packed tail columns. The bias add comes after the whole
    // dot product, as in avx2_gemm.
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

void avx2_gemm_backward(int out_f, int in_f, const float* w, const float* x,
                        const float* gy, float* gx, float* gw, float* gb) {
    for (int c = 0; c < in_f; ++c) gx[c] = 0.0F;
    for (int r = 0; r < out_f; ++r) {
        const float go = gy[r];
        gb[r] += go;
        if (go == 0.0F) continue;
        const std::size_t off =
            static_cast<std::size_t>(r) * static_cast<std::size_t>(in_f);
        const float* wrow = w + off;
        float* gwrow = gw + off;
        const __m256 go_vec = _mm256_set1_ps(go);
        int c = 0;
        for (; c + 8 <= in_f; c += 8) {
            _mm256_storeu_ps(
                gwrow + c,
                _mm256_add_ps(_mm256_loadu_ps(gwrow + c),
                              _mm256_mul_ps(go_vec, _mm256_loadu_ps(x + c))));
            _mm256_storeu_ps(
                gx + c,
                _mm256_add_ps(_mm256_loadu_ps(gx + c),
                              _mm256_mul_ps(go_vec,
                                            _mm256_loadu_ps(wrow + c))));
        }
        for (; c < in_f; ++c) {
            gwrow[c] += go * x[c];
            gx[c] += go * wrow[c];
        }
    }
}

void avx2_gemm_backward_batch(int batch, int out_f, int in_f, const float* w,
                              const float* x, const float* gy, float* gx,
                              float* gw, float* gb) {
    const std::size_t in = static_cast<std::size_t>(in_f);
    const std::size_t out = static_cast<std::size_t>(out_f);
    if (gb != nullptr) {
        // Lanes carry rows; each lane adds the samples' gradients in order.
        int r = 0;
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
    std::vector<Term>& terms = term_scratch();
    terms.resize(static_cast<std::size_t>(std::max(batch, out_f)));
    if (gw != nullptr) {
        // grad_w row r: the samples' x rows scaled by grad_y[s, r].
        for (int r = 0; r < out_f; ++r) {
            int n = 0;
            for (int s = 0; s < batch; ++s) {
                const float go = gy[static_cast<std::size_t>(s) * out +
                                    static_cast<std::size_t>(r)];
                terms[static_cast<std::size_t>(n)] = {
                    go, x + static_cast<std::size_t>(s) * in};
                n += go != 0.0F ? 1 : 0;
            }
            accumulate_columns(terms.data(), n, in_f,
                               gw + static_cast<std::size_t>(r) * in);
        }
    }
    if (gx != nullptr) {
        // grad_x row s: the weight rows scaled by grad_y[s, r], from zero.
        for (int s = 0; s < batch; ++s) {
            const float* gys = gy + static_cast<std::size_t>(s) * out;
            int n = 0;
            for (int r = 0; r < out_f; ++r) {
                terms[static_cast<std::size_t>(n)] = {
                    gys[r], w + static_cast<std::size_t>(r) * in};
                n += gys[r] != 0.0F ? 1 : 0;
            }
            float* gxs = gx + static_cast<std::size_t>(s) * in;
            std::fill(gxs, gxs + in, 0.0F);
            accumulate_columns(terms.data(), n, in_f, gxs);
        }
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

#else  // !defined(__AVX2__)

// Built without AVX2 codegen: dispatch can never route here (see
// avx2_kernels_compiled()), so these stubs only assert the invariant.

void avx2_conv2d_forward(const Conv2dGeom&, const float*, const float*,
                         const float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_conv2d_backward(const Conv2dGeom&, const float*, const float*,
                          const float*, float*, float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm(int, int, const float*, const float*, const float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm_backward(int, int, const float*, const float*, const float*,
                        float*, float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm_batch(int, int, int, const float*, const float*, const float*,
                     float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_gemm_backward_batch(int, int, int, const float*, const float*,
                              const float*, float*, float*, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

void avx2_bias_act(std::int64_t, const float*, float, Act, float*) {
    IMX_ASSERT(!"avx2 kernels not compiled");
}

#endif  // defined(__AVX2__)

}  // namespace imx::nn::kernels::detail
