// Differential kernel harness: sweeps randomized gemm shapes and zero
// patterns through both dispatch backends and pins their agreement to the
// documented numeric contract (docs/kernels.md):
//   * bias_act and gemm_backward_batch: bitwise identical scalar vs AVX2;
//   * gemm: <= kGemmUlpBound ULPs at the reduction magnitude (the
//     magnitude is sum(|terms|), recovered by running the scalar kernel on
//     the absolute values of its inputs).
// Each backend is held to its own per-sample order separately, against
// tests/network_reference.hpp (tests/test_ddpg_batch.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/kernels/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;

bool avx2_available() {
    return nn::kernels::avx2_kernels_compiled() &&
           nn::kernels::cpu_supports_avx2();
}

/// Restores the dispatch selection (including "unset") on scope exit so a
/// failing test cannot leak a forced backend into later tests.
class BackendGuard {
public:
    BackendGuard() = default;
    ~BackendGuard() { nn::kernels::clear_backend_override(); }
    BackendGuard(const BackendGuard&) = delete;
    BackendGuard& operator=(const BackendGuard&) = delete;
};

std::uint32_t float_bits(float v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/// Agreement check for re-associated reductions. Splitting a K-term sum
/// into 8 lanes perturbs it by a small multiple of eps at the magnitude of
/// sum(|terms|), not of the (possibly cancelled) result, so the documented
/// bounds are ULPs *at that magnitude*: the tolerance is
/// ulps * 2^-23 * max(|a|, |b|, mag). Callers recover mag by running the
/// scalar kernel on the absolute values of its inputs.
testing::AssertionResult reduction_close(float a, float b, float mag,
                                         std::int64_t ulps) {
    if (!std::isfinite(a) || !std::isfinite(b) || !std::isfinite(mag)) {
        return testing::AssertionFailure()
               << "non-finite value in reduction comparison: " << a << " vs "
               << b << " (magnitude " << mag << ")";
    }
    if (float_bits(a) == float_bits(b)) return testing::AssertionSuccess();
    const double scale = std::max({std::fabs(static_cast<double>(a)),
                                   std::fabs(static_cast<double>(b)),
                                   std::fabs(static_cast<double>(mag))});
    const double tol = static_cast<double>(ulps) * std::ldexp(scale, -23);
    const double diff =
        std::fabs(static_cast<double>(a) - static_cast<double>(b));
    if (diff <= tol) return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << a << " vs " << b << ": |diff| = " << diff << " > " << tol
           << " (" << ulps << " ULPs at magnitude " << scale << ")";
}

std::vector<float> abs_of(const std::vector<float>& v) {
    std::vector<float> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::fabs(v[i]);
    return out;
}

void fill_random(std::vector<float>& v, util::Rng& rng, double zero_prob) {
    for (float& x : v) {
        x = rng.uniform(0.0, 1.0) < zero_prob
                ? 0.0F
                : static_cast<float>(rng.normal());
    }
}

TEST(KernelsDiff, GemmScalarVsAvx2WithinUlpBound) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    util::Rng rng(0x6e6d6d);
    for (int trial = 0; trial < 80; ++trial) {
        const int out_f = rng.uniform_int(1, 40);
        const int in_f = rng.uniform_int(1, 300);
        std::vector<float> w(static_cast<std::size_t>(out_f) * in_f);
        std::vector<float> x(static_cast<std::size_t>(in_f));
        std::vector<float> b(static_cast<std::size_t>(out_f));
        fill_random(w, rng, 0.15);
        fill_random(x, rng, 0.15);
        fill_random(b, rng, 0.3);

        std::vector<float> y_scalar(static_cast<std::size_t>(out_f));
        std::vector<float> y_avx2(static_cast<std::size_t>(out_f));
        std::vector<float> y_mag(static_cast<std::size_t>(out_f));
        nn::kernels::force_backend(nn::kernels::Backend::kScalar);
        nn::kernels::gemm(out_f, in_f, w.data(), x.data(), b.data(),
                          y_scalar.data());
        const std::vector<float> w_abs = abs_of(w);
        const std::vector<float> x_abs = abs_of(x);
        const std::vector<float> b_abs = abs_of(b);
        nn::kernels::gemm(out_f, in_f, w_abs.data(), x_abs.data(),
                          b_abs.data(), y_mag.data());
        nn::kernels::force_backend(nn::kernels::Backend::kAvx2);
        nn::kernels::gemm(out_f, in_f, w.data(), x.data(), b.data(),
                          y_avx2.data());

        for (int r = 0; r < out_f; ++r) {
            const auto ri = static_cast<std::size_t>(r);
            EXPECT_TRUE(reduction_close(y_scalar[ri], y_avx2[ri], y_mag[ri],
                                        nn::kernels::kGemmUlpBound))
                << "trial " << trial << " row " << r;
        }
    }
}

TEST(KernelsDiff, GemmBackwardBatchScalarVsAvx2Bitwise) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    util::Rng rng(0x6b9d);
    const int batches[] = {1, 3, 64};
    for (int trial = 0; trial < 60; ++trial) {
        const int batch = batches[trial % 3];
        const int out_f = rng.uniform_int(1, 30);
        const int in_f = rng.uniform_int(1, 200);
        const int first = trial % 4 == 3 ? rng.uniform_int(0, in_f - 1) : 0;
        const auto rows = static_cast<std::size_t>(batch);
        const std::size_t gx_size =
            rows * static_cast<std::size_t>(in_f - first);
        std::vector<float> w(static_cast<std::size_t>(out_f) * in_f);
        std::vector<float> x(rows * static_cast<std::size_t>(in_f));
        std::vector<float> gy(rows * static_cast<std::size_t>(out_f));
        std::vector<float> gw_seed(w.size());
        std::vector<float> gb_seed(static_cast<std::size_t>(out_f));
        fill_random(w, rng, 0.1);
        fill_random(x, rng, 0.2);
        fill_random(gy, rng, 0.25);
        fill_random(gw_seed, rng, 0.1);
        fill_random(gb_seed, rng, 0.1);

        struct Grads {
            std::vector<float> gx;
            std::vector<float> gw;
            std::vector<float> gb;
        };
        const auto run = [&](nn::kernels::Backend backend) {
            Grads g{std::vector<float>(gx_size, 7.0F), gw_seed, gb_seed};
            nn::kernels::force_backend(backend);
            nn::kernels::gemm_backward_batch(batch, out_f, in_f, w.data(),
                                             x.data(), gy.data(), g.gx.data(),
                                             g.gw.data(), g.gb.data(), first);
            return g;
        };
        const Grads scalar = run(nn::kernels::Backend::kScalar);
        const Grads avx2 = run(nn::kernels::Backend::kAvx2);
        const auto expect_bitwise = [&](const std::vector<float>& a,
                                        const std::vector<float>& b,
                                        const char* what) {
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(float_bits(a[i]), float_bits(b[i]))
                    << what << ", trial " << trial << " element " << i;
            }
        };
        expect_bitwise(scalar.gx, avx2.gx, "grad_x");
        expect_bitwise(scalar.gw, avx2.gw, "grad_weight");
        expect_bitwise(scalar.gb, avx2.gb, "grad_bias");
    }
}

TEST(KernelsDiff, BiasActScalarVsAvx2Bitwise) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    BackendGuard guard;
    util::Rng rng(0xb1a5);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = rng.uniform_int(1, 200);
        std::vector<float> x(static_cast<std::size_t>(n));
        fill_random(x, rng, 0.3);
        const float bias =
            rng.uniform(0.0, 1.0) < 0.5 ? 0.0F
                                        : static_cast<float>(rng.normal());
        for (const auto act :
             {nn::kernels::Act::kIdentity, nn::kernels::Act::kRelu}) {
            std::vector<float> y_s(x.size());
            std::vector<float> y_v(x.size());
            nn::kernels::force_backend(nn::kernels::Backend::kScalar);
            nn::kernels::bias_act(n, x.data(), bias, act, y_s.data());
            nn::kernels::force_backend(nn::kernels::Backend::kAvx2);
            nn::kernels::bias_act(n, x.data(), bias, act, y_v.data());
            for (std::size_t i = 0; i < x.size(); ++i) {
                ASSERT_EQ(float_bits(y_s[i]), float_bits(y_v[i]))
                    << "trial " << trial << " element " << i;
            }
        }
    }
}

}  // namespace
