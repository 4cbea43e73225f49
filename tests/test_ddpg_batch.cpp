// Minibatch kernels and the batched DDPG train step, held bitwise to their
// per-sample references on each dispatch backend:
//   * kernel level: gemm_batch / gemm_backward_batch vs the per-sample
//     loops of tests/network_reference.hpp (forward in the backend's own
//     order) run in sample order, over the DDPG layer widths and the edges
//     of every vector path, odd batch sizes, zero-heavy, NaN and infinite
//     output gradients, -0 seeds, null outputs and grad_x column ranges;
//   * adam_update vs the loop Adam::step used to run (kept here as the
//     reference), over every class of subnormal, zero and normal moment
//     and gradient, bit-equal after every step;
//   * agent level: DdpgAgent vs the per-sample train_step it replaced
//     (kept here as the reference, on network_reference.hpp's per-sample
//     MLP), compared after 40 steps through act() and every parameter;
//   * search level: the trained search on the paper setup, pinned by a
//     hash of its per-episode rewards.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/accuracy_model.hpp"
#include "core/experiment_setup.hpp"
#include "core/multi_exit_spec.hpp"
#include "core/search.hpp"
#include "core/trace_eval.hpp"
#include "network_reference.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/train.hpp"
#include "rl/ddpg.hpp"
#include "rl/mlp.hpp"
#include "util/rng.hpp"

namespace imx::nn::kernels {
// Found by ADL: failure messages name the backend instead of its bytes.
void PrintTo(Backend backend, std::ostream* os) {
    *os << to_string(backend);
}
}  // namespace imx::nn::kernels

namespace {

using namespace imx;
using nn::kernels::Backend;

bool avx2_available() {
    return nn::kernels::avx2_kernels_compiled() &&
           nn::kernels::cpu_supports_avx2();
}

/// Each test pins its backend and restores the dispatch selection on exit.
class BackendTest : public testing::TestWithParam<Backend> {
protected:
    void SetUp() override {
        if (GetParam() == Backend::kAvx2 && !avx2_available()) {
            GTEST_SKIP() << "AVX2 unavailable";
        }
        nn::kernels::force_backend(GetParam());
    }
    void TearDown() override { nn::kernels::clear_backend_override(); }
};

std::string backend_name(const testing::TestParamInfo<Backend>& info) {
    return nn::kernels::to_string(info.param);
}

testing::AssertionResult bitwise_equal(const std::vector<float>& a,
                                       const std::vector<float>& b) {
    if (a.size() != b.size()) {
        return testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
            return testing::AssertionFailure()
                   << "element " << i << ": " << a[i] << " vs " << b[i];
        }
    }
    return testing::AssertionSuccess();
}

std::vector<float> random_vector(std::size_t n, util::Rng& rng,
                                 double zero_share = 0.0) {
    std::vector<float> v(n);
    for (float& x : v) {
        const double u = rng.uniform();
        if (u < zero_share / 2) {
            x = 0.0F;
        } else if (u < zero_share) {
            x = -0.0F;
        } else {
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
    }
    return v;
}

// ---------------------------------------------------------------------------
// Kernel level
// ---------------------------------------------------------------------------

struct GemmCase {
    int batch;
    int out;
    int in;
};

/// The DDPG widths (12/13/14 -> 64 -> 64 -> 1/2) plus the edges of every
/// vector path: input widths around 8, 16 and 32 (the narrow grad_w and
/// grad_x paths start below 32 and 16), row counts around 8.
std::vector<GemmCase> gemm_cases() {
    std::vector<GemmCase> cases;
    for (const int in : {1, 2, 7, 8, 9, 12, 13, 14, 15, 16, 17, 31, 32, 64}) {
        for (const int batch : {1, 3, 4, 64}) {
            for (const int out : {1, 2, 7, 8, 9, 16, 64}) {
                cases.push_back({batch, out, in});
            }
        }
    }
    return cases;
}

std::string describe(const GemmCase& c) {
    return "batch " + std::to_string(c.batch) + ", " + std::to_string(c.in) +
           " -> " + std::to_string(c.out);
}

using GemmBatch = BackendTest;

TEST_P(GemmBatch, ForwardMatchesPerSampleLoop) {
    util::Rng rng(101);
    for (const GemmCase& c : gemm_cases()) {
        const auto b = static_cast<std::size_t>(c.batch);
        const auto in = static_cast<std::size_t>(c.in);
        const auto out = static_cast<std::size_t>(c.out);
        const auto w = random_vector(out * in, rng);
        const auto bias = random_vector(out, rng);
        const auto x = random_vector(b * in, rng, 0.3);
        std::vector<float> expected(b * out);
        for (std::size_t s = 0; s < b; ++s) {
            test::reference_gemm(GetParam(), c.out, c.in, w.data(),
                                 x.data() + s * in, bias.data(),
                                 expected.data() + s * out);
        }
        std::vector<float> got(b * out);
        nn::kernels::gemm_batch(c.batch, c.out, c.in, w.data(), x.data(),
                                bias.data(), got.data());
        EXPECT_TRUE(bitwise_equal(got, expected)) << describe(c);
    }
}

/// Per-sample reference: the restated gemm backward once per sample, in
/// order.
struct BackwardResult {
    std::vector<float> gx;
    std::vector<float> gw;
    std::vector<float> gb;
};

BackwardResult per_sample_backward(const GemmCase& c,
                                   const std::vector<float>& w,
                                   const std::vector<float>& x,
                                   const std::vector<float>& gy,
                                   BackwardResult seed) {
    const auto in = static_cast<std::size_t>(c.in);
    const auto out = static_cast<std::size_t>(c.out);
    seed.gx.assign(static_cast<std::size_t>(c.batch) * in, 0.0F);
    for (std::size_t s = 0; s < static_cast<std::size_t>(c.batch); ++s) {
        test::reference_gemm_backward(c.out, c.in, w.data(), x.data() + s * in,
                                      gy.data() + s * out,
                                      seed.gx.data() + s * in, seed.gw.data(),
                                      seed.gb.data());
    }
    return seed;
}

TEST_P(GemmBatch, BackwardMatchesPerSampleLoop) {
    util::Rng rng(202);
    for (const GemmCase& c : gemm_cases()) {
        const auto b = static_cast<std::size_t>(c.batch);
        const auto in = static_cast<std::size_t>(c.in);
        const auto out = static_cast<std::size_t>(c.out);
        const auto w = random_vector(out * in, rng);
        const auto x = random_vector(b * in, rng, 0.2);
        // ReLU-masked gradients are half zeros; the skips must line up.
        const auto gy = random_vector(b * out, rng, 0.5);
        // Accumulated outputs start from a prior minibatch's values.
        const BackwardResult seed{{}, random_vector(out * in, rng, 0.1),
                                  random_vector(out, rng, 0.1)};
        const BackwardResult expected = per_sample_backward(c, w, x, gy, seed);

        BackwardResult got = seed;
        got.gx.assign(b * in, 7.0F);  // overwritten, not accumulated
        nn::kernels::gemm_backward_batch(c.batch, c.out, c.in, w.data(),
                                         x.data(), gy.data(), got.gx.data(),
                                         got.gw.data(), got.gb.data());
        EXPECT_TRUE(bitwise_equal(got.gx, expected.gx)) << describe(c);
        EXPECT_TRUE(bitwise_equal(got.gw, expected.gw)) << describe(c);
        EXPECT_TRUE(bitwise_equal(got.gb, expected.gb)) << describe(c);
    }
}

/// Columns [first, in) of each [batch x in] row, as a compact
/// [batch x (in - first)] buffer.
std::vector<float> columns_from(const std::vector<float>& full, int batch,
                                int in, int first) {
    std::vector<float> out;
    for (int s = 0; s < batch; ++s) {
        const auto row = full.begin() + static_cast<std::ptrdiff_t>(s) * in;
        out.insert(out.end(), row + first, row + in);
    }
    return out;
}

TEST_P(GemmBatch, GradXColumnRangeIsTheFullGradientsColumns) {
    util::Rng rng(707);
    for (const GemmCase& c : gemm_cases()) {
        const auto b = static_cast<std::size_t>(c.batch);
        const auto in = static_cast<std::size_t>(c.in);
        const auto out = static_cast<std::size_t>(c.out);
        const auto w = random_vector(out * in, rng);
        const auto x = random_vector(b * in, rng);
        const auto gy = random_vector(b * out, rng, 0.5);
        const BackwardResult full = per_sample_backward(
            c, w, x, gy, {{}, random_vector(out * in, rng),
                          random_vector(out, rng)});
        for (const int first : {0, c.in - 2, c.in - 1}) {
            if (first < 0) continue;
            const auto width = static_cast<std::size_t>(c.in - first);
            std::vector<float> gx(b * width, 7.0F);
            nn::kernels::gemm_backward_batch(c.batch, c.out, c.in, w.data(),
                                             nullptr, gy.data(), gx.data(),
                                             nullptr, nullptr, first);
            EXPECT_TRUE(bitwise_equal(
                gx, columns_from(full.gx, c.batch, c.in, first)))
                << describe(c) << ", first column " << first;
        }
    }
}

TEST_P(GemmBatch, SkipsZeroGradientsOnlyAndKeepsSignedZeros) {
    // go == 0 (either sign) skips a sample's term; NaN and +-inf do not.
    // Seeds hold -0.0f, which a skipped term must leave alone, and x and w
    // hold infinities, which a skipped term must not turn into NaN. The
    // one NaN used is the default NaN, so NaN + NaN is the same bits in
    // any order.
    const float nan = -std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    util::Rng rng(808);
    for (const GemmCase& c : gemm_cases()) {
        const auto b = static_cast<std::size_t>(c.batch);
        const auto in = static_cast<std::size_t>(c.in);
        const auto out = static_cast<std::size_t>(c.out);
        auto w = random_vector(out * in, rng);
        auto x = random_vector(b * in, rng, 0.2);
        auto gy = random_vector(b * out, rng, 0.5);
        w[static_cast<std::size_t>(rng.uniform_int(0, c.out * c.in - 1))] =
            -inf;
        for (std::size_t i = 0; i < gy.size(); ++i) {
            const double u = rng.uniform();
            if (u < 0.02) {
                gy[i] = nan;
            } else if (u < 0.04) {
                gy[i] = u < 0.03 ? inf : -inf;
            }
        }
        x[static_cast<std::size_t>(rng.uniform_int(0, c.batch * c.in - 1))] =
            inf;
        const BackwardResult seed{{}, std::vector<float>(out * in, -0.0F),
                                  std::vector<float>(out, -0.0F)};
        const BackwardResult expected = per_sample_backward(c, w, x, gy, seed);
        BackwardResult got = seed;
        got.gx.assign(b * in, 7.0F);
        nn::kernels::gemm_backward_batch(c.batch, c.out, c.in, w.data(),
                                         x.data(), gy.data(), got.gx.data(),
                                         got.gw.data(), got.gb.data());
        EXPECT_TRUE(bitwise_equal(got.gx, expected.gx)) << describe(c);
        EXPECT_TRUE(bitwise_equal(got.gw, expected.gw)) << describe(c);
        EXPECT_TRUE(bitwise_equal(got.gb, expected.gb)) << describe(c);
        // The action-column form of the same gradient.
        const int first = c.in - 1;
        std::vector<float> gx(b, 7.0F);
        nn::kernels::gemm_backward_batch(c.batch, c.out, c.in, w.data(),
                                         nullptr, gy.data(), gx.data(),
                                         nullptr, nullptr, first);
        EXPECT_TRUE(bitwise_equal(
            gx, columns_from(expected.gx, c.batch, c.in, first)))
            << describe(c);
    }
}

TEST_P(GemmBatch, NullOutputsAreSkippedAndTheRestStillMatch) {
    util::Rng rng(303);
    for (const GemmCase& c : gemm_cases()) {
        const auto b = static_cast<std::size_t>(c.batch);
        const auto in = static_cast<std::size_t>(c.in);
        const auto out = static_cast<std::size_t>(c.out);
        const auto w = random_vector(out * in, rng);
        const auto x = random_vector(b * in, rng);
        const auto gy = random_vector(b * out, rng, 0.5);
        const BackwardResult seed{{}, random_vector(out * in, rng),
                                  random_vector(out, rng)};
        const BackwardResult expected = per_sample_backward(c, w, x, gy, seed);

        // Input gradient only (the critic in the actor pass): x unused.
        std::vector<float> gx(b * in);
        nn::kernels::gemm_backward_batch(c.batch, c.out, c.in, w.data(),
                                         nullptr, gy.data(), gx.data(),
                                         nullptr, nullptr);
        EXPECT_TRUE(bitwise_equal(gx, expected.gx)) << describe(c);

        // Parameter gradients only (a first layer).
        BackwardResult params = seed;
        nn::kernels::gemm_backward_batch(c.batch, c.out, c.in, w.data(),
                                         x.data(), gy.data(), nullptr,
                                         params.gw.data(), params.gb.data());
        EXPECT_TRUE(bitwise_equal(params.gw, expected.gw)) << describe(c);
        EXPECT_TRUE(bitwise_equal(params.gb, expected.gb)) << describe(c);

        // Bias gradient alone.
        std::vector<float> gb = seed.gb;
        nn::kernels::gemm_backward_batch(c.batch, c.out, c.in, w.data(),
                                         nullptr, gy.data(), nullptr, nullptr,
                                         gb.data());
        EXPECT_TRUE(bitwise_equal(gb, expected.gb)) << describe(c);
    }
}

TEST_P(GemmBatch, CountersTallyOneCallAndTheMacsPerformed) {
    const int batch = 64;
    const int out = 64;
    const int in = 14;
    util::Rng rng(404);
    const auto w = random_vector(64 * 14, rng);
    const auto x = random_vector(64 * 14, rng);
    const auto bias = random_vector(64, rng);
    std::vector<float> y(64 * 64);
    std::vector<float> gx(64 * 14);
    std::vector<float> gw(64 * 14);
    std::vector<float> gb(64);
    const std::uint64_t macs = 64U * 64U * 14U;

    nn::kernels::counters_reset();
    nn::kernels::gemm_batch(batch, out, in, w.data(), x.data(), bias.data(),
                            y.data());
    auto c = nn::kernels::counters_snapshot();
    EXPECT_EQ(c.gemm_calls, 1U);
    EXPECT_EQ(c.gemm_macs, macs);

    nn::kernels::counters_reset();
    nn::kernels::gemm_backward_batch(batch, out, in, w.data(), x.data(),
                                     y.data(), gx.data(), gw.data(), gb.data());
    nn::kernels::gemm_backward_batch(batch, out, in, w.data(), x.data(),
                                     y.data(), nullptr, gw.data(), gb.data());
    nn::kernels::gemm_backward_batch(batch, out, in, w.data(), nullptr,
                                     y.data(), nullptr, nullptr, gb.data());
    c = nn::kernels::counters_snapshot();
    EXPECT_EQ(c.gemm_calls, 3U);
    EXPECT_EQ(c.gemm_macs, 2 * macs + macs + 0);

    // A grad_x column range computes batch * out MACs per column it holds.
    nn::kernels::counters_reset();
    nn::kernels::gemm_backward_batch(batch, out, in, w.data(), nullptr,
                                     y.data(), gx.data(), nullptr, nullptr,
                                     12);
    nn::kernels::gemm_backward_batch(batch, out, in, w.data(), x.data(),
                                     y.data(), gx.data(), gw.data(), gb.data(),
                                     13);
    c = nn::kernels::counters_snapshot();
    EXPECT_EQ(c.gemm_calls, 2U);
    EXPECT_EQ(c.gemm_macs, 64U * 64U * 2U + 64U * 64U * (1U + 14U));
    nn::kernels::counters_reset();
}

INSTANTIATE_TEST_SUITE_P(Backends, GemmBatch,
                         testing::Values(Backend::kScalar, Backend::kAvx2),
                         backend_name);

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

/// The per-lane loop nn::Adam::step ran before kernels::adam_update(), kept
/// as the reference: plain float operations, subnormal operands and all.
void reference_adam_update(const nn::kernels::AdamStep& s, std::int64_t n,
                           float* p, const float* g, float* m, float* v) {
    for (std::int64_t j = 0; j < n; ++j) {
        const float grad_j = g[j] * s.scale;
        m[j] = s.beta1 * m[j] + (1.0F - s.beta1) * grad_j;
        v[j] = s.beta2 * v[j] + (1.0F - s.beta2) * grad_j * grad_j;
        const float m_hat = m[j] / s.bc1;
        const float v_hat = v[j] / s.bc2;
        p[j] -= s.lr * m_hat / (std::sqrt(v_hat) + s.eps);
    }
}

/// nn::Adam as it was, on reference_adam_update(): the optimizer of the
/// per-sample DDPG reference below.
class ReferenceAdam {
public:
    explicit ReferenceAdam(float lr) : lr_(lr) {}

    void step(const std::vector<nn::Tensor*>& params,
              const std::vector<nn::Tensor*>& grads, float scale) {
        if (m_.empty()) {
            for (const nn::Tensor* p : params) {
                m_.emplace_back(nn::Tensor::zeros(p->shape()));
                v_.emplace_back(nn::Tensor::zeros(p->shape()));
            }
        }
        ++t_;
        const nn::kernels::AdamStep s{
            lr_, 0.9F, 0.999F, 1e-8F,
            1.0F - std::pow(0.9F, static_cast<float>(t_)),
            1.0F - std::pow(0.999F, static_cast<float>(t_)), scale};
        for (std::size_t i = 0; i < params.size(); ++i) {
            reference_adam_update(s, params[i]->numel(), params[i]->data(),
                                  grads[i]->data(), m_[i].data(),
                                  v_[i].data());
        }
    }

private:
    float lr_;
    std::int64_t t_ = 0;
    std::vector<nn::Tensor> m_;
    std::vector<nn::Tensor> v_;
};

float from_bits(std::uint32_t b) {
    float x = 0.0F;
    std::memcpy(&x, &b, sizeof x);
    return x;
}

/// One value of each moment class, both signs: normal, small normal (lr *
/// m lands below 2^-126), stuck subnormal (k * 2^-149 with k <= 4, which
/// 0.9f * m rounds back to itself), decaying subnormal (k > 4), and zeros.
std::vector<float> moment_classes(util::Rng& rng) {
    std::vector<float> out;
    for (const float sign : {1.0F, -1.0F}) {
        out.push_back(sign * static_cast<float>(rng.uniform(1e-3, 1.0)));
        out.push_back(sign * static_cast<float>(rng.uniform(1.0, 8.0)) *
                      0x1p-120F);
        for (std::uint32_t k = 1; k <= 4; ++k) {
            out.push_back(sign * from_bits(k));
        }
        for (const std::uint32_t k : {5U, 77U, 0x1234U, 0x7fffffU}) {
            out.push_back(sign * from_bits(k));
        }
        out.push_back(sign * 0.0F);
    }
    return out;
}

/// Gradients: zeros of both signs, tiny values (g * scale is subnormal)
/// and normal ones.
std::vector<float> gradient_classes(util::Rng& rng) {
    std::vector<float> out;
    for (const float sign : {1.0F, -1.0F}) {
        out.push_back(sign * 0.0F);
        out.push_back(sign * static_cast<float>(rng.uniform(1.0, 2.0)) *
                      0x1p-130F);
        out.push_back(sign * static_cast<float>(rng.uniform(1e-3, 1.0)));
    }
    return out;
}

/// Every combination of the moment classes for m and v and the gradient
/// classes for g, one lane each, against the reference for steps t =
/// first_step..last_step, bit-equal after every step.
void expect_adam_matches_reference(float lr, float eps, int first_step,
                                   int last_step) {
    SCOPED_TRACE("lr " + std::to_string(lr) + ", eps " + std::to_string(eps));
    util::Rng rng(606);
    const std::vector<float> moments = moment_classes(rng);
    const std::vector<float> gradients = gradient_classes(rng);
    std::vector<float> p;
    std::vector<float> g;
    std::vector<float> m;
    std::vector<float> v;
    const auto lane = [&](float mi, float vi, float gi) {
        // Parameters of either sign, with some zeros of both signs,
        // infinities and values beyond 2^64.
        const float specials[] = {-0.0F, 0.0F, INFINITY, -INFINITY, 1e30F,
                                  -1e30F};
        const std::size_t at = p.size() % 32;
        p.push_back(at < 6 ? specials[at]
                           : static_cast<float>(rng.uniform(-1.0, 1.0)));
        g.push_back(gi);
        m.push_back(mi);
        v.push_back(vi);
    };
    for (const float mi : moments) {
        for (const float vi : moments) {
            for (const float gi : gradients) lane(mi, vi, gi);
        }
    }
    // Whole vectors of one class, so that vectors of stuck lanes occur.
    for (const float mi : moments) {
        for (const float vi : {moments.front(), -moments.front()}) {
            for (const float gi : {0.0F, -0.0F}) {
                for (int k = 0; k < 16; ++k) lane(mi, vi, gi);
            }
        }
    }
    // A lane count that is not a multiple of the vector width.
    p.push_back(0.25F);
    g.push_back(0.0F);
    m.push_back(from_bits(3));
    v.push_back(0.5F);
    const auto n = static_cast<std::int64_t>(p.size());
    ASSERT_NE(n % 8, 0);

    std::vector<float> want_p = p;
    std::vector<float> want_m = m;
    std::vector<float> want_v = v;
    for (int t = first_step; t <= last_step; ++t) {
        const nn::kernels::AdamStep s{
            lr, 0.9F, 0.999F, eps,
            1.0F - std::pow(0.9F, static_cast<float>(t)),
            1.0F - std::pow(0.999F, static_cast<float>(t)), 1.0F / 64.0F};
        nn::kernels::adam_update(s, n, p.data(), g.data(), m.data(),
                                 v.data());
        reference_adam_update(s, n, want_p.data(), g.data(), want_m.data(),
                              want_v.data());
        ASSERT_TRUE(bitwise_equal(m, want_m)) << "m after step " << t;
        ASSERT_TRUE(bitwise_equal(v, want_v)) << "v after step " << t;
        ASSERT_TRUE(bitwise_equal(p, want_p)) << "p after step " << t;
    }
}

using AdamUpdate = BackendTest;

TEST_P(AdamUpdate, BitwiseEqualToThePlainLoopOnEveryLaneClass) {
    // t crosses 165, where bc1 = 1 - 0.9^t rounds to exactly 1, and the
    // zero-gradient lanes decay through the whole subnormal range.
    expect_adam_matches_reference(1e-3F, 1e-8F, 1, 1200);
    // Starting past 165: the seeded lanes meet bc1 == 1 as they are, so
    // stuck first moments meet p = -0.
    expect_adam_matches_reference(1e-3F, 1e-8F, 200, 210);
}

TEST_P(AdamUpdate, BitwiseEqualOutsideTheEmulatedRange) {
    // lr > 1 or eps < 2^-32 leave the emulation's bounds: the groups with
    // a tiny first moment take the plain loop.
    expect_adam_matches_reference(2.0F, 1e-8F, 1, 200);
    expect_adam_matches_reference(1e-3F, 1e-40F, 1, 200);
}

TEST_P(AdamUpdate, CountersTallyOneCallAndItsLanes) {
    std::vector<float> p(37, 0.5F);
    std::vector<float> g(37, 0.25F);
    std::vector<float> m(37);
    std::vector<float> v(37);
    const nn::kernels::AdamStep s{1e-3F, 0.9F, 0.999F, 1e-8F, 0.1F, 0.001F,
                                  1.0F};
    nn::kernels::counters_reset();
    nn::kernels::adam_update(s, 37, p.data(), g.data(), m.data(), v.data());
    const auto c = nn::kernels::counters_snapshot();
    EXPECT_EQ(c.adam_calls, 1U);
    EXPECT_EQ(c.adam_lanes, 37U);
    nn::kernels::counters_reset();
}

INSTANTIATE_TEST_SUITE_P(Backends, AdamUpdate,
                         testing::Values(Backend::kScalar, Backend::kAvx2),
                         backend_name);

// ---------------------------------------------------------------------------
// Agent level
// ---------------------------------------------------------------------------

std::vector<int> mlp_dims(int in, const std::vector<int>& hidden, int out) {
    std::vector<int> dims{in};
    dims.insert(dims.end(), hidden.begin(), hidden.end());
    dims.push_back(out);
    return dims;
}

/// The per-sample DDPG update DdpgAgent ran before its minibatch passes:
/// every transition goes through the networks alone, on
/// test::ReferenceMlp.
/// Constructed in the agent's order so its networks, replay sampling and
/// optimizers start from the same draws (the agent's dropped actor-shaped
/// draw included).
class PerSampleDdpg {
public:
    explicit PerSampleDdpg(const rl::DdpgConfig& config)
        : config_(config),
          rng_(config.seed),
          actor_(mlp_dims(config.state_dim, config.actor_hidden,
                          config.action_dim),
                 rl::OutputActivation::kSigmoid, rng_),
          dropped_(mlp_dims(config.state_dim, config.actor_hidden,
                            config.action_dim),
                   rl::OutputActivation::kSigmoid, rng_),
          critic_(mlp_dims(config.state_dim + config.action_dim,
                           config.critic_hidden, 1),
                  rl::OutputActivation::kNone, rng_),
          actor_pass_(actor_, rl::OutputActivation::kSigmoid,
                      nn::kernels::active_backend()),
          critic_pass_(critic_, rl::OutputActivation::kNone,
                       nn::kernels::active_backend()),
          actor_opt_(config.actor_lr),
          critic_opt_(config.critic_lr),
          replay_(config.replay_capacity, config.seed ^ 0x5555) {}

    void remember(rl::Transition t) { replay_.push(std::move(t)); }

    std::vector<double> act(const std::vector<float>& state) {
        const std::vector<float> out = actor_pass_.forward(state);
        return std::vector<double>(out.begin(), out.end());
    }

    void train_step() {
        if (replay_.size() < config_.batch_size) return;
        const auto batch = replay_.sample(config_.batch_size);
        const float inv_batch = 1.0F / static_cast<float>(batch.size());

        critic_.zero_grad();
        for (const rl::Transition* t : batch) {
            const std::vector<float> q =
                critic_pass_.forward(joined(t->state, t->action));
            critic_pass_.backward({2.0F * (q[0] - t->reward)});
        }
        critic_opt_.step(critic_.parameters(), critic_.gradients(), inv_batch);

        actor_.zero_grad();
        for (const rl::Transition* t : batch) {
            const std::vector<float> action = actor_pass_.forward(t->state);
            critic_.zero_grad();
            critic_pass_.forward(joined(t->state, action));
            const std::vector<float> grad_input = critic_pass_.backward({-1.0F});
            actor_pass_.backward(std::vector<float>(
                grad_input.begin() + config_.state_dim, grad_input.end()));
        }
        critic_.zero_grad();
        actor_opt_.step(actor_.parameters(), actor_.gradients(), inv_batch);
    }

    const rl::Mlp& actor() const { return actor_; }
    const rl::Mlp& critic() const { return critic_; }

private:
    static std::vector<float> joined(const std::vector<float>& a,
                                     const std::vector<float>& b) {
        std::vector<float> v(a);
        v.insert(v.end(), b.begin(), b.end());
        return v;
    }

    rl::DdpgConfig config_;
    util::Rng rng_;
    rl::Mlp actor_;
    rl::Mlp dropped_;
    rl::Mlp critic_;
    test::ReferenceMlp actor_pass_;
    test::ReferenceMlp critic_pass_;
    ReferenceAdam actor_opt_;
    ReferenceAdam critic_opt_;
    rl::ReplayBuffer replay_;
};

testing::AssertionResult same_parameters(const rl::Mlp& a, const rl::Mlp& b) {
    const auto& pa = a.parameters();
    const auto& pb = b.parameters();
    if (pa.size() != pb.size()) return testing::AssertionFailure() << "layout";
    for (std::size_t i = 0; i < pa.size(); ++i) {
        auto result = bitwise_equal(pa[i]->storage(), pb[i]->storage());
        if (!result) return result << " (parameter tensor " << i << ")";
    }
    return testing::AssertionSuccess();
}

void expect_agent_matches_reference(int action_dim) {
    SCOPED_TRACE("action_dim " + std::to_string(action_dim));
    rl::DdpgConfig config;
    config.state_dim = 12;  // the search's Eq. 9 observation
    config.action_dim = action_dim;
    config.replay_capacity = 256;
    config.seed = 77;
    rl::DdpgAgent agent(config);
    PerSampleDdpg reference(config);

    util::Rng rng(505);
    std::vector<std::vector<float>> probes;
    for (int i = 0; i < 4; ++i) probes.push_back(random_vector(12, rng));
    const auto push = [&](int count) {
        for (int i = 0; i < count; ++i) {
            const auto ad = static_cast<std::size_t>(action_dim);
            auto action = random_vector(ad, rng);
            for (float& a : action) a = 0.5F + 0.5F * a;
            const rl::Transition t{random_vector(12, rng), action,
                                   static_cast<float>(rng.uniform(-1.0, 1.0)),
                                   {}, false};
            agent.remember(t);
            reference.remember(t);
        }
    };
    push(80);
    for (int step = 0; step < 40; ++step) {
        agent.train_step();
        reference.train_step();
        if (step % 8 == 7) push(12);
    }

    for (const auto& state : probes) {
        const auto got = agent.act(state);
        const auto want = reference.act(state);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
                << got[i] << " vs " << want[i];
        }
    }
    EXPECT_TRUE(same_parameters(agent.actor(), reference.actor()));
    EXPECT_TRUE(same_parameters(agent.critic(), reference.critic()));
}

using DdpgBatch = BackendTest;

TEST_P(DdpgBatch, EpisodeRewardBroadcastMatchesPerSampleTrainStep) {
    for (const int action_dim : {1, 2}) {
        expect_agent_matches_reference(action_dim);
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, DdpgBatch,
                         testing::Values(Backend::kScalar, Backend::kAvx2),
                         backend_name);

// ---------------------------------------------------------------------------
// Search level
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const void* bytes, std::size_t size) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

using DdpgSearchPin = BackendTest;

/// The trained search on the paper setup, pinned by an FNV-1a hash of its
/// per-episode rewards. The stdout goldens cannot see the agents' initial
/// weights (fig4 prints a best policy found in warm-up or annealing); this
/// hash moves with any change to an agent's weights, draws or update.
TEST_P(DdpgSearchPin, PaperSetupEpisodeRewardsAreBitExact) {
    const core::ExperimentSetup setup = core::make_paper_setup();
    const core::AccuracyModel oracle(
        setup.network, {core::kPaperFullPrecisionAcc.begin(),
                        core::kPaperFullPrecisionAcc.end()});
    const core::StaticTraceEvaluator trace_eval(
        setup.trace, setup.events, core::paper_storage_config(),
        core::kEnergyPerMMacMj);
    const core::PolicyEvaluator evaluator(setup.network, oracle, trace_eval,
                                          core::paper_constraints(), true);
    core::SearchConfig cfg;
    cfg.episodes = 48;
    core::CompressionSearch search(evaluator, cfg);
    const std::vector<double> rewards = search.run_ddpg().episode_reward;
    ASSERT_EQ(rewards.size(), 48U);
    // The backends' gemm sums differ by a few ULPs, which in 48 episodes
    // change no discretized policy, so one hash serves both.
    EXPECT_EQ(fnv1a(rewards.data(), rewards.size() * sizeof(double)),
              0x191d2015d13b5637ULL);
}

INSTANTIATE_TEST_SUITE_P(Backends, DdpgSearchPin,
                         testing::Values(Backend::kScalar, Backend::kAvx2),
                         backend_name);

}  // namespace
