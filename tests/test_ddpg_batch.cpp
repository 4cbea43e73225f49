// Minibatch kernels and the batched DDPG train step, held bitwise to their
// per-sample references on each dispatch backend:
//   * kernel level: gemm_batch / gemm_backward_batch vs a per-sample
//     gemm / gemm_backward loop in sample order, over the DDPG layer
//     widths, odd batch sizes, zero-heavy output gradients and null
//     outputs;
//   * agent level: DdpgAgent vs the per-sample train_step it replaced
//     (kept here as the reference), compared after 40 steps through act()
//     and every parameter, for gamma 0 and 0.9 with terminal transitions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

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

std::vector<GemmCase> gemm_cases() {
    std::vector<GemmCase> cases;
    for (const int in : {12, 13, 14, 64}) {
        for (const int batch : {1, 3, 4, 64}) {
            for (const int out : {1, 2, 7, 64}) {
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
            nn::kernels::gemm(c.out, c.in, w.data(), x.data() + s * in,
                              bias.data(), expected.data() + s * out);
        }
        std::vector<float> got(b * out);
        nn::kernels::gemm_batch(c.batch, c.out, c.in, w.data(), x.data(),
                                bias.data(), got.data());
        EXPECT_TRUE(bitwise_equal(got, expected)) << describe(c);
    }
}

/// Per-sample reference: gemm_backward once per sample, in order.
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
        nn::kernels::gemm_backward(c.out, c.in, w.data(), x.data() + s * in,
                                   gy.data() + s * out, seed.gx.data() + s * in,
                                   seed.gw.data(), seed.gb.data());
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
    nn::kernels::counters_reset();
}

INSTANTIATE_TEST_SUITE_P(Backends, GemmBatch,
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
/// every transition goes through the networks alone via the Layer API.
/// Constructed in the agent's order so its networks, replay sampling and
/// optimizers start from the same draws.
class PerSampleDdpg {
public:
    explicit PerSampleDdpg(const rl::DdpgConfig& config)
        : config_(config),
          rng_(config.seed),
          actor_(mlp_dims(config.state_dim, config.actor_hidden,
                          config.action_dim),
                 rl::OutputActivation::kSigmoid, rng_),
          actor_target_(mlp_dims(config.state_dim, config.actor_hidden,
                                 config.action_dim),
                        rl::OutputActivation::kSigmoid, rng_),
          critic_(mlp_dims(config.state_dim + config.action_dim,
                           config.critic_hidden, 1),
                  rl::OutputActivation::kNone, rng_),
          critic_target_(mlp_dims(config.state_dim + config.action_dim,
                                  config.critic_hidden, 1),
                         rl::OutputActivation::kNone, rng_),
          actor_opt_(config.actor_lr),
          critic_opt_(config.critic_lr),
          replay_(config.replay_capacity, config.seed ^ 0x5555) {
        actor_target_.copy_weights_from(actor_);
        critic_target_.copy_weights_from(critic_);
    }

    void remember(rl::Transition t) { replay_.push(std::move(t)); }

    std::vector<double> act(const std::vector<float>& state) {
        const nn::Tensor out = actor_.forward(tensor(state));
        return std::vector<double>(out.storage().begin(), out.storage().end());
    }

    void train_step() {
        if (replay_.size() < config_.batch_size) return;
        const auto batch = replay_.sample(config_.batch_size);
        const float inv_batch = 1.0F / static_cast<float>(batch.size());

        critic_.zero_grad();
        for (const rl::Transition* t : batch) {
            float y = t->reward;
            if (config_.gamma > 0.0F && !t->terminal) {
                const nn::Tensor next_action =
                    actor_target_.forward(tensor(t->next_state));
                const nn::Tensor q_next = critic_target_.forward(
                    joined(t->next_state, next_action.storage()));
                y += config_.gamma * q_next[0];
            }
            const nn::Tensor q = critic_.forward(joined(t->state, t->action));
            nn::Tensor grad({1});
            grad[0] = 2.0F * (q[0] - y);
            critic_.backward(grad);
        }
        critic_opt_.step(critic_.parameters(), critic_.gradients(), inv_batch);

        actor_.zero_grad();
        for (const rl::Transition* t : batch) {
            const nn::Tensor action = actor_.forward(tensor(t->state));
            critic_.zero_grad();
            critic_.forward(joined(t->state, action.storage()));
            nn::Tensor grad_q({1});
            grad_q[0] = -1.0F;
            const nn::Tensor grad_input = critic_.backward(grad_q);
            nn::Tensor grad_action({config_.action_dim});
            for (int i = 0; i < config_.action_dim; ++i) {
                grad_action[i] = grad_input[config_.state_dim + i];
            }
            actor_.backward(grad_action);
        }
        critic_.zero_grad();
        actor_opt_.step(actor_.parameters(), actor_.gradients(), inv_batch);

        actor_target_.soft_update_from(actor_, config_.tau);
        critic_target_.soft_update_from(critic_, config_.tau);
    }

    const rl::Mlp& actor() const { return actor_; }
    const rl::Mlp& critic() const { return critic_; }
    const rl::Mlp& actor_target() const { return actor_target_; }
    const rl::Mlp& critic_target() const { return critic_target_; }

private:
    static nn::Tensor tensor(const std::vector<float>& v) {
        return nn::Tensor({static_cast<int>(v.size())}, v);
    }
    static nn::Tensor joined(const std::vector<float>& a,
                             const std::vector<float>& b) {
        std::vector<float> v(a);
        v.insert(v.end(), b.begin(), b.end());
        return tensor(v);
    }

    rl::DdpgConfig config_;
    util::Rng rng_;
    rl::Mlp actor_;
    rl::Mlp actor_target_;
    rl::Mlp critic_;
    rl::Mlp critic_target_;
    nn::Adam actor_opt_;
    nn::Adam critic_opt_;
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

struct AgentCase {
    int action_dim;
    float gamma;
    int terminal_every;  ///< every n-th transition is terminal
};

void expect_agent_matches_reference(const AgentCase& c) {
    SCOPED_TRACE("action_dim " + std::to_string(c.action_dim) + ", gamma " +
                 std::to_string(c.gamma) + ", terminal every " +
                 std::to_string(c.terminal_every));
    rl::DdpgConfig config;
    config.state_dim = 12;  // the search's Eq. 9 observation
    config.action_dim = c.action_dim;
    config.gamma = c.gamma;
    config.replay_capacity = 256;
    config.seed = 77;
    rl::DdpgAgent agent(config);
    PerSampleDdpg reference(config);

    util::Rng rng(505);
    std::vector<std::vector<float>> probes;
    for (int i = 0; i < 4; ++i) probes.push_back(random_vector(12, rng));
    int pushed = 0;
    const auto push = [&](int count) {
        for (int i = 0; i < count; ++i, ++pushed) {
            const auto ad = static_cast<std::size_t>(c.action_dim);
            auto action = random_vector(ad, rng);
            for (float& a : action) a = 0.5F + 0.5F * a;
            const rl::Transition t{random_vector(12, rng), action,
                                   static_cast<float>(rng.uniform(-1.0, 1.0)),
                                   random_vector(12, rng),
                                   pushed % c.terminal_every == 0};
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
    if (c.gamma > 0.0F) {
        // With gamma == 0 the agent skips the (never read) target updates.
        EXPECT_TRUE(
            same_parameters(agent.actor_target(), reference.actor_target()));
        EXPECT_TRUE(
            same_parameters(agent.critic_target(), reference.critic_target()));
    }
}

using DdpgBatch = BackendTest;

TEST_P(DdpgBatch, EpisodeRewardBroadcastMatchesPerSampleTrainStep) {
    for (const int action_dim : {1, 2}) {
        expect_agent_matches_reference({action_dim, 0.0F, 3});
    }
}

TEST_P(DdpgBatch, DiscountedTargetsMatchPerSampleTrainStep) {
    for (const int action_dim : {1, 2}) {
        expect_agent_matches_reference({action_dim, 0.9F, 3});
    }
    // Every transition terminal: no target network pass at all.
    expect_agent_matches_reference({2, 0.9F, 1});
}

INSTANTIATE_TEST_SUITE_P(Backends, DdpgBatch,
                         testing::Values(Backend::kScalar, Backend::kAvx2),
                         backend_name);

}  // namespace
