// RL substrate tests: tabular Q-learning (Eq. 16), discretizers, replay
// buffer, OU noise, and DDPG on a continuous bandit (the MLP's gradient
// checks are in test_nn_layers.cpp).
#include <gtest/gtest.h>

#include <cmath>

#include "rl/ddpg.hpp"
#include "rl/qtable.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace {

using namespace imx;

rl::QLearningConfig greedy_config() {
    rl::QLearningConfig cfg;
    cfg.alpha = 0.5;
    cfg.gamma = 0.9;
    cfg.epsilon = 0.0;
    return cfg;
}

TEST(QTable, UpdateMatchesEq16ByHand) {
    rl::QLearningConfig cfg;
    cfg.alpha = 0.25;
    cfg.gamma = 0.5;
    cfg.epsilon = 0.0;
    cfg.initial_q = 0.0;
    rl::QTable q(2, 2, cfg);
    // Prime Q(s1, *) so max_a Q(s1, a) = 2.0.
    q.update_terminal(1, 0, 4.0);  // Q(1,0) = 0 + 0.25*(4-0) = 1.0
    q.update_terminal(1, 0, 4.0);  // Q(1,0) = 1 + 0.25*3 = 1.75
    EXPECT_NEAR(q.q(1, 0), 1.75, 1e-12);
    // Eq. 16: Q(0,1) += alpha*(r + gamma*maxQ(1,.) - Q(0,1)).
    q.update(0, 1, 1.0, 1);
    EXPECT_NEAR(q.q(0, 1), 0.25 * (1.0 + 0.5 * 1.75), 1e-12);
}

TEST(QTable, GreedyPicksArgmaxLowestTie) {
    rl::QTable q(1, 3, greedy_config());
    q.update_terminal(0, 2, 1.0);
    EXPECT_EQ(q.greedy(0), 2u);
    rl::QTable tie(1, 3, greedy_config());
    EXPECT_EQ(tie.greedy(0), 0u);
}

TEST(QTable, EpsilonDecays) {
    rl::QLearningConfig cfg;
    cfg.epsilon = 0.5;
    cfg.epsilon_decay = 0.9;
    cfg.epsilon_min = 0.1;
    rl::QTable q(1, 2, cfg);
    for (int i = 0; i < 100; ++i) (void)q.select(0);
    EXPECT_NEAR(q.epsilon(), 0.1, 1e-9);
}

TEST(QTable, ConvergesOnDeterministicChain) {
    // Two states: action 1 in s0 moves to s1 with r=0; in s1, action 0
    // yields r=1 (terminal). Optimal Q(s0,1) = gamma * 1.
    rl::QLearningConfig cfg;
    cfg.alpha = 0.3;
    cfg.gamma = 0.8;
    cfg.epsilon = 0.3;
    cfg.epsilon_decay = 1.0;
    rl::QTable q(2, 2, cfg, 5);
    for (int episode = 0; episode < 600; ++episode) {
        const std::size_t a0 = q.select(0);
        if (a0 == 1) {
            q.update(0, 1, 0.0, 1);
            const std::size_t a1 = q.select(1);
            q.update_terminal(1, a1, a1 == 0 ? 1.0 : 0.0);
        } else {
            q.update_terminal(0, 0, 0.0);
        }
    }
    EXPECT_EQ(q.greedy(0), 1u);
    EXPECT_EQ(q.greedy(1), 0u);
    EXPECT_NEAR(q.q(0, 1), 0.8, 0.1);
}

TEST(QTable, FootprintIsKbScale) {
    // The paper's LUT argument: 48 states x 3 actions of doubles ~ 1.2 KB.
    rl::QTable q(48, 3, greedy_config());
    EXPECT_LE(q.footprint_bytes(), 2048u);
}

TEST(Discretizer, BinsCoverRangeAndClamp) {
    rl::Discretizer d(0.0, 1.0, 4);
    EXPECT_EQ(d.bin(-5.0), 0u);
    EXPECT_EQ(d.bin(0.0), 0u);
    EXPECT_EQ(d.bin(0.26), 1u);
    EXPECT_EQ(d.bin(0.99), 3u);
    EXPECT_EQ(d.bin(1.0), 3u);
    EXPECT_EQ(d.bin(99.0), 3u);
}

TEST(ReplayBuffer, RingOverwritesOldest) {
    rl::ReplayBuffer buf(3);
    for (int i = 0; i < 5; ++i) {
        buf.push({{static_cast<float>(i)}, {0.0F}, 0.0F, {0.0F}, false});
    }
    EXPECT_EQ(buf.size(), 3u);
    // All remaining states must be from {2, 3, 4}.
    const auto sample = buf.sample(64);
    for (const auto* t : sample) {
        EXPECT_GE(t->state[0], 2.0F);
    }
}

TEST(OuNoise, RevertsTowardZeroWithoutDiffusion) {
    rl::OuNoise noise(1, 0.5, 0.0, 1);
    // Kick the state by sampling with sigma 0 after manual excursion: the
    // state starts at 0 and stays there when sigma = 0.
    auto v = noise.sample();
    EXPECT_EQ(v[0], 0.0);
}

TEST(OuNoise, SigmaControlsSpread) {
    rl::OuNoise small(1, 0.15, 0.05, 2);
    rl::OuNoise large(1, 0.15, 0.5, 2);
    util::RunningStats s_small;
    util::RunningStats s_large;
    for (int i = 0; i < 2000; ++i) {
        s_small.add(small.sample()[0]);
        s_large.add(large.sample()[0]);
    }
    EXPECT_LT(s_small.stddev(), s_large.stddev());
}

TEST(Ddpg, LearnsContinuousBandit) {
    // Centered reward -4 (a - 0.7)^2: optimum at a = 0.7. (Centering matters:
    // with a large constant offset the critic's action gradient drowns — the
    // same reason the compression search subtracts a moving baseline.)
    rl::DdpgConfig cfg;
    cfg.state_dim = 2;
    cfg.action_dim = 1;
    cfg.actor_hidden = {16, 16};
    cfg.critic_hidden = {16, 16};
    cfg.batch_size = 32;
    cfg.replay_capacity = 512;
    cfg.ou_sigma = 0.3;
    cfg.ou_sigma_decay = 0.99;
    cfg.seed = 9;
    rl::DdpgAgent agent(cfg);
    const std::vector<float> state = {0.5F, 0.5F};
    for (int episode = 0; episode < 200; ++episode) {
        const auto a = agent.act_noisy(state);
        const float r =
            -4.0F * static_cast<float>((a[0] - 0.7) * (a[0] - 0.7));
        agent.remember({state, {static_cast<float>(a[0])}, r, state, true});
        for (int t = 0; t < 4; ++t) agent.train_step();
        agent.end_episode();
    }
    const auto a = agent.act(state);
    EXPECT_NEAR(a[0], 0.7, 0.1);
}

TEST(Ddpg, ActionsStayInUnitBox) {
    rl::DdpgConfig cfg;
    cfg.state_dim = 3;
    cfg.action_dim = 2;
    cfg.ou_sigma = 2.0;  // violent noise
    rl::DdpgAgent agent(cfg);
    const std::vector<float> state = {0.1F, 0.9F, 0.3F};
    for (int i = 0; i < 50; ++i) {
        const auto a = agent.act_noisy(state);
        for (const double v : a) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

TEST(Ddpg, RejectsWrongStateDimension) {
    rl::DdpgConfig cfg;
    cfg.state_dim = 4;
    cfg.action_dim = 1;
    rl::DdpgAgent agent(cfg);
    EXPECT_THROW((void)agent.act({1.0F, 2.0F}), util::ContractViolation);
}

}  // namespace
