// Deep Deterministic Policy Gradient (Lillicrap et al.), the search engine of
// the paper's nonuniform compression phase (Sec. III-B, Eq. 13-15).
//
// The compression episodes are short (one step per network layer) and the
// reward arrives at episode end; like AMC/HAQ, transitions are stored with
// the episode's final reward so each (state, action) is judged by the
// quality of the full policy it contributed to.
#ifndef IMX_RL_DDPG_HPP
#define IMX_RL_DDPG_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/train.hpp"
#include "rl/mlp.hpp"
#include "util/rng.hpp"

namespace imx::rl {

/// One transition. The critic regresses on `reward` alone (y = r), so
/// `next_state` and `terminal` are unread; they stay only because callers
/// brace-initialize all five fields.
struct Transition {
    std::vector<float> state;
    std::vector<float> action;
    float reward = 0.0F;
    std::vector<float> next_state;
    bool terminal = false;
};

/// Fixed-capacity ring replay buffer with uniform sampling.
class ReplayBuffer {
public:
    explicit ReplayBuffer(std::size_t capacity, std::uint64_t seed = 23);
    void push(Transition t);
    [[nodiscard]] std::size_t size() const { return buffer_.size(); }
    [[nodiscard]] bool empty() const { return buffer_.empty(); }
    /// Sample with replacement.
    std::vector<const Transition*> sample(std::size_t count);

private:
    std::size_t capacity_;
    std::size_t next_ = 0;
    std::vector<Transition> buffer_;
    util::Rng rng_;
};

/// Ornstein-Uhlenbeck exploration noise.
class OuNoise {
public:
    OuNoise(std::size_t dims, double theta, double sigma, std::uint64_t seed);
    std::vector<double> sample();
    void reset();
    void scale_sigma(double factor);
    [[nodiscard]] double sigma() const { return sigma_; }

private:
    double theta_;
    double sigma_;
    std::vector<double> state_;
    util::Rng rng_;
};

struct DdpgConfig {
    int state_dim = 0;
    int action_dim = 0;
    std::vector<int> actor_hidden = {64, 64};
    std::vector<int> critic_hidden = {64, 64};
    float actor_lr = 1e-3F;
    float critic_lr = 1e-3F;
    std::size_t replay_capacity = 4096;
    std::size_t batch_size = 64;
    double ou_theta = 0.15;
    double ou_sigma = 0.35;
    double ou_sigma_decay = 0.995;  ///< applied once per episode
    std::uint64_t seed = 31;
};

/// DDPG agent with deterministic actor in [0,1]^action_dim.
class DdpgAgent {
public:
    explicit DdpgAgent(const DdpgConfig& config);

    /// Deterministic policy output for a state.
    std::vector<double> act(const std::vector<float>& state);

    /// Policy output plus OU exploration noise, clamped to [0,1].
    std::vector<double> act_noisy(const std::vector<float>& state);

    void remember(Transition t);

    /// One gradient step on critic (Eq. 14 with the episode reward as its
    /// target, y = r) and actor (Eq. 15). No-op until the buffer holds a
    /// full batch. The minibatch runs through the MLPs whole
    /// (Mlp::forward_batch / backward_batch), bitwise equal to looping over
    /// its samples.
    void train_step();

    /// Episode boundary: reset and decay exploration noise.
    void end_episode();

    [[nodiscard]] const DdpgConfig& config() const { return config_; }

    [[nodiscard]] const Mlp& actor() const { return actor_; }
    [[nodiscard]] const Mlp& critic() const { return critic_; }

private:
    DdpgConfig config_;
    util::Rng rng_;
    Mlp actor_;
    Mlp critic_;
    nn::Adam actor_opt_;
    nn::Adam critic_opt_;
    ReplayBuffer replay_;
    OuNoise noise_;

    // Minibatch scratch, reused across train_step() calls.
    std::vector<float> states_;       ///< [batch x state_dim]
    std::vector<float> critic_in_;    ///< [batch x (state_dim + action_dim)]
    std::vector<float> grad_q_;       ///< [batch]
};

}  // namespace imx::rl

#endif  // IMX_RL_DDPG_HPP
