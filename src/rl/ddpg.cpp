#include "rl/ddpg.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace imx::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
    IMX_EXPECTS(capacity > 0);
    buffer_.reserve(capacity);
}

void ReplayBuffer::push(Transition t) {
    if (buffer_.size() < capacity_) {
        buffer_.push_back(std::move(t));
    } else {
        buffer_[next_] = std::move(t);
    }
    next_ = (next_ + 1) % capacity_;
}

std::vector<const Transition*> ReplayBuffer::sample(std::size_t count) {
    IMX_EXPECTS(!buffer_.empty());
    std::vector<const Transition*> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto idx = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(buffer_.size()) - 1));
        out.push_back(&buffer_[idx]);
    }
    return out;
}

OuNoise::OuNoise(std::size_t dims, double theta, double sigma,
                 std::uint64_t seed)
    : theta_(theta), sigma_(sigma), state_(dims, 0.0), rng_(seed) {
    IMX_EXPECTS(dims > 0);
    IMX_EXPECTS(theta >= 0.0 && sigma >= 0.0);
}

std::vector<double> OuNoise::sample() {
    for (double& x : state_) {
        x += theta_ * (0.0 - x) + sigma_ * rng_.normal();
    }
    return state_;
}

void OuNoise::reset() { std::fill(state_.begin(), state_.end(), 0.0); }

void OuNoise::scale_sigma(double factor) {
    IMX_EXPECTS(factor > 0.0);
    sigma_ *= factor;
}

namespace {

std::vector<int> mlp_dims(int in, const std::vector<int>& hidden, int out) {
    std::vector<int> dims;
    dims.push_back(in);
    for (const int h : hidden) dims.push_back(h);
    dims.push_back(out);
    return dims;
}

}  // namespace

DdpgAgent::DdpgAgent(const DdpgConfig& config)
    : config_(config),
      rng_(config.seed),
      actor_(mlp_dims(config.state_dim, config.actor_hidden, config.action_dim),
             OutputActivation::kSigmoid, rng_),
      // Drawn and dropped so the critic keeps its pinned initial weights.
      critic_((Mlp(mlp_dims(config.state_dim, config.actor_hidden,
                            config.action_dim),
                   OutputActivation::kSigmoid, rng_),
               mlp_dims(config.state_dim + config.action_dim,
                        config.critic_hidden, 1)),
              OutputActivation::kNone, rng_),
      actor_opt_(config.actor_lr),
      critic_opt_(config.critic_lr),
      replay_(config.replay_capacity, config.seed ^ 0x5555),
      noise_(static_cast<std::size_t>(config.action_dim), config.ou_theta,
             config.ou_sigma, config.seed ^ 0xaaaa) {
    IMX_EXPECTS(config.state_dim > 0 && config.action_dim > 0);
    IMX_EXPECTS(config.batch_size > 0);
}

std::vector<double> DdpgAgent::act(const std::vector<float>& state) {
    IMX_EXPECTS(static_cast<int>(state.size()) == config_.state_dim);
    const float* out = actor_.forward_batch(1, state.data());
    return std::vector<double>(out, out + config_.action_dim);
}

std::vector<double> DdpgAgent::act_noisy(const std::vector<float>& state) {
    std::vector<double> action = act(state);
    const std::vector<double> noise = noise_.sample();
    for (std::size_t i = 0; i < action.size(); ++i) {
        action[i] = util::clamp(action[i] + noise[i], 0.0, 1.0);
    }
    return action;
}

void DdpgAgent::remember(Transition t) { replay_.push(std::move(t)); }

namespace {

/// Append one [state | action] critic-input row.
float* put_row(float* dst, const std::vector<float>& state,
               const float* action, std::size_t action_dim) {
    dst = std::copy(state.begin(), state.end(), dst);
    return std::copy(action, action + action_dim, dst);
}

}  // namespace

void DdpgAgent::train_step() {
    if (replay_.size() < config_.batch_size) return;
    const auto batch = replay_.sample(config_.batch_size);
    const float inv_batch = 1.0F / static_cast<float>(batch.size());
    const int n = static_cast<int>(batch.size());
    const std::size_t sd = static_cast<std::size_t>(config_.state_dim);
    const std::size_t ad = static_cast<std::size_t>(config_.action_dim);
    const std::size_t cd = sd + ad;

    states_.resize(batch.size() * sd);
    critic_in_.resize(batch.size() * cd);
    float* state_row = states_.data();
    float* critic_row = critic_in_.data();
    for (const Transition* t : batch) {
        IMX_EXPECTS(t->state.size() == sd && t->action.size() == ad);
        state_row = std::copy(t->state.begin(), t->state.end(), state_row);
        critic_row = put_row(critic_row, t->state, t->action.data(), ad);
    }

    // Critic regression toward y = r, the episode reward.
    critic_.zero_grad();
    const float* q = critic_.forward_batch(n, critic_in_.data());
    grad_q_.resize(batch.size());
    for (std::size_t s = 0; s < batch.size(); ++s) {
        grad_q_[s] = 2.0F * (q[s] - batch[s]->reward);  // d/dq of (q - y)^2
    }
    critic_.backward_batch(grad_q_.data(), /*param_grads=*/true,
                           /*input_grad=*/false);
    critic_opt_.step(critic_.parameters(), critic_.gradients(), inv_batch);

    // Actor ascent on Q(s, mu(s)) (Eq. 15 sampled policy gradient): the
    // critic only supplies dQ/da, so its parameter gradients are skipped.
    actor_.zero_grad();
    const float* action = actor_.forward_batch(n, states_.data());
    for (std::size_t s = 0; s < batch.size(); ++s) {
        std::copy(action + s * ad, action + (s + 1) * ad,
                  critic_in_.data() + s * cd + sd);
    }
    critic_.forward_batch(n, critic_in_.data());
    std::fill(grad_q_.begin(), grad_q_.end(), -1.0F);  // maximize Q
    // dQ/da: the critic's input gradient at the action columns only.
    const float* grad_action = critic_.backward_batch(
        grad_q_.data(), /*param_grads=*/false, /*input_grad=*/true,
        /*input_grad_first=*/config_.state_dim);
    actor_.backward_batch(grad_action, /*param_grads=*/true,
                          /*input_grad=*/false);
    actor_opt_.step(actor_.parameters(), actor_.gradients(), inv_batch);
}

void DdpgAgent::end_episode() {
    noise_.reset();
    noise_.scale_sigma(config_.ou_sigma_decay);
}

}  // namespace imx::rl
