#include "rl/qtable.hpp"

#include <algorithm>

#include "util/math.hpp"

namespace imx::rl {

QTable::QTable(std::size_t num_states, std::size_t num_actions,
               const QLearningConfig& config, std::uint64_t seed)
    : num_states_(num_states),
      num_actions_(num_actions),
      config_(config),
      epsilon_(config.epsilon),
      table_(num_states * num_actions, config.initial_q),
      rng_(seed) {
    IMX_EXPECTS(num_states > 0 && num_actions > 0);
    IMX_EXPECTS(config.alpha > 0.0 && config.alpha <= 1.0);
    IMX_EXPECTS(config.gamma >= 0.0 && config.gamma <= 1.0);
    IMX_EXPECTS(config.epsilon >= 0.0 && config.epsilon <= 1.0);
}

std::size_t QTable::select(std::size_t state) {
    std::size_t action = 0;
    if (rng_.bernoulli(epsilon_)) {
        action = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(num_actions_) - 1));
    } else {
        action = greedy(state);
    }
    epsilon_ = std::max(config_.epsilon_min, epsilon_ * config_.epsilon_decay);
    return action;
}

std::size_t QTable::greedy(std::size_t state) const {
    std::size_t best = 0;
    double best_q = q(state, 0);
    for (std::size_t a = 1; a < num_actions_; ++a) {
        const double value = q(state, a);
        if (value > best_q) {
            best_q = value;
            best = a;
        }
    }
    return best;
}

void QTable::update(std::size_t state, std::size_t action, double reward,
                    std::size_t next_state) {
    const double target = reward + config_.gamma * max_q(next_state);
    double& entry = table_[index(state, action)];
    entry += config_.alpha * (target - entry);
}

void QTable::update_terminal(std::size_t state, std::size_t action,
                             double reward) {
    double& entry = table_[index(state, action)];
    entry += config_.alpha * (reward - entry);
}

double QTable::q(std::size_t state, std::size_t action) const {
    return table_[index(state, action)];
}

double QTable::max_q(std::size_t state) const {
    double best = q(state, 0);
    for (std::size_t a = 1; a < num_actions_; ++a) {
        best = std::max(best, q(state, a));
    }
    return best;
}

Discretizer::Discretizer(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins) {
    IMX_EXPECTS(lo < hi);
    IMX_EXPECTS(bins > 0);
}

std::size_t Discretizer::bin(double value) const {
    const double clamped = util::clamp(value, lo_, hi_);
    const double frac = (clamped - lo_) / (hi_ - lo_);
    const auto b = static_cast<std::size_t>(frac * static_cast<double>(bins_));
    return std::min(b, bins_ - 1);
}

StateGrid::StateGrid(std::vector<std::size_t> dims)
    : dims_(std::move(dims)), states_(1) {
    IMX_EXPECTS(!dims_.empty());
    for (const std::size_t d : dims_) {
        IMX_EXPECTS(d > 0);
        states_ *= d;
    }
}

std::size_t StateGrid::flatten(const std::vector<std::size_t>& bins) const {
    IMX_EXPECTS(bins.size() == dims_.size());
    std::size_t index = 0;
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        IMX_EXPECTS(bins[i] < dims_[i]);
        index = index * dims_[i] + bins[i];
    }
    return index;
}

std::vector<std::size_t> StateGrid::unflatten(std::size_t state) const {
    IMX_EXPECTS(state < states_);
    std::vector<std::size_t> bins(dims_.size(), 0);
    for (std::size_t i = dims_.size(); i-- > 0;) {
        bins[i] = state % dims_[i];
        state /= dims_[i];
    }
    return bins;
}

}  // namespace imx::rl
