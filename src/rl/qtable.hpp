// Tabular Q-learning (Watkins & Dayan), paper Eq. 16 — the lightweight
// runtime learner: "a lookup table with state-action pairs as the entries,
// and the learning process is updating the LUT".
#ifndef IMX_RL_QTABLE_HPP
#define IMX_RL_QTABLE_HPP

#include <cstddef>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace imx::rl {

struct QLearningConfig {
    double alpha = 0.2;     ///< learning rate
    double gamma = 0.7;     ///< discount
    double epsilon = 0.15;  ///< exploration probability
    double epsilon_decay = 0.999;
    double epsilon_min = 0.01;
    double initial_q = 0.0;
};

class QTable {
public:
    QTable(std::size_t num_states, std::size_t num_actions,
           const QLearningConfig& config, std::uint64_t seed = 17);

    /// Epsilon-greedy action; decays epsilon on every call.
    std::size_t select(std::size_t state);

    /// Pure greedy action (evaluation mode; ties resolve to lowest index).
    [[nodiscard]] std::size_t greedy(std::size_t state) const;

    /// Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)).
    void update(std::size_t state, std::size_t action, double reward,
                std::size_t next_state);

    /// Terminal update (no bootstrap): Q += alpha * (r - Q).
    void update_terminal(std::size_t state, std::size_t action, double reward);

    [[nodiscard]] double q(std::size_t state, std::size_t action) const;
    [[nodiscard]] double max_q(std::size_t state) const;
    [[nodiscard]] std::size_t num_states() const { return num_states_; }
    [[nodiscard]] std::size_t num_actions() const { return num_actions_; }
    [[nodiscard]] double epsilon() const { return epsilon_; }

    /// Table memory footprint in bytes — the paper argues this overhead is
    /// negligible for an MCU; tests assert it stays KB-scale.
    [[nodiscard]] std::size_t footprint_bytes() const {
        return table_.size() * sizeof(double);
    }

private:
    [[nodiscard]] std::size_t index(std::size_t state, std::size_t action) const {
        IMX_EXPECTS(state < num_states_ && action < num_actions_);
        return state * num_actions_ + action;
    }

    std::size_t num_states_;
    std::size_t num_actions_;
    QLearningConfig config_;
    double epsilon_;
    std::vector<double> table_;
    util::Rng rng_;
};

/// Uniform discretizer for a continuous signal in [lo, hi] into n bins.
/// Values clamp into the range first, so +infinity (e.g. the deadline slack
/// of a run with no deadline) always lands in the top bin.
class Discretizer {
public:
    Discretizer(double lo, double hi, std::size_t bins);
    [[nodiscard]] std::size_t bin(double value) const;
    [[nodiscard]] std::size_t bins() const { return bins_; }

private:
    double lo_;
    double hi_;
    std::size_t bins_;
};

/// Row-major flattening of a multi-dimensional discretized state onto the
/// flat state index a QTable expects — e.g. the exit runtime's
/// (energy bin, rate bin, slack bin) triple. Trailing dimensions of size 1
/// are free: they do not change the indices of the remaining dimensions, so
/// a state space can grow a new axis without perturbing existing layouts.
class StateGrid {
public:
    /// \param dims bins per dimension, outermost first; each must be > 0.
    explicit StateGrid(std::vector<std::size_t> dims);

    /// Total number of flat states (product of the dimensions).
    [[nodiscard]] std::size_t states() const { return states_; }
    [[nodiscard]] const std::vector<std::size_t>& dims() const { return dims_; }

    /// Flat index of a bin tuple (size must equal dims().size(); every bin
    /// must be inside its dimension).
    [[nodiscard]] std::size_t flatten(
        const std::vector<std::size_t>& bins) const;

    /// Inverse of flatten(): the bin tuple of a flat state index.
    [[nodiscard]] std::vector<std::size_t> unflatten(std::size_t state) const;

private:
    std::vector<std::size_t> dims_;
    std::size_t states_;
};

}  // namespace imx::rl

#endif  // IMX_RL_QTABLE_HPP
