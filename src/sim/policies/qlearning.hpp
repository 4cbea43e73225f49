/// \file
/// \brief The Q-learning exit runtime (paper Sec. IV), optionally
/// deadline-slack-aware.
///
/// Two Q-tables:
///  * exit table — state = (stored-energy bin x charging-rate bin
///    [x deadline-slack bin] [x queue-backlog bin]), actions = the m exits.
///    Rewards chain between
///    consecutive events (Eq. 16) so the policy learns energy *reservation*:
///    a high-accuracy expensive exit now is worth less if it starves the
///    next events. Missed events feed a penalty into the pending reward,
///    and (when configured) so do deadline-missed completions.
///  * incremental table — state = (confidence bin x energy bin), actions =
///    {emit, continue}; decides whether to propagate a low-confidence result
///    to the next exit (second decision of Sec. IV).
#ifndef IMX_SIM_POLICIES_QLEARNING_HPP
#define IMX_SIM_POLICIES_QLEARNING_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "rl/qtable.hpp"
#include "sim/policies/slack_schedule.hpp"
#include "sim/policy.hpp"

namespace imx::sim {

/// \brief Knobs of the Q-learning exit runtime.
///
/// The defaults reproduce the paper's slack-blind configuration bitwise:
/// slack_bins == 1 collapses the slack dimension (every state maps to the
/// same single bin, so indices and table sizes equal the historical
/// two-dimensional layout) and deadline_miss_penalty == 0 keeps the reward
/// purely correctness-based. The "slack-qlearning" registry entry switches
/// both on via slack_aware_runtime_config().
struct RuntimeConfig {
    std::size_t energy_bins = 8;       ///< stored-energy bins (exit table)
    std::size_t rate_bins = 6;         ///< charging-rate bins (exit table)
    std::size_t confidence_bins = 5;   ///< confidence bins (incremental table)
    std::size_t incremental_energy_bins = 6;  ///< energy bins (incremental)
    /// Deadline-slack bins in the exit-table state. 1 = slack-blind (the
    /// historical state space); >= 2 adds a discretized
    /// EnergyState::deadline_slack_s dimension so the learner can trade
    /// depth for timeliness.
    std::size_t slack_bins = 1;
    /// Slack discretizer range, seconds: slack saturates at the top bin
    /// (infinite slack — no deadline — always lands there).
    double max_slack_s = 240.0;
    /// Queue-backlog bins in the exit-table state. 1 = load-blind (the
    /// historical state space: a trailing size-1 StateGrid dimension leaves
    /// every flat index — and therefore the seeded table — unchanged);
    /// >= 2 discretizes EnergyState::queue_backlog in [0, 1] so the learner
    /// can shed exit depth when the bounded request queue fills.
    std::size_t queue_bins = 1;
    rl::QLearningConfig exit_q{/*alpha=*/0.10, /*gamma=*/0.60,
                               /*epsilon=*/0.30, /*epsilon_decay=*/0.9997,
                               /*epsilon_min=*/0.02, /*initial_q=*/0.5};
    rl::QLearningConfig incremental_q{/*alpha=*/0.20, /*gamma=*/0.0,
                                      /*epsilon=*/0.15,
                                      /*epsilon_decay=*/0.999,
                                      /*epsilon_min=*/0.02, /*initial_q=*/0.4};
    double miss_penalty = 1.0;  ///< subtracted from the pending reward per miss
    /// Subtracted from the completion reward when the result arrived after
    /// the deadline (0 = deadline-blind reward, the historical behaviour).
    double deadline_miss_penalty = 0.0;
    /// When true, the selected exit is projected onto the depth the policy's
    /// SlackSchedule (a constructor argument) allows at the current slack,
    /// and incremental hops past that depth are refused. The Q-table still
    /// learns over the executed (capped) action, so the learner and the
    /// timeliness constraint compose instead of fighting. The Q policy
    /// commits the moment an event is picked up — selection-time slack
    /// equals the full deadline — so without this cap the slack bin alone
    /// cannot shed depth under a tight deadline.
    bool cap_depth_by_slack = false;
    bool enable_incremental = true;
    /// Energy headroom (fraction of capacity) required to consider continuing.
    double incremental_headroom = 0.05;
    /// Small cost term discouraging continuation that adds no correctness.
    double continue_cost_penalty = 0.10;
    /// Charging-rate discretizer range (mW); rates saturate at the top bin.
    double max_rate_mw = 0.05;
    std::uint64_t seed = 321;
};

/// \brief The slack-aware flavour of a runtime configuration: 2 slack bins
/// (urgent vs relaxed, split at max_slack_s / 2 = 30 s), a 0.5
/// deadline-miss reward penalty, and the slack-capped action set on top of
/// `base` (values already slack-aware in `base` are kept). This is what the
/// "slack-qlearning" registry entry applies.
[[nodiscard]] RuntimeConfig slack_aware_runtime_config(RuntimeConfig base = {});

/// \brief Learned exit selection + incremental inference (paper Sec. IV).
///
/// Deterministic for a fixed config/seed; the simulator drives it through
/// the ExitPolicy virtuals and the observe() reward hooks.
class QLearningExitPolicy final : public ExitPolicy {
public:
    /// \param num_exits the deployed model's exit count (>= 1).
    /// \param config runtime knobs; see RuntimeConfig.
    /// \param schedule slack-to-depth schedule, consulted only when
    ///   config.cap_depth_by_slack is set (shared shape with
    ///   SlackGreedyPolicy).
    QLearningExitPolicy(int num_exits, const RuntimeConfig& config,
                        SlackSchedule schedule = {});

    int select_exit(const EnergyState& state,
                    const InferenceModel& model) override;
    bool continue_inference(const EnergyState& state,
                            const InferenceModel& model, int current_exit,
                            double confidence) override;
    void observe(const EnergyState& state_at_selection, int exit_taken,
                 bool correct, bool deadline_met) override;
    void observe_missed() override;

    /// \brief Freeze both tables (greedy, no updates) for evaluation
    /// episodes.
    void set_eval_mode(bool eval);

    /// \brief Combined LUT footprint (paper: "the overhead of Q-learning is
    /// negligible"); tests assert this stays in the KB range.
    [[nodiscard]] std::size_t footprint_bytes() const;

    /// \brief The exit-selection table (read-only).
    [[nodiscard]] const rl::QTable& exit_table() const { return exit_q_; }

    /// \brief Flat exit-table state index for an energy situation — the
    /// (energy, rate[, slack]) discretization. Exposed so tests can pin the
    /// slack-binned layout (round-trip through rl::StateGrid).
    [[nodiscard]] std::size_t exit_state(const EnergyState& s) const;

private:
    [[nodiscard]] std::size_t incremental_state(const EnergyState& s,
                                                double confidence) const;

    int num_exits_;
    RuntimeConfig config_;
    SlackSchedule schedule_;
    rl::StateGrid exit_grid_;
    rl::QTable exit_q_;
    rl::QTable incremental_q_;
    rl::Discretizer level_bins_;
    rl::Discretizer rate_bins_;
    rl::Discretizer slack_bins_;
    rl::Discretizer queue_bins_;
    rl::Discretizer conf_bins_;
    rl::Discretizer inc_level_bins_;
    bool eval_mode_ = false;

    // Pending inter-event transition (Eq. 16 chaining).
    struct Pending {
        std::size_t state = 0;
        std::size_t action = 0;
        double reward = 0.0;
    };
    std::optional<Pending> pending_;

    // Pending incremental decisions for the in-flight event.
    struct PendingIncremental {
        std::size_t state = 0;
        std::size_t action = 0;
    };
    std::vector<PendingIncremental> pending_incremental_;
};

}  // namespace imx::sim

#endif  // IMX_SIM_POLICIES_QLEARNING_HPP
