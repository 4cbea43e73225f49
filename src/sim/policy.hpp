/// \file
/// \brief Runtime exit-selection policy interface (paper Sec. IV).
///
/// The paper's two sequential runtime decisions map to the two virtuals:
/// select_exit() when the event is picked up, continue_inference() at each
/// reached exit (incremental inference). Learning policies also get
/// observe()/observe_missed() feedback after the event resolves.
///
/// The built-in implementations live in `sim/policies/` (greedy LUTs in
/// policies/greedy.hpp, the Q-learning runtime in policies/qlearning.hpp)
/// and are constructible by name through the registry in
/// policies/registry.hpp. docs/policies.md is the reference for the
/// contract, every built-in's decision rule, and how to add a policy.
#ifndef IMX_SIM_POLICY_HPP
#define IMX_SIM_POLICY_HPP

#include <cstdint>
#include <limits>

#include "sim/inference_model.hpp"

namespace imx::sim {

/// \brief Energy and timeliness situation visible to the runtime.
///
/// Carries the Q-learning state variables of the paper (available energy E
/// and charging efficiency P, both to be discretized by the policy) plus the
/// deadline slack of the in-flight event when the scenario runs under an
/// inference deadline (SimConfig::deadline_s).
struct EnergyState {
    /// Stored energy now, mJ.
    double level_mj = 0.0;
    /// Storage capacity, mJ (level_mj / capacity_mj is the paper's E).
    double capacity_mj = 0.0;
    /// Recent harvesting rate (EMA over harvested power), mW. Tracked only
    /// for a policy whose ExitPolicy::reads_charge_rate() is true; for any
    /// other policy the simulator skips the EMA and this stays 0.0.
    double charge_rate_mw = 0.0;
    /// MCU energy cost per million MACs, mJ (paper: 1.5 mJ / MFLOP).
    double energy_per_mmac_mj = 1.5;
    /// Seconds left before the in-flight event's completion deadline;
    /// clamped at 0 once the deadline has passed, infinity when the run has
    /// no deadline. Deadline-aware policies trade accuracy for timeliness on
    /// this signal: SlackGreedyPolicy caps its exit depth through a
    /// slack-to-depth schedule, and the slack-binned Q-learning runtime
    /// discretizes it into its state space (RuntimeConfig::slack_bins). The
    /// slack-blind built-ins (GreedyAffordablePolicy and the default
    /// Q-learning configuration) ignore it.
    double deadline_slack_s = std::numeric_limits<double>::infinity();
    /// Requests waiting in the simulator's bounded queue, not counting the
    /// in-flight one. Always 0 when the run has no queue
    /// (SimConfig::queue_capacity == 0).
    int queue_depth = 0;
    /// Normalized backlog: queue_depth / queue_capacity in [0, 1]; 0.0 when
    /// the run has no queue. Load-aware policies shed exit depth on this
    /// signal (QueueSlackGreedyPolicy, and the Q runtime when
    /// RuntimeConfig::queue_bins > 1).
    double queue_backlog = 0.0;
};

/// \brief Abstract runtime exit-selection policy (paper Sec. IV).
///
/// Implementations must be deterministic functions of their own state and
/// the arguments; the simulator calls them single-threadedly per run.
class ExitPolicy {
public:
    virtual ~ExitPolicy() = default;
    ExitPolicy() = default;
    ExitPolicy(const ExitPolicy&) = delete;
    ExitPolicy& operator=(const ExitPolicy&) = delete;

    /// \brief Choose the exit to run for a waiting event.
    /// \param state current energy situation (and deadline slack).
    /// \param model the deployed inference model (exit costs, exit count).
    /// \return the exit index to commit to, or -1 to keep waiting
    ///   (insufficient energy for any acceptable choice).
    virtual int select_exit(const EnergyState& state,
                            const InferenceModel& model) = 0;

    /// \brief Decide whether to spend more energy on incremental inference.
    /// \param state current energy situation.
    /// \param model the deployed inference model.
    /// \param current_exit the exit just reached.
    /// \param confidence the model's confidence at that exit.
    /// \return true to advance to the next exit, false to emit the result.
    virtual bool continue_inference(const EnergyState& state,
                                    const InferenceModel& model,
                                    int current_exit, double confidence) = 0;

    /// \brief The stored energy below which select_exit() is sure to wait.
    ///
    /// A promise the simulator uses to skip steps: for every state s that
    /// agrees with `state` in capacity_mj, energy_per_mmac_mj, queue_depth
    /// and queue_backlog, s.level_mj < commit_floor_mj(state, model) implies
    /// that select_exit(s, model) returns -1 and changes no policy state —
    /// whatever s's charge rate and deadline slack. While harvesting is all
    /// that happens, the simulator then does not call select_exit() until
    /// the level reaches the floor; a commit below it fails an IMX_ENSURES.
    /// \return the floor in mJ; the default, -infinity, promises nothing
    ///   (select_exit() is asked at every step).
    [[nodiscard]] virtual double commit_floor_mj(
        const EnergyState& /*state*/, const InferenceModel& /*model*/) const {
        return -std::numeric_limits<double>::infinity();
    }

    /// \brief Whether any hook reads EnergyState::charge_rate_mw.
    ///
    /// A property of the policy class, read once per run. When it is
    /// false the simulator does not track the charge-rate EMA, and every
    /// EnergyState the policy sees carries charge_rate_mw == 0.0; a policy
    /// that never reads the field cannot tell the difference.
    /// \return the default, true, keeps the rate tracked.
    [[nodiscard]] virtual bool reads_charge_rate() const { return true; }

    /// \brief Feedback after the event resolves (reward = outcome
    /// correctness per paper Sec. IV, plus timeliness for deadline-aware
    /// learners). Default: stateless policy ignores it.
    /// \param state_at_selection the EnergyState passed to the select_exit
    ///   call that committed this event.
    /// \param exit_taken the exit that produced the result.
    /// \param correct whether the result was correct.
    /// \param deadline_met whether the result was produced within the run's
    ///   completion deadline; always true when the run has no deadline.
    virtual void observe(const EnergyState& /*state_at_selection*/,
                         int /*exit_taken*/, bool /*correct*/,
                         bool /*deadline_met*/) {}

    /// \brief A missed event (lost while the device was busy, or dropped as
    /// hopeless at its deadline). Learning policies can penalize the
    /// preceding behaviour.
    virtual void observe_missed() {}
};

/// \brief Energy cost of `macs` MACs at the state's energy-per-MMAC rate.
/// \param state supplies energy_per_mmac_mj.
/// \param macs the MAC count to price.
/// \return the cost in mJ.
double macs_energy_mj(const EnergyState& state, std::int64_t macs);

}  // namespace imx::sim

#endif  // IMX_SIM_POLICY_HPP
