/// \file
/// \brief The static (non-learning) LUT policies: the paper's greedy
/// baseline and its deadline-slack-aware variant.
#ifndef IMX_SIM_POLICIES_GREEDY_HPP
#define IMX_SIM_POLICIES_GREEDY_HPP

#include "sim/policies/slack_schedule.hpp"
#include "sim/policy.hpp"

namespace imx::sim {

/// \brief min over exits e of (cost of e + margin_mj), with the
/// expressions the greedy LUTs test affordability with: the
/// ExitPolicy::commit_floor_mj() of all three (the two slack variants keep
/// no margin, so they pass 0).
[[nodiscard]] double cheapest_commit_mj(const EnergyState& state,
                                        const InferenceModel& model,
                                        double margin_mj);

/// \brief The static-LUT baseline of Sec. IV / Fig. 7.
///
/// Greedily selects the deepest exit whose from-scratch energy cost fits the
/// currently stored energy; never runs incremental inference. Slack-blind:
/// EnergyState::deadline_slack_s does not influence the choice. Like both
/// variants below, it never reads EnergyState::charge_rate_mw.
class GreedyAffordablePolicy final : public ExitPolicy {
public:
    /// \param margin_mj energy kept in reserve so the run cannot
    ///   brown out.
    explicit GreedyAffordablePolicy(double margin_mj = 0.0)
        : margin_mj_(margin_mj) {}

    int select_exit(const EnergyState& state,
                    const InferenceModel& model) override;
    bool continue_inference(const EnergyState&, const InferenceModel&, int,
                            double) override {
        return false;
    }
    /// The cheapest exit's cost plus the safety margin: no exit is
    /// affordable below it, under any depth cap.
    [[nodiscard]] double commit_floor_mj(
        const EnergyState& state, const InferenceModel& model) const override {
        return cheapest_commit_mj(state, model, margin_mj_);
    }
    [[nodiscard]] bool reads_charge_rate() const override { return false; }

private:
    double margin_mj_;
};

/// \brief Deadline-aware variant of the greedy LUT.
///
/// Applies the greedy affordability rule *under a depth cap from the slack
/// schedule*: as EnergyState::deadline_slack_s shrinks, deep exits drop out
/// of consideration, so the policy commits to a cheaper exit that charges
/// and computes within the remaining slack (and leaves the device free, and
/// the buffer full, for the next arrival). With no deadline (infinite
/// slack) the behaviour is identical to GreedyAffordablePolicy.
class SlackGreedyPolicy final : public ExitPolicy {
public:
    /// \param schedule the slack-to-depth schedule (validated on
    ///   construction: non-decreasing, first entry 0).
    explicit SlackGreedyPolicy(SlackSchedule schedule = {});

    int select_exit(const EnergyState& state,
                    const InferenceModel& model) override;
    bool continue_inference(const EnergyState&, const InferenceModel&, int,
                            double) override {
        return false;
    }
    /// Greedy's floor: the depth cap only removes candidates.
    [[nodiscard]] double commit_floor_mj(
        const EnergyState& state, const InferenceModel& model) const override {
        return cheapest_commit_mj(state, model, 0.0);
    }
    [[nodiscard]] bool reads_charge_rate() const override { return false; }

private:
    SlackSchedule schedule_;
};

/// \brief Load-aware variant of the slack-greedy LUT.
///
/// Applies the slack-greedy rule under a second depth cap driven by
/// EnergyState::queue_backlog: as the bounded request queue fills, deep
/// exits drop out of consideration so the device turns requests around
/// faster and drains the backlog before it overflows (tail-latency and
/// drop-rate relief under bursts). The cap is
///     num_exits-1 - round(queue_backlog * (num_exits-1)),
/// i.e. unconstrained at an empty queue and exit 0 only at a full one.
/// With no queue (backlog always 0) the behaviour — and with infinite slack
/// the whole policy — is identical to SlackGreedyPolicy.
class QueueSlackGreedyPolicy final : public ExitPolicy {
public:
    /// \param schedule the slack-to-depth schedule (validated on
    ///   construction).
    explicit QueueSlackGreedyPolicy(SlackSchedule schedule = {});

    int select_exit(const EnergyState& state,
                    const InferenceModel& model) override;
    bool continue_inference(const EnergyState&, const InferenceModel&, int,
                            double) override {
        return false;
    }
    /// Greedy's floor: the depth cap only removes candidates.
    [[nodiscard]] double commit_floor_mj(
        const EnergyState& state, const InferenceModel& model) const override {
        return cheapest_commit_mj(state, model, 0.0);
    }
    [[nodiscard]] bool reads_charge_rate() const override { return false; }

    /// \brief The backlog-driven depth cap (exposed so tests can pin the
    /// monotone shedding directly).
    [[nodiscard]] static int max_depth_for_backlog(double backlog,
                                                   int num_exits);

private:
    SlackSchedule schedule_;
};

}  // namespace imx::sim

#endif  // IMX_SIM_POLICIES_GREEDY_HPP
