#include "sim/policies/greedy.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

#include "util/contracts.hpp"

namespace imx::sim {

namespace {

/// Deepest exit in [0, num_exits) affordable at the current level under a
/// depth cap — the shared core of both greedy LUTs.
int deepest_affordable(const EnergyState& state, const InferenceModel& model,
                       double margin_mj, int max_depth) {
    int chosen = -1;
    const int limit = std::min(max_depth, model.num_exits() - 1);
    for (int e = 0; e <= limit; ++e) {
        const double cost = macs_energy_mj(state, model.exit_macs(e));
        if (cost + margin_mj <= state.level_mj) chosen = e;
    }
    return chosen;
}

}  // namespace

double cheapest_commit_mj(const EnergyState& state,
                          const InferenceModel& model,
                          double margin_mj) {
    double floor = std::numeric_limits<double>::infinity();
    for (int e = 0; e < model.num_exits(); ++e) {
        const double cost = macs_energy_mj(state, model.exit_macs(e));
        floor = std::min(floor, cost + margin_mj);
    }
    return floor;
}

int GreedyAffordablePolicy::select_exit(const EnergyState& state,
                                        const InferenceModel& model) {
    return deepest_affordable(state, model, margin_mj_,
                              model.num_exits() - 1);
}

SlackGreedyPolicy::SlackGreedyPolicy(SlackSchedule schedule)
    : schedule_(std::move(schedule)) {
    schedule_.validate();
}

int SlackGreedyPolicy::select_exit(const EnergyState& state,
                                   const InferenceModel& model) {
    const int cap = schedule_.max_depth(state.deadline_slack_s,
                                        model.num_exits());
    return deepest_affordable(state, model, 0.0, cap);
}

QueueSlackGreedyPolicy::QueueSlackGreedyPolicy(SlackSchedule schedule)
    : schedule_(std::move(schedule)) {
    schedule_.validate();
}

int QueueSlackGreedyPolicy::max_depth_for_backlog(double backlog,
                                                  int num_exits) {
    IMX_EXPECTS(num_exits > 0);
    const double clamped = std::min(std::max(backlog, 0.0), 1.0);
    const int deepest = num_exits - 1;
    const int shed = static_cast<int>(clamped * deepest + 0.5);
    return deepest - shed;
}

int QueueSlackGreedyPolicy::select_exit(const EnergyState& state,
                                        const InferenceModel& model) {
    const int cap = std::min(
        schedule_.max_depth(state.deadline_slack_s, model.num_exits()),
        max_depth_for_backlog(state.queue_backlog, model.num_exits()));
    return deepest_affordable(state, model, 0.0, cap);
}

}  // namespace imx::sim
