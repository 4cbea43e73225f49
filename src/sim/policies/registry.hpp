/// \file
/// \brief Name-based exit-policy registry: string -> factory, so benches,
/// tests, and bench CLIs can select policies without compile-time wiring.
///
/// Built-in names (always registered; docs/policies.md documents each
/// decision rule):
///  * "greedy"          — GreedyAffordablePolicy, the paper's static LUT.
///  * "slack-greedy"    — SlackGreedyPolicy, the deadline-aware LUT.
///  * "qlearning"       — QLearningExitPolicy with the context's
///                        RuntimeConfig as-is (slack-blind by default).
///  * "slack-qlearning" — QLearningExitPolicy under
///                        slack_aware_runtime_config() (slack-binned state,
///                        deadline-miss reward penalty).
///
/// The table is fixed when first used and only read afterwards, so
/// make_policy() is safe from sweep worker threads.
#ifndef IMX_SIM_POLICIES_REGISTRY_HPP
#define IMX_SIM_POLICIES_REGISTRY_HPP

#include <memory>
#include <string>
#include <vector>

#include "sim/policies/greedy.hpp"
#include "sim/policies/qlearning.hpp"
#include "sim/policy.hpp"

namespace imx::sim {

/// \brief Everything a policy factory may depend on. Fields irrelevant to a
/// given policy are simply ignored by its factory.
struct PolicyContext {
    int num_exits = 3;              ///< deployed model's exit count
    RuntimeConfig runtime{};        ///< Q-learning knobs (incl. seed)
    SlackSchedule slack_schedule{}; ///< slack-greedy depth schedule
};

/// \brief Construct a registered policy by name.
/// \param name a built-in policy name.
/// \param context the construction context.
/// \return a fresh policy instance.
/// \throws std::invalid_argument for unknown names (the message lists every
///   registered name, so CLI typos are self-explaining).
std::unique_ptr<ExitPolicy> make_policy(const std::string& name,
                                        const PolicyContext& context = {});

/// \brief Whether `name` is registered.
[[nodiscard]] bool has_policy(const std::string& name);

/// \brief Every registered name, sorted.
[[nodiscard]] std::vector<std::string> policy_names();

}  // namespace imx::sim

#endif  // IMX_SIM_POLICIES_REGISTRY_HPP
