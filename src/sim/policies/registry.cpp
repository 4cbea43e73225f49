// The built-in exit policies as one fixed util::Registry<PolicyFactory>.
#include "sim/policies/registry.hpp"

#include <functional>

#include "util/contracts.hpp"
#include "util/registry.hpp"

namespace imx::sim {

namespace {

/// Builds a fresh policy for one scenario run.
using PolicyFactory =
    std::function<std::unique_ptr<ExitPolicy>(const PolicyContext&)>;

/// The fixed table of built-in policies, built once on first use.
const util::Registry<PolicyFactory>& registry() {
    static const util::Registry<PolicyFactory> instance(
        "exit policy",
        {{"greedy",
          [](const PolicyContext&) -> std::unique_ptr<ExitPolicy> {
              return std::make_unique<GreedyAffordablePolicy>();
          }},
         {"slack-greedy",
          [](const PolicyContext& ctx) -> std::unique_ptr<ExitPolicy> {
              return std::make_unique<SlackGreedyPolicy>(ctx.slack_schedule);
          }},
         {"queue-slack-greedy",
          [](const PolicyContext& ctx) -> std::unique_ptr<ExitPolicy> {
              return std::make_unique<QueueSlackGreedyPolicy>(
                  ctx.slack_schedule);
          }},
         {"qlearning",
          [](const PolicyContext& ctx) -> std::unique_ptr<ExitPolicy> {
              return std::make_unique<QLearningExitPolicy>(ctx.num_exits,
                                                           ctx.runtime);
          }},
         {"slack-qlearning",
          [](const PolicyContext& ctx) -> std::unique_ptr<ExitPolicy> {
              return std::make_unique<QLearningExitPolicy>(
                  ctx.num_exits, slack_aware_runtime_config(ctx.runtime),
                  ctx.slack_schedule);
          }}});
    return instance;
}

}  // namespace

std::unique_ptr<ExitPolicy> make_policy(const std::string& name,
                                        const PolicyContext& context) {
    auto policy = registry().get(name)(context);
    IMX_EXPECTS(policy != nullptr);
    return policy;
}

bool has_policy(const std::string& name) {
    return registry().contains(name);
}

std::vector<std::string> policy_names() { return registry().names(); }

}  // namespace imx::sim
