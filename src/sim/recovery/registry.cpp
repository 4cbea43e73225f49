// The built-in recovery strategies and their fixed util::Registry table.
#include "sim/recovery/registry.hpp"

#include <functional>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/registry.hpp"

namespace imx::sim {

namespace {

class RestartStrategy final : public RecoveryStrategy {
public:
    double commit_cost_mj() const override { return 0.0; }
    int surviving_units(int) const override { return 0; }
    double restore_cost_mj(int) const override { return 0.0; }
};

class CheckpointStrategy final : public RecoveryStrategy {
public:
    explicit CheckpointStrategy(const RecoveryConfig& config)
        : write_mj_(config.checkpoint_energy_mj),
          restore_mj_(config.restore_energy_mj) {}
    double commit_cost_mj() const override { return write_mj_; }
    int surviving_units(int committed) const override { return committed; }
    double restore_cost_mj(int) const override { return restore_mj_; }

private:
    double write_mj_;
    double restore_mj_;
};

class CheckpointFreeStrategy final : public RecoveryStrategy {
public:
    explicit CheckpointFreeStrategy(const RecoveryConfig& config)
        : penalty_mj_(config.restore_penalty_mj) {}
    double commit_cost_mj() const override { return 0.0; }
    int surviving_units(int committed) const override { return committed; }
    double restore_cost_mj(int surviving) const override {
        return penalty_mj_ * surviving;
    }

private:
    double penalty_mj_;
};

/// Builds a fresh strategy for one scenario run.
using RecoveryFactory =
    std::function<std::unique_ptr<RecoveryStrategy>(const RecoveryConfig&)>;

struct RegistryEntry {
    RecoveryFactory factory;
    std::string description;
};

/// The fixed table of built-in strategies, built once on first use.
const util::Registry<RegistryEntry>& registry() {
    static const util::Registry<RegistryEntry> instance(
        "recovery strategy",
        {{"restart",
          {[](const RecoveryConfig&) -> std::unique_ptr<RecoveryStrategy> {
               return std::make_unique<RestartStrategy>();
           },
           "lose all in-flight progress on a power failure (free)"}},
         {"checkpoint",
          {[](const RecoveryConfig& config)
               -> std::unique_ptr<RecoveryStrategy> {
               return std::make_unique<CheckpointStrategy>(config);
           },
           "NVM checkpoint per unit: checkpoint_mj per commit, restore_mj "
           "at reboot"}},
         {"checkpoint-free",
          {[](const RecoveryConfig& config)
               -> std::unique_ptr<RecoveryStrategy> {
               return std::make_unique<CheckpointFreeStrategy>(config);
           },
           "progress preserved at zero write cost; restore_penalty_mj per "
           "surviving unit at reboot"}}});
    return instance;
}

}  // namespace

std::unique_ptr<RecoveryStrategy> make_recovery_strategy(
    const std::string& name, const RecoveryConfig& config) {
    // Cost parameters are validated here, not per strategy: a negative cost
    // would silently *refund* energy on every commit or reboot.
    if (config.checkpoint_energy_mj < 0.0 || config.restore_energy_mj < 0.0 ||
        config.restore_penalty_mj < 0.0 || config.active_power_mw < 0.0) {
        throw std::invalid_argument(
            "recovery cost parameters must be non-negative");
    }
    auto strategy = registry().get(name).factory(config);
    IMX_EXPECTS(strategy != nullptr);
    return strategy;
}

bool has_recovery_strategy(const std::string& name) {
    return registry().contains(name);
}

std::vector<std::string> recovery_strategy_names() {
    return registry().names();
}

std::string recovery_strategy_description(const std::string& name) {
    return registry().get(name).description;
}

}  // namespace imx::sim
