/// \file
/// \brief Name-based recovery-strategy registry: string -> factory, so spec
/// files and the exp::recovery_patch() axis can select failure-recovery
/// semantics without compile-time wiring — mirroring sim/policies/registry
/// and energy/trace_registry.
///
/// Built-in names (always registered; docs/recovery.md documents each):
///  * "restart"         — all committed progress lost on a power failure.
///  * "checkpoint"      — every committed unit persists to NVM
///                        (RecoveryConfig::checkpoint_energy_mj per commit,
///                        restore_energy_mj flat at reboot).
///  * "checkpoint-free" — progress preserved at zero write cost;
///                        restore_penalty_mj per surviving unit at reboot.
///
/// The table is fixed when first used and only read afterwards, so
/// make_recovery_strategy() is safe from sweep worker threads.
#ifndef IMX_SIM_RECOVERY_REGISTRY_HPP
#define IMX_SIM_RECOVERY_REGISTRY_HPP

#include <memory>
#include <string>
#include <vector>

#include "sim/recovery/strategy.hpp"

namespace imx::sim {

/// \brief Construct a registered recovery strategy by name.
/// \param name a built-in strategy name.
/// \param config the run's recovery configuration (cost parameters).
/// \return a fresh strategy instance.
/// \throws std::invalid_argument for unknown names (the message lists every
///   registered name) or negative cost parameters.
std::unique_ptr<RecoveryStrategy> make_recovery_strategy(
    const std::string& name, const RecoveryConfig& config = {});

/// \brief Whether `name` is registered.
[[nodiscard]] bool has_recovery_strategy(const std::string& name);

/// \brief Every registered name, sorted.
[[nodiscard]] std::vector<std::string> recovery_strategy_names();

/// \brief One-line description of a registered strategy (for --list).
/// \throws std::invalid_argument for unknown names.
[[nodiscard]] std::string recovery_strategy_description(
    const std::string& name);

}  // namespace imx::sim

#endif  // IMX_SIM_RECOVERY_REGISTRY_HPP
