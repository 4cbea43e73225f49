/// \file
/// \brief Internal: the built-in experiment table. The registry in
/// experiment.cpp builds itself by calling these on first use (direct calls
/// instead of static initializers, so a static-library link can never drop
/// the translation units). Not part of the public API.
#ifndef IMX_EXP_EXPERIMENTS_BUILTIN_HPP
#define IMX_EXP_EXPERIMENTS_BUILTIN_HPP

#include <functional>
#include <map>
#include <string>

#include "exp/experiment.hpp"

namespace imx::exp::detail {

/// \brief The text of examples/experiments/<file>, compiled into the
/// library at build time (the generated embedded_specs.cpp).
/// \throws std::invalid_argument when no such file was embedded.
const std::string& embedded_spec_text(const std::string& file);

/// \brief Parse the embedded spec file `file`.
ExperimentSpec embedded_spec(const std::string& file);

/// Builds a fresh Experiment (cheap: no setups are constructed until the
/// experiment is built/run).
using ExperimentFactory = std::function<Experiment()>;

/// The built-in experiments by name; the registry in experiment.cpp is
/// built from one.
using ExperimentTable = std::map<std::string, ExperimentFactory>;

/// \brief Add the grid the embedded spec file `file` declares under its
/// `[sweep] name`, reporting through `report`.
void add_spec_file(ExperimentTable& into, const std::string& file,
                   std::function<int(const ExperimentRunContext&)> report);

/// The figure reproductions: fig1b, fig4, fig5, fig6, fig7a, fig7b, and
/// the Sec. V-D latency table.
void add_fig_experiments(ExperimentTable& into);

/// The ablations: harvester, recovery, traffic, runtime, search, trace,
/// storage-deadline, deadline-policy.
void add_ablation_experiments(ExperimentTable& into);

}  // namespace imx::exp::detail

#endif  // IMX_EXP_EXPERIMENTS_BUILTIN_HPP
