#include "core/oracle_model.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace imx::core {

OracleInferenceModel::OracleInferenceModel(
    const compress::NetworkDesc& desc, const compress::Policy& policy,
    std::vector<double> exit_accuracy_percent, const OracleModelConfig& config)
    : accuracy_(std::move(exit_accuracy_percent)), config_(config) {
    IMX_EXPECTS(static_cast<int>(accuracy_.size()) == desc.num_exits);
    // Note: exit accuracy need not be monotone (a searched policy can leave a
    // middle exit weak). The shared latent difficulty keeps outcomes
    // consistent: advancing to a weaker exit can genuinely flip a result.
    exit_macs_ = compress::per_exit_macs(desc, policy);
    model_bytes_ = compress::model_bytes(desc, policy);
    path_macs_.resize(accuracy_.size());
    for (int e = 0; e < desc.num_exits; ++e) {
        for (const int l : desc.exit_paths[static_cast<std::size_t>(e)]) {
            path_macs_[static_cast<std::size_t>(e)].emplace_back(
                l, compress::layer_macs(desc, policy, l));
        }
    }

    // Precompute every (from, to) hop once; the simulator queries these on
    // each scheduling decision, and the set-difference walk is O(path^2).
    const int num_e = desc.num_exits;
    incremental_table_.assign(static_cast<std::size_t>(num_e) + 1,
                              std::vector<std::int64_t>(
                                  static_cast<std::size_t>(num_e), 0));
    segment_table_.assign(
        static_cast<std::size_t>(num_e) + 1,
        std::vector<std::vector<std::int64_t>>(
            static_cast<std::size_t>(num_e)));
    for (int from = -1; from < num_e; ++from) {
        for (int to = from + 1; to < num_e; ++to) {
            const auto row = static_cast<std::size_t>(from + 1);
            const auto col = static_cast<std::size_t>(to);
            std::int64_t total = 0;
            std::vector<std::int64_t> segments;
            for (const auto& [layer, macs] : path_macs_[col]) {
                bool already_run = false;
                if (from >= 0) {
                    const auto& from_path =
                        path_macs_[static_cast<std::size_t>(from)];
                    already_run = std::any_of(
                        from_path.begin(), from_path.end(),
                        [layer = layer](const auto& p) {
                            return p.first == layer;
                        });
                }
                if (!already_run) {
                    total += macs;
                    segments.push_back(macs);
                }
            }
            if (segments.empty()) segments.push_back(0);
            // Cold start reports the full per-exit cost (which includes
            // shared-layer accounting the path walk cannot see).
            incremental_table_[row][col] =
                from < 0 ? exit_macs_[col] : total;
            segment_table_[row][col] = std::move(segments);
        }
    }
}

int OracleInferenceModel::num_exits() const {
    return static_cast<int>(accuracy_.size());
}

std::int64_t OracleInferenceModel::exit_macs(int exit) const {
    IMX_EXPECTS(exit >= 0 && exit < num_exits());
    return exit_macs_[static_cast<std::size_t>(exit)];
}

std::int64_t OracleInferenceModel::incremental_macs(int from_exit,
                                                    int to_exit) const {
    IMX_EXPECTS(to_exit > from_exit && to_exit < num_exits());
    IMX_EXPECTS(from_exit >= -1);
    return incremental_table_[static_cast<std::size_t>(from_exit + 1)]
                             [static_cast<std::size_t>(to_exit)];
}

std::vector<std::int64_t> OracleInferenceModel::segment_macs(
    int from_exit, int to_exit) const {
    IMX_EXPECTS(to_exit > from_exit && to_exit < num_exits());
    IMX_EXPECTS(from_exit >= -1);
    return segment_table_[static_cast<std::size_t>(from_exit + 1)]
                         [static_cast<std::size_t>(to_exit)];
}

sim::ExitOutcome OracleInferenceModel::evaluate(int event_id, int exit) {
    IMX_EXPECTS(exit >= 0 && exit < num_exits());
    const auto id = static_cast<std::uint64_t>(event_id);
    const double u = util::hash_uniform(config_.seed, id, 0);
    const double acc = accuracy_[static_cast<std::size_t>(exit)] / 100.0;

    sim::ExitOutcome outcome;
    outcome.correct = u < acc;

    const double margin = acc - u;
    const double jitter =
        (util::hash_uniform(config_.seed, id,
                            static_cast<std::uint64_t>(exit) + 1) -
         0.5) *
        2.0 * config_.confidence_noise;
    outcome.confidence = util::clamp(
        util::sigmoid(config_.confidence_slope * margin + config_.confidence_bias +
                      jitter),
        0.0, 1.0);
    return outcome;
}

}  // namespace imx::core
