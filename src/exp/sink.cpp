#include "exp/sink.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace imx::exp {

CollectSink::CollectSink(std::size_t expected) { outcomes_.resize(expected); }

void CollectSink::on_outcome(std::size_t spec_index, ScenarioOutcome outcome) {
    if (spec_index >= outcomes_.size()) outcomes_.resize(spec_index + 1);
    outcomes_[spec_index] = std::move(outcome);
}

void CollectSink::finish() { finished_ = true; }

std::vector<ScenarioOutcome> CollectSink::take() {
    return std::move(outcomes_);
}

TeeSink::TeeSink(std::vector<ResultSink*> sinks) : sinks_(std::move(sinks)) {
    for (const ResultSink* sink : sinks_) IMX_EXPECTS(sink != nullptr);
}

void TeeSink::on_outcome(std::size_t spec_index, ScenarioOutcome outcome) {
    if (sinks_.empty()) return;
    for (std::size_t i = 0; i + 1 < sinks_.size(); ++i) {
        sinks_[i]->on_outcome(spec_index, outcome);  // shares outcome.sim
    }
    sinks_.back()->on_outcome(spec_index, std::move(outcome));
}

void TeeSink::finish() {
    for (ResultSink* sink : sinks_) sink->finish();
}

}  // namespace imx::exp
