#include "energy/income.hpp"

#include <memory>
#include <mutex>

#include "util/contracts.hpp"

namespace imx::energy {

IncomeTable::IncomeTable(const PowerTrace& trace, const IncomeKey& key)
    : key_(key) {
    IMX_EXPECTS(key.dt_s > 0.0);
    // The simulator's time accumulation, step for step: `now` is a running
    // sum, not k·dt, and power_at() indexes by now / trace dt.
    const double duration = trace.duration();
    net_mj_.reserve(static_cast<std::size_t>(duration / key.dt_s) + 1);
    for (double now = 0.0; now < duration; now += key.dt_s) {
        const double power = trace.power_at(now);
        net_mj_.push_back(power * key.dt_s *
                          charging_efficiency(key.efficiency_max,
                                              key.efficiency_half_power_mw,
                                              power));
    }
}

struct PowerTrace::IncomeCache {
    std::mutex mutex;
    std::vector<std::shared_ptr<const IncomeTable>> tables;
};

std::shared_ptr<const IncomeTable> PowerTrace::income(
    const IncomeKey& key) const {
    IncomeCache& cache = *income_cache_;
    const std::lock_guard<std::mutex> lock(cache.mutex);
    for (const auto& table : cache.tables) {
        if (table->key() == key) return table;
    }
    cache.tables.push_back(std::make_shared<const IncomeTable>(*this, key));
    return cache.tables.back();
}

std::shared_ptr<PowerTrace::IncomeCache> PowerTrace::fresh_income_cache() {
    return std::make_shared<IncomeCache>();
}

}  // namespace imx::energy
