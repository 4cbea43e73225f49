// Event arrivals ("interesting events" the sensor must classify). The
// arrival processes that generate them live in the arrival-source registry
// (sim/arrivals/registry.hpp).
#ifndef IMX_SIM_EVENT_GEN_HPP
#define IMX_SIM_EVENT_GEN_HPP

namespace imx::sim {

struct Event {
    int id = 0;
    double time_s = 0.0;
};

}  // namespace imx::sim

#endif  // IMX_SIM_EVENT_GEN_HPP
