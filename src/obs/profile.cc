#include "obs/profile.h"

namespace mistral::obs {

event search_profile::to_event(double now) const {
    event e("search", now);
    e.num("cw", control_window)
        .num("budget", budget)
        .num("duration", duration)
        .num("power_cost", power_cost)
        .integer("expansions", expansions)
        .integer("generated", generated)
        .boolean("pruned", pruned)
        .text("meter", meter)
        .num_list("depth_expansions", depth_expansions)
        .num_list("depth_meter_time", depth_meter_time)
        .integer("plan_actions", plan_actions)
        .num("expected_utility", expected_utility)
        .num("ideal_utility", ideal_utility);
    return e;
}

}  // namespace mistral::obs
