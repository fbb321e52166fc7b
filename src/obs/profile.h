// Search profiler: the per-decision trace of where the A* spent its budget.
//
// `core::adaptation_search` fills one of these per `find()` call when a sink
// is attached (and skips all of it — including the per-depth vectors — when
// observability is off). Timing comes from the search meter, so under the
// deterministic model-clock meter a profile replays bit-identically across
// runs and hosts: the per-depth "time" is modeled search cost, not
// wall clock, which is exactly what makes traces comparable in CI.
//
// The schema (event type "search") is part of the journal's stable surface;
// see DESIGN.md §10.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/journal.h"

namespace mistral::obs {

struct search_profile {
    double control_window = 0.0;     // CW the search optimized over (s)
    double budget = 0.0;             // UH handed to the self-aware meter ($)
    double duration = 0.0;           // meter-elapsed search time (s)
    double power_cost = 0.0;         // $ the search's own power drew
    std::int64_t expansions = 0;     // vertices expanded
    std::int64_t generated = 0;      // children generated
    bool pruned = false;             // self-aware pruning engaged
    std::string meter;               // "model_clock" / "wall_clock" / custom
    // Index = vertex depth (actions on the path from the root).
    std::vector<double> depth_expansions;  // expansions per depth
    std::vector<double> depth_meter_time;  // meter seconds charged per depth
    std::int64_t plan_actions = 0;   // actions in the returned plan
    double expected_utility = 0.0;   // Eq. 3 value of the returned plan ($)
    double ideal_utility = 0.0;      // U° · CW heuristic bound ($)

    // The journal record (type "search") at simulation time `now`.
    [[nodiscard]] event to_event(double now) const;
};

}  // namespace mistral::obs
