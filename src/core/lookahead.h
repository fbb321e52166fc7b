// Receding-horizon lookahead planner (the "MDP mode" of ROADMAP item 2).
//
// Mistral's single-interval controller optimizes one control window at a
// time, so it reacts to a flash crowd only after utility has already been
// lost. The lookahead planner rolls the per-application workload forecast
// forward K intervals (predict/arma.h's forecast_horizon) and searches a
// *sequence* of configurations:
//
//  * Interval 1 always uses the *measured* rates. The reactive candidate is
//    literally the existing single-interval A* call — at K = 1 the planner
//    returns that result unchanged, which is the bit-identity anchor the
//    differential tests pin.
//  * For K > 1, when the forecast peak rises past today's demand and the
//    reactive plan leaves a healthy host dark, a bounded search against the
//    most demanding forecast interval discovers which hosts the peak wants
//    lit. The pre-provision candidate is *augmentative*: the reactive plan
//    plus power-on boosts for those hosts — never a substitute plan searched
//    against forecast rates (a damped trend undershoots real peaks, and a
//    substitutive commit would churn migrations on forecast error; booting a
//    host early risks only its idle power). The augmented first interval is
//    re-scored under the measured rates with the same transient accounting
//    the A* uses (cost tables + per-action overhead + steady evaluation over
//    H = max(CW, D + M)), so pre-provisioning pays its true present cost.
//  * Each candidate's tail is rolled out with bounded-depth continuation
//    searches (the same A* expansion under a small expansion budget, sharing
//    the evaluation engine's sub-solve cache), one per future interval,
//    and each future interval's utility is discounted by a geometric factor
//    times the forecast confidence derived from the band spread.
//
// Only the first interval's plan is committed; the controller replans every
// window (receding horizon). Ties break toward the reactive candidate, so
// lookahead never deviates from today's behavior without a predicted payoff.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/search.h"
#include "core/search_meter.h"
#include "cost/table.h"

namespace mistral::core {

struct lookahead_options {
    bool enabled = false;
    // Planning horizon K in control windows. 1 plans exactly like the
    // single-interval controller (the differential anchor).
    int horizon = 3;
};

// One future interval of the chosen sequence, for the journal.
struct lookahead_step {
    std::vector<req_per_sec> rates;  // forecast centers (interval 1: measured)
    dollars predicted_utility = 0.0; // discounted contribution to the total
};

struct lookahead_result {
    // The committed first-interval plan — exactly what the single-interval
    // controller would report for the chosen candidate.
    search_result committed;
    int horizon = 1;             // intervals actually planned over
    const char* commit_reason = "reactive";  // reactive | preprovision | converged
    bool preprovisioned = false; // the pre-provision candidate won
    std::vector<lookahead_step> steps;       // size == horizon
    dollars total_value = 0.0;   // Σ steps[i].predicted_utility
    std::size_t searches = 0;    // A* invocations this plan spent
    // Meter-elapsed durations: the committed candidate's own first-interval
    // search (feeds the single-interval deadline watchdog, identical to the
    // flat controller at K = 1) and everything the plan ran in total (feeds
    // the lookahead deadline).
    seconds first_duration = 0.0;
    seconds total_duration = 0.0;
};

class lookahead_planner {
public:
    // `primary` is the controller's own full A* — interval-1 searches go
    // through it, so at K = 1 the call sequence (and every shared cache
    // access) is identical to the flat controller. The continuation search is
    // built here from the primary's options under the smaller expansion
    // budget, sharing the primary's evaluation engine.
    lookahead_planner(const cluster::cluster_model& model, utility_model utility,
                      const cost::cost_table& costs,
                      const adaptation_search& primary);

    // Plans from `current` under measured `rates`. `forecast[i]` carries the
    // per-app forecast centers for interval i + 2 and `confidence[i]` its
    // band-derived weight in (0, 1]; both have horizon − 1 entries (empty at
    // K = 1). `cw` is the control window each interval is assumed to last.
    [[nodiscard]] lookahead_result plan(
        const cluster::configuration& current,
        const std::vector<req_per_sec>& rates,
        const std::vector<std::vector<req_per_sec>>& forecast,
        const std::vector<double>& confidence, seconds cw,
        dollars expected_utility, model_clock_meter& meter, seconds now) const;

    void set_power_cap(watts cap) { continuation_.set_power_cap(cap); }

private:
    // Interval-1 dollars of executing `plan` from `current` under the
    // measured rates: the A*'s own valuation (transient accrual from the cost
    // tables, per-action overhead, steady rate over H = max(CW, D + M)),
    // re-applied to a plan that was searched under different (forecast)
    // rates. `cap_rate` clamps transient accrual exactly like the search
    // clamps at the ideal rate.
    [[nodiscard]] dollars score_plan(const cluster::configuration& current,
                                     const std::vector<cluster::action>& plan,
                                     const std::vector<req_per_sec>& rates,
                                     seconds cw, double cap_rate) const;

    const cluster::cluster_model* model_;
    utility_model utility_;
    const cost::cost_table* costs_;
    const adaptation_search* primary_;
    adaptation_search continuation_;  // bounded-depth tail search, shared engine
};

}  // namespace mistral::core
