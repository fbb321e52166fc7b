// The optimal-adaptation search (Section IV-B, Algorithm 1).
//
// The search graph's vertices are configurations and its edges adaptation
// actions; Mistral looks for the action sequence maximizing Eq. 3 over the
// predicted stability interval CW. Two variants share this implementation:
//
//  * Naive A*: the cost-to-go heuristic for any vertex is the *ideal
//    utility* from the Perf-Pwr optimizer — the best steady accrual rate any
//    configuration could achieve, which over-estimates the achievable
//    utility (costs only subtract), making it an admissible heuristic for
//    the maximization and the returned sequence optimal.
//
//  * Self-Aware A*: additionally meters its own elapsed time and power, and
//    once the accumulated search cost reaches the expected utility UH — or
//    the elapsed time exceeds the delay threshold T̄ (5 % of the control
//    window) — it restricts each expansion to the top fraction of children
//    closest to the ideal configuration under the weighted Euclidean
//    cap-distance plus placement-distance metric.
//
// Vertices carry the accrued transient utility Σ d(a_k)·(U_RT + U_pwr rates
// during a_k) predicted from the cost tables; candidate configurations are
// valued by their own steady rate over the remaining window, intermediates
// by the ideal bound. A "null" edge from a candidate marks it terminal;
// popping a terminal vertex ends the search (its utility dominates every
// bound still open).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include <memory>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/evaluator.h"
#include "core/perf_pwr.h"
#include "core/search_meter.h"
#include "core/utility.h"
#include "cost/table.h"
#include "obs/metrics.h"

namespace mistral::obs {
class sink;
}

namespace mistral::core {

// Fixed $ overhead charged per planned action: the management plane's
// actuation cost (API calls, scheduler churn, operator risk). Without it,
// near-zero-cost actions (CPU-cap steps) make arbitrarily long plans
// value-ties, and the search wanders. The lookahead re-scores plans with it.
inline constexpr dollars per_action_overhead = 0.01;

// All options are validated in the adaptation_search constructor; nonsense
// values (a zero keep-fraction, a stop factor below 1) throw invariant_error
// rather than being silently accepted.
struct search_options {
    bool self_aware = true;
    // Fraction of children kept when pruning kicks in (paper: top 5 %).
    double prune_keep_fraction = 0.05;
    // Delay threshold T̄ as a fraction of the control window (paper: 5 %).
    double delay_threshold_fraction = 0.05;
    // Hard stop: past stop_factor · T̄ the search returns the best candidate
    // found so far ("it may be better to make a suboptimal decision quickly
    // than invest time and energy searching", Section I). The ideal-utility
    // heuristic is loose — no reachable candidate attains it once any action
    // has a cost — so without this the A* degenerates to exhaustion.
    double stop_factor = 2.0;
    // Hard safety cap on expansions; the naive variant hits this on large
    // clusters (the exponential blow-up Table I reports).
    std::size_t max_expansions = 4000;
    // Hard bound on a single decision's action count. Real reconfigurations
    // in this problem size need at most a dozen actions; the bound is a
    // backstop against accrual-exploiting walks.
    std::size_t max_plan_actions = 16;
    // The seeded planner route is normally exempt from max_plan_actions: a
    // full-cluster rescue must survive as a candidate even when it is long.
    // The degraded-mode greedy rung turns the exemption off so that *no*
    // code path — seeding included — can emit more than max_plan_actions
    // actions in a single decision.
    bool seed_beyond_plan_limit = true;
    cluster::action_menu menu{};
    lqn::model_options lqn{};
    // Utility-evaluation engine options (its observability sink; inherits
    // `sink` below when unset). See evaluator.h and DESIGN.md for the
    // sub-solve cache's contract.
    evaluation_options evaluation{};
    // Optional per-app host restriction: app_hosts[a][h] == false forbids
    // placing app a's VMs on host h (used by the Perf-Cost baseline's fixed
    // pools). Empty = unrestricted.
    std::vector<std::vector<bool>> app_hosts;
    // Optional host scope for hierarchy levels: when non-empty, the search
    // only touches VMs currently on in-scope hosts, only moves them to
    // in-scope hosts, and only power-cycles in-scope hosts (Section II-C's
    // first-level controllers manage "a small number of machines").
    std::vector<bool> host_scope;
    // Power budget (watts): configurations drawing more than this are not
    // accepted as terminals, so the returned plan's destination respects the
    // cap (CloudPowerCap-style pod budgets redistribute this each interval
    // via set_power_cap). Intermediates may exceed it transiently, exactly
    // like the packing constraint. Infinity = uncapped.
    watts power_cap = std::numeric_limits<watts>::infinity();
    // Observability hook (obs/journal.h): when journaling, every find() emits
    // one "search" profile event (DESIGN.md §10) — per-depth expansion counts
    // and meter time, budget/pruning state — and the search
    // registers hot-path counters in the sink's metrics registry. nullptr
    // (the default null sink) keeps the search byte-identical to an
    // uninstrumented build.
    obs::sink* sink = nullptr;
};

struct search_stats {
    seconds duration = 0.0;          // meter-elapsed search time
    std::size_t expansions = 0;      // vertices expanded
    std::size_t generated = 0;       // children generated
    bool pruned = false;             // self-aware pruning engaged
    dollars search_power_cost = 0.0; // $ cost of the search's own power draw
                                     // over `duration`
    // Delta-evaluation accounting for this find() (see evaluator.h): LQN
    // sub-solves actually performed vs. reused from the per-app cache.
    std::size_t eval_app_solves = 0;
    std::size_t eval_app_cache_hits = 0;
    std::size_t eval_app_cache_misses = 0;

    // Folds another search into these totals: every count, time and cost
    // sums, and pruning is on if it was on in either. The lookahead and the
    // coordinator merge their several searches per decision through this.
    void merge(const search_stats& s) {
        duration += s.duration;
        expansions += s.expansions;
        generated += s.generated;
        pruned = pruned || s.pruned;
        search_power_cost += s.search_power_cost;
        eval_app_solves += s.eval_app_solves;
        eval_app_cache_hits += s.eval_app_cache_hits;
        eval_app_cache_misses += s.eval_app_cache_misses;
    }
};

struct search_result {
    // Empty means "stay in the current configuration".
    std::vector<cluster::action> actions;
    cluster::configuration target;
    dollars expected_utility = 0.0;  // Eq. 3 value over the control window
    dollars ideal_utility = 0.0;     // U° · CW (the heuristic's bound)
    search_stats stats;
};

class adaptation_search {
public:
    // Builds the evaluation engine (make_evaluator) and routes every
    // steady-state utility computation through it.
    adaptation_search(const cluster::cluster_model& model, utility_model utility,
                      cost::cost_table costs, search_options options = {});
    // Injects a caller-owned evaluator (a sub-solve cache shared across
    // components, or a test double); `options.evaluation` is ignored in this
    // form.
    adaptation_search(const cluster::cluster_model& model, utility_model utility,
                      cost::cost_table costs, search_options options,
                      std::shared_ptr<utility_evaluator> evaluator);

    [[nodiscard]] const search_options& options() const { return options_; }
    // Runtime budget update (the global coordinator redistributes pod power
    // budgets each interval); does not rebuild the evaluation engine, so the
    // app cache survives. Must be > 0 (infinity = uncapped).
    void set_power_cap(watts cap);
    [[nodiscard]] utility_evaluator& evaluator() const { return *evaluator_; }
    // The engine itself, for building sibling searches (e.g. the degraded
    // ladder's greedy rung) that share this search's app cache.
    [[nodiscard]] const std::shared_ptr<utility_evaluator>& shared_evaluator() const {
        return evaluator_;
    }

    // Finds the best action sequence from `current` for workload `rates`
    // over the control window `cw`. `expected_utility` is the self-aware
    // budget UH ($ over the window; pass the lowest recently achieved
    // utility, scaled to the window). The meter is begun, charged per
    // expansion, and read for the self-cost accounting. `now` is the
    // simulation timestamp stamped onto the journal's "search" event; it has
    // no effect on the decision.
    [[nodiscard]] search_result find(const cluster::configuration& current,
                                     const std::vector<req_per_sec>& rates,
                                     seconds cw, dollars expected_utility,
                                     model_clock_meter& meter,
                                     seconds now = 0.0) const;

private:
    const cluster::cluster_model* model_;
    utility_model utility_;
    cost::cost_table costs_;
    search_options options_;
    std::shared_ptr<utility_evaluator> evaluator_;
    perf_pwr_optimizer perf_pwr_;
    // Disabled one-branch no-ops unless options_.sink carries a registry.
    obs::counter obs_expansions_;
    obs::counter obs_generated_;
    obs::histogram obs_duration_;
};

}  // namespace mistral::core
