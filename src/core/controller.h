// The Mistral controller (Fig. 2).
//
// One controller instance wires together the predictor modules — the
// Performance Manager and Power Consolidation Manager (LQN + power models,
// reached through the search's utility evaluations), the Cost Manager (the
// offline-measured cost tables), and the Workload predictor (per-application
// adaptive ARMA filters over measured stability intervals) — with the
// optimizer module (the self-aware A* adaptation search).
//
// It is invoked once per monitoring interval with the measured workload; it
// runs the optimizer only when some application's workload has left its band
// (Section III-D), predicts the next stability interval as the control
// window CW, budgets the search with the lowest recently achieved utility
// (UH), and returns the chosen action sequence.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/lookahead.h"
#include "core/search.h"
#include "core/search_meter.h"
#include "cost/table.h"
#include "predict/arma.h"
#include "workload/monitor.h"

namespace mistral::core {

// The fallback decision ladder's rungs, ordered by decreasing capability.
// Demotion is immediate; promotion climbs one rung at a time after a run of
// clean steps (hysteresis), so a flapping sensor cannot make the controller
// oscillate between full optimization and holding.
enum class control_mode {
    lookahead,  // opt-in top rung: receding-horizon planning over K intervals;
                // a forecast divergence alarm or a blown lookahead deadline
                // demotes to full (today's single-interval behavior)
    full,    // healthy inputs: the self-aware A* plans freely
    greedy,  // degraded telemetry or a blown search deadline: single-action plans
             // under a small expansion budget
    hold,    // untrusted predictor: keep the last known-good configuration;
             // only fenced safety actions (structural repair) still execute
};
[[nodiscard]] const char* to_string(control_mode mode);
// The next rung up (toward lookahead); `top` clamps the climb — a controller
// without lookahead enabled promotes no higher than full. Enum-based rather
// than integer rank arithmetic so rung insertions cannot silently renumber
// the ladder.
[[nodiscard]] control_mode promote_one(control_mode mode, control_mode top);

// Degraded-mode operation: telemetry validation and the fallback ladder.
// Enabled by default and provably inert on healthy inputs — the validator
// passes clean measurements through bit-identically, the ladder stays on the
// full rung, and the band scale stays exactly 1.0.
struct degraded_options {
    bool enabled = true;
    // Telemetry grading (finiteness/range/empty always on; jump and stuck-at
    // plausibility checks are opt-in, see workload/monitor.h).
    wl::validator_options validator{};
    // Consecutive clean steps before the ladder climbs one rung back up.
    int promote_after = 3;
    // Deadline watchdog: demote to greedy when the last search's metered
    // duration exceeded this fraction of its control window. The self-aware
    // search hard-stops at stop_factor · T̄ ≈ 10 % of CW, so the default can
    // only trip when a meter reports genuine overrun (or the search is
    // configured non-self-aware on a large cluster).
    double search_deadline_fraction = 0.5;
};

struct controller_options {
    utility_params utility{};
    // Economics layer (src/econ): a time-of-use tariff, pricing model, and
    // optional carbon price / power-cap schedule bound into the utility model
    // shared by the searches and evaluators. Disabled by default; with a flat
    // default tariff and flat pricing the controller is bit-identical to one
    // without the binding (ctest -L econ).
    econ_profile econ{};
    // Workload band width b (req/s). 0 re-evaluates on any change — the
    // paper's first-level setting; the second level uses 8 req/s.
    req_per_sec band_width = 8.0;
    search_options search{};
    predict::arma_options arma{};
    // CW never drops below one monitoring interval, nor grows beyond the
    // cap: an over-long window (an ARMA over-prediction right as a flash
    // crowd begins) would justify adaptation sequences that execute for many
    // intervals while the workload keeps moving underneath them. The paper's
    // measured stability intervals (Fig. 6) stay under ~700 s.
    seconds min_control_window = default_monitoring_interval;
    seconds max_control_window = 6.0 * default_monitoring_interval;
    // How many recent interval utilities feed the pessimistic UH estimate.
    int utility_history = 5;
    degraded_options degraded{};
    // Receding-horizon lookahead planning (core/lookahead.h). Disabled by
    // default: the flat single-interval controller is bit-identical with this
    // struct at its defaults, and at horizon = 1 even an *enabled* lookahead
    // produces byte-identical decision traces (the differential anchor).
    lookahead_options lookahead{};
    // Observability hook (obs/journal.h): when journaling, the controller
    // emits one "decision" record per step — trigger, predicted vs realized
    // utility, plan, search self-cost, wasted-adaptation ledger — and wires
    // the same sink into the search and evaluation engine unless those set
    // their own. nullptr (the default) is the zero-overhead null sink.
    obs::sink* sink = nullptr;
};

// One monitoring interval's observations, as handed to a controller or
// strategy. A struct rather than positional parameters so the decision
// interface can grow (SLA revisions, host-failure notices, operator hints)
// without touching every implementation and call site again.
struct decision_input {
    seconds now = 0.0;
    // Measured per-application request rates over the interval.
    std::vector<req_per_sec> rates;
    // The configuration currently in effect.
    cluster::configuration current;
    // Utility the system actually accrued over the previous interval
    // (feeds the pessimistic UH search budget).
    dollars last_interval_utility = 0.0;
    // Fault notices from the executor since the last decision (all empty in
    // fault-free operation; appended here so existing positional initializers
    // of the older fields keep compiling).
    std::vector<cluster::action> failed{};     // aborted without taking effect
    std::vector<cluster::action> in_flight{};  // still executing or queued
    std::vector<std::int32_t> hosts_failed{};     // crashed since last decision
    std::vector<std::int32_t> hosts_recovered{};  // failure mark cleared
    // Optional telemetry channels for the validator (empty = the measurement
    // pipeline does not report them). `samples` is completed requests per
    // application: 0 marks an empty observation window.
    std::vector<seconds> response_times{};
    std::vector<double> samples{};
};

struct controller_decision {
    bool invoked = false;  // the optimizer ran this step
    std::vector<cluster::action> actions;
    seconds control_window = 0.0;  // CW the search optimized over
    dollars expected_utility = 0.0;
    dollars ideal_utility = 0.0;
    search_stats stats;
    bool repair = false;      // actions are a structural repair, not a search plan
    bool reconciled = false;  // a fault signal (not the band) forced this run
    // Ladder rung this decision was made on, and the telemetry verdict that
    // (along with predictor trust and the deadline watchdog) selected it.
    control_mode mode = control_mode::full;
    wl::window_quality telemetry_quality = wl::window_quality::healthy;
};

// Running totals of the controller's fault handling (all zero without fault
// injection).
struct reconcile_stats {
    friend bool operator==(const reconcile_stats&, const reconcile_stats&) = default;

    std::int64_t failed_actions = 0;  // abort notices received
    std::int64_t fault_replans = 0;   // optimizer runs forced by fault signals
    std::int64_t repairs = 0;         // structural repair plans issued
    std::int64_t drift_intervals = 0; // intended != actual at a decision point
    // Cost-table estimate of adaptation effort burnt by aborted actions:
    // their nominal durations, and the power-side dollars of their transients
    // (the measured utility already pays the full metered price; this ledger
    // attributes it).
    seconds wasted_adaptation_time = 0.0;
    dollars wasted_transient_cost = 0.0;
};

// Running totals of lookahead planning (all zero with lookahead disabled).
struct lookahead_stats {
    friend bool operator==(const lookahead_stats&, const lookahead_stats&) = default;

    std::int64_t lookahead_decisions = 0;   // plans made on the lookahead rung
    std::int64_t preprovision_commits = 0;  // ... that committed a pre-provision plan
    std::int64_t reactive_commits = 0;      // ... that committed the reactive plan
    std::int64_t forecast_divergences = 0;  // rate-forecaster trust losses
    std::int64_t deadline_demotions = 0;    // lookahead-deadline watchdog firings
};

// Running totals of degraded-mode operation (all zero on healthy inputs).
struct degraded_stats {
    friend bool operator==(const degraded_stats&, const degraded_stats&) = default;

    std::int64_t degraded_windows = 0;  // telemetry verdicts below healthy
    std::int64_t garbage_windows = 0;   // ... of which carried impossible values
    std::int64_t demotions = 0;         // ladder moves toward hold
    std::int64_t promotions = 0;        // ladder moves toward full
    std::int64_t held_triggers = 0;     // triggers answered by holding position
    std::int64_t greedy_decisions = 0;  // plans made on the greedy rung
    std::int64_t deadline_trips = 0;    // search-deadline watchdog firings
};

// What the controller itself carries from one step to the next: the UH
// history, the lookahead alarms, the reconciliation ledger and the ladder
// state. This is the controller's storage for those fields; controller_state
// adds the sub-objects' exports and the power cap.
struct controller_memory {
    std::vector<dollars> utility_history;
    bool first_step = true;

    // Lookahead (empty/false unless options.lookahead.enabled).
    std::vector<bool> prev_forecaster_trusted;
    bool lookahead_deadline_tripped = false;
    lookahead_stats lstats;

    // Reconciliation.
    reconcile_stats rstats;
    std::optional<cluster::configuration> intended;  // where the last plan lands
    int fault_rounds = 0;          // consecutive fault-triggered replans
    seconds backoff_until = 0.0;   // no fault-triggered replan before this

    // Degraded mode (the fallback ladder).
    control_mode mode = control_mode::full;
    int clean_steps = 0;           // consecutive steps eligible for promotion
    bool deadline_tripped = false; // last search blew its deadline fraction
    std::vector<bool> prev_trusted;  // per predictor, for divergence events
    degraded_stats dstats;

    friend bool operator==(const controller_memory&, const controller_memory&) = default;
};

// The controller's complete mutable state, for exact-round-trip checkpoints
// (core/snapshot.h). Everything a step() reads or writes is here — filter
// and guard state, the ladder rung, the reconciliation ledger, the intended
// configuration, the power cap. Deliberately absent: the evaluator's per-app
// sub-solve cache (pure memoization — every decision output is proven
// cache-independent by the delta-eval differential tests) and the current
// tariff factors (import re-derives them from the tariff at the restore
// time). A controller restored from this state emits decisions bit-identical
// to one that never stopped.
struct controller_state : controller_memory {
    wl::monitor_state monitor;
    wl::validator_state validator;
    std::vector<predict::predictor_state> predictors;
    std::vector<predict::predictor_state> rate_forecasters;
    watts power_cap = std::numeric_limits<watts>::infinity();

    friend bool operator==(const controller_state&, const controller_state&) = default;
};

class mistral_controller {
public:
    mistral_controller(const cluster::cluster_model& model, cost::cost_table costs,
                       controller_options options = {});
    // Pinned in place: the lookahead planner (and the greedy rung's shared
    // evaluator) hold pointers into this object's own members.
    mistral_controller(const mistral_controller&) = delete;
    mistral_controller& operator=(const mistral_controller&) = delete;

    // One monitoring-interval step over the interval's observations.
    controller_decision step(const decision_input& in);

    // Exact-round-trip checkpointing (core/snapshot.h). Options, model, and
    // cost tables are reconstruction inputs, not state: the restoring side
    // builds an identically configured controller first, then imports.
    // `now` re-indexes the econ layer's tariff at the restore time; it is
    // ignored when econ is disabled. import_state refuses (invariant_error) a
    // state whose per-app shapes do not fit this controller (DESIGN.md §16);
    // a refused controller is to be discarded.
    [[nodiscard]] controller_state export_state() const;
    void import_state(const controller_state& s, seconds now);

    // Runtime power-budget update (watts; infinity = uncapped). Forwarded to
    // both the full search and the greedy rung without rebuilding either, so
    // the evaluation caches survive a budget change. The global coordinator
    // calls this each interval when redistributing the cluster budget.
    void set_power_cap(watts cap);

    [[nodiscard]] const wl::workload_monitor& monitor() const { return monitor_; }
    [[nodiscard]] const std::vector<predict::stability_predictor>& predictors() const {
        return predictors_;
    }
    [[nodiscard]] const controller_options& options() const { return options_; }
    [[nodiscard]] const adaptation_search& search() const { return search_; }
    [[nodiscard]] const utility_model& utility() const { return utility_; }
    [[nodiscard]] const reconcile_stats& reconciliation() const { return memory_.rstats; }
    // Current ladder rung and degraded-mode totals.
    [[nodiscard]] control_mode mode() const { return memory_.mode; }
    [[nodiscard]] const degraded_stats& degraded() const { return memory_.dstats; }
    // Lookahead totals and the per-application rate forecasters (empty unless
    // options.lookahead.enabled).
    [[nodiscard]] const lookahead_stats& lookahead() const { return memory_.lstats; }
    [[nodiscard]] const std::vector<predict::stability_predictor>&
    rate_forecasters() const {
        return rate_forecasters_;
    }
    [[nodiscard]] const wl::telemetry_validator& validator() const { return validator_; }
    [[nodiscard]] dollars wasted_transient_cost() const {
        return memory_.rstats.wasted_transient_cost;
    }

private:
    const cluster::cluster_model* model_;
    controller_options options_;
    utility_model utility_;
    cost::cost_table costs_;  // kept for the wasted-transient ledger
    adaptation_search search_;
    model_clock_meter meter_;
    wl::workload_monitor monitor_;
    wl::telemetry_validator validator_;
    // The greedy rung: max one action under a small expansion budget, sharing
    // the main search's evaluation engine (and its app cache).
    adaptation_search greedy_search_;
    std::vector<predict::stability_predictor> predictors_;
    // Lookahead (empty/null unless options_.lookahead.enabled).
    std::unique_ptr<lookahead_planner> lookahead_;
    std::vector<predict::stability_predictor> rate_forecasters_;
    controller_memory memory_;

    // Disabled one-branch no-ops unless options_.sink carries a registry.
    obs::counter obs_decisions_;
    obs::counter obs_repairs_;
    obs::counter obs_fault_replans_;
    obs::counter obs_failed_actions_;
    obs::gauge obs_wasted_seconds_;
    obs::gauge obs_wasted_dollars_;
    obs::counter obs_degraded_windows_;
    obs::counter obs_demotions_;
    obs::counter obs_promotions_;
    obs::counter obs_lookahead_decisions_;
    obs::counter obs_preprovisions_;

    [[nodiscard]] dollars pessimistic_expected_utility(seconds cw) const;
    void account_faults(const decision_input& in,
                        const std::vector<req_per_sec>& rates);
    // One ladder step: demote immediately to `target` when it is a lower
    // rung, climb one rung after promote_after consecutive cleaner steps.
    void update_ladder(control_mode target, const char* reason, seconds now);
    // The most capable rung this controller can occupy.
    [[nodiscard]] control_mode top_rung() const {
        return options_.lookahead.enabled ? control_mode::lookahead
                                          : control_mode::full;
    }
};

}  // namespace mistral::core
