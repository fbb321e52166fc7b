#include "core/controller.h"

#include <algorithm>
#include <cmath>

#include "cluster/action.h"
#include "common/check.h"
#include "core/planner.h"
#include "obs/journal.h"

namespace mistral::core {

namespace {

// The search (and through it the evaluation engine) inherits the
// controller's observability sink unless the caller wired its own.
controller_options inherit_search_sink(controller_options options) {
    if (options.search.sink == nullptr) {
        options.search.sink = options.sink;
    }
    return options;
}

// The controller's utility model, with the econ profile bound before any
// copy is taken: search_, greedy_search_, the lookahead planner, and the
// evaluators all copy utility_, and a bound model's copies share one econ
// state — one update_econ() call at the top of step() re-prices every layer.
utility_model make_bound_utility(const controller_options& options) {
    utility_model utility(options.utility);
    if (options.econ.enabled) utility.bind_econ(options.econ);
    return utility;
}

// The greedy rung plans at most one action under a small expansion budget;
// everything else (menu, scopes, evaluation options) matches the main search.
search_options greedy_rung_options(const controller_options& options) {
    search_options out = options.search;
    out.max_plan_actions = 1;
    out.seed_beyond_plan_limit = false;  // the one-action bound is the contract
    out.max_expansions =
        std::min(out.max_expansions, options.degraded.greedy_max_expansions);
    return out;
}

}  // namespace

const char* to_string(control_mode mode) {
    switch (mode) {
        case control_mode::lookahead: return "lookahead";
        case control_mode::full: return "full";
        case control_mode::greedy: return "greedy";
        case control_mode::hold: return "hold";
    }
    return "?";
}

control_mode promote_one(control_mode mode, control_mode top) {
    control_mode up = mode;
    switch (mode) {
        case control_mode::lookahead: up = control_mode::lookahead; break;
        case control_mode::full: up = control_mode::lookahead; break;
        case control_mode::greedy: up = control_mode::full; break;
        case control_mode::hold: up = control_mode::greedy; break;
    }
    // Only the climb full → lookahead can exceed the configured top rung (a
    // controller without lookahead enabled stops at full).
    return (up == control_mode::lookahead && top != control_mode::lookahead)
               ? top
               : up;
}

mistral_controller::mistral_controller(const cluster::cluster_model& model,
                                       cost::cost_table costs,
                                       controller_options options,
                                       std::unique_ptr<search_meter> meter)
    : model_(&model),
      options_(inherit_search_sink(std::move(options))),
      utility_(make_bound_utility(options_)),
      costs_(std::move(costs)),
      search_(model, utility_, costs_, options_.search),
      meter_(meter ? std::move(meter) : std::make_unique<model_clock_meter>()),
      monitor_(model.app_count(), options_.band_width),
      validator_(model.app_count(), options_.degraded.validator),
      greedy_search_(model, utility_, costs_, greedy_rung_options(options_),
                     search_.shared_evaluator()) {
    MISTRAL_CHECK(options_.min_control_window > 0.0);
    MISTRAL_CHECK(options_.max_control_window >= options_.min_control_window);
    MISTRAL_CHECK(options_.band_width >= 0.0);
    MISTRAL_CHECK(options_.utility_history >= 1);
    MISTRAL_CHECK(options_.reconcile.max_retries >= 0);
    MISTRAL_CHECK(options_.reconcile.base_backoff >= 0.0);
    MISTRAL_CHECK(options_.reconcile.backoff_factor >= 1.0);
    MISTRAL_CHECK(options_.degraded.promote_after >= 1);
    MISTRAL_CHECK(options_.degraded.search_deadline_fraction > 0.0);
    MISTRAL_CHECK(options_.degraded.greedy_max_expansions >= 1);
    predictors_.reserve(model.app_count());
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        predict::arma_options arma = options_.arma;
        predictors_.emplace_back(arma);
    }
    prev_trusted_.assign(model.app_count(), true);
    if (options_.lookahead.enabled) {
        // The planner's interval-1 searches go through this controller's own
        // search_ (same object, same shared caches), which is what makes the
        // horizon = 1 decision trace bit-identical to the flat controller.
        lookahead_ = std::make_unique<lookahead_planner>(
            model, utility_, costs_, search_, options_.lookahead);
        rate_forecasters_.reserve(model.app_count());
        for (std::size_t a = 0; a < model.app_count(); ++a) {
            rate_forecasters_.emplace_back(options_.lookahead.rate_arma);
        }
        prev_forecaster_trusted_.assign(model.app_count(), true);
        mode_ = control_mode::lookahead;
    }
    if (auto* reg = obs::metrics_of(options_.sink)) {
        obs_decisions_ = reg->register_counter(
            "mistral_controller_decisions_total",
            "Optimizer invocations (first-step, band, or fault triggers)");
        obs_repairs_ = reg->register_counter(
            "mistral_controller_repairs_total",
            "Structural repair plans issued after host crashes");
        obs_fault_replans_ = reg->register_counter(
            "mistral_controller_fault_replans_total",
            "Replans forced by fault signals inside the workload band");
        obs_failed_actions_ = reg->register_counter(
            "mistral_controller_failed_actions_total",
            "Action abort notices received from the executor");
        obs_wasted_seconds_ = reg->register_gauge(
            "mistral_controller_wasted_adaptation_seconds",
            "Wasted-adaptation ledger: nominal duration of aborted actions");
        obs_wasted_dollars_ = reg->register_gauge(
            "mistral_controller_wasted_transient_dollars",
            "Wasted-adaptation ledger: power-side cost of aborted transients");
        obs_degraded_windows_ = reg->register_counter(
            "mistral_controller_degraded_windows_total",
            "Observation windows whose telemetry verdict was below healthy");
        obs_demotions_ = reg->register_counter(
            "mistral_controller_ladder_demotions_total",
            "Fallback-ladder moves toward hold");
        obs_promotions_ = reg->register_counter(
            "mistral_controller_ladder_promotions_total",
            "Fallback-ladder moves toward full");
        obs_lookahead_decisions_ = reg->register_counter(
            "mistral_controller_lookahead_decisions_total",
            "Plans made on the receding-horizon lookahead rung");
        obs_preprovisions_ = reg->register_counter(
            "mistral_controller_lookahead_preprovisions_total",
            "Lookahead decisions that committed a pre-provision plan");
    }
}

dollars mistral_controller::pessimistic_expected_utility(seconds cw) const {
    if (utility_history_.empty()) {
        // No achievement history yet: assume a neutral budget so the first
        // searches run unconstrained.
        return 0.0;
    }
    const dollars lowest =
        *std::min_element(utility_history_.begin(), utility_history_.end());
    // History entries are per monitoring interval; scale to the window.
    return lowest * cw / options_.utility.monitoring_interval;
}

void mistral_controller::account_faults(const decision_input& in,
                                        const std::vector<req_per_sec>& rates) {
    for (const auto& a : in.failed) {
        ++rstats_.failed_actions;
        obs_failed_actions_.add();
        const auto entry = costs_.lookup(*model_, a, rates);
        rstats_.wasted_adaptation_time += entry.duration;
        rstats_.wasted_transient_cost +=
            entry.duration * -utility_.power_rate(std::max(0.0, entry.delta_power));
    }
    if (!in.failed.empty()) {
        obs_wasted_seconds_.set(rstats_.wasted_adaptation_time);
        obs_wasted_dollars_.set(rstats_.wasted_transient_cost);
    }
}

void mistral_controller::update_ladder(control_mode target, const char* reason,
                                       seconds now) {
    // Rung comparisons and the climb are enum-based (control_mode declares
    // the rungs in capability order; promote_one names each step explicitly),
    // so inserting a rung cannot silently renumber the ladder.
    control_mode from = mode_;
    const char* direction = nullptr;
    if (target > mode_) {
        // Demote immediately: a rung was selected because the inputs cannot
        // support anything more ambitious right now.
        mode_ = target;
        clean_steps_ = 0;
        ++dstats_.demotions;
        obs_demotions_.add();
        direction = "demote";
    } else if (target < mode_) {
        // Promote with hysteresis, one rung at a time.
        ++clean_steps_;
        if (clean_steps_ >= options_.degraded.promote_after) {
            mode_ = promote_one(mode_, top_rung());
            clean_steps_ = 0;
            ++dstats_.promotions;
            obs_promotions_.add();
            direction = "promote";
            reason = "recovered";
        }
    } else {
        clean_steps_ = 0;
    }
    if (direction != nullptr && obs::journaling(options_.sink)) {
        obs::event e("ladder_transition", now);
        e.text("direction", direction)
            .text("from", to_string(from))
            .text("to", to_string(mode_))
            .text("reason", reason);
        options_.sink->record(e);
    }
}

void mistral_controller::set_power_cap(watts cap) {
    search_.set_power_cap(cap);
    greedy_search_.set_power_cap(cap);
    if (lookahead_) lookahead_->set_power_cap(cap);
}

controller_state mistral_controller::export_state() const {
    controller_state s;
    s.monitor = monitor_.export_state();
    s.validator = validator_.export_state();
    s.predictors.reserve(predictors_.size());
    for (const auto& p : predictors_) s.predictors.push_back(p.export_state());
    s.utility_history = utility_history_;
    s.first_step = first_step_;
    s.rate_forecasters.reserve(rate_forecasters_.size());
    for (const auto& p : rate_forecasters_) {
        s.rate_forecasters.push_back(p.export_state());
    }
    s.prev_forecaster_trusted = prev_forecaster_trusted_;
    s.lookahead_deadline_tripped = lookahead_deadline_tripped_;
    s.lstats = lstats_;
    s.rstats = rstats_;
    s.intended = intended_;
    s.fault_rounds = fault_rounds_;
    s.backoff_until = backoff_until_;
    s.mode = mode_;
    s.clean_steps = clean_steps_;
    s.deadline_tripped = deadline_tripped_;
    s.prev_trusted = prev_trusted_;
    s.dstats = dstats_;
    s.power_cap = search_.options().power_cap;
    return s;
}

void mistral_controller::import_state(const controller_state& s, seconds now) {
    MISTRAL_CHECK_MSG(s.predictors.size() == predictors_.size(),
                      "checkpoint predictor count "
                          << s.predictors.size() << " != controller's "
                          << predictors_.size());
    MISTRAL_CHECK(s.rate_forecasters.size() == rate_forecasters_.size());
    monitor_.import_state(s.monitor);
    validator_.import_state(s.validator);
    for (std::size_t i = 0; i < predictors_.size(); ++i) {
        predictors_[i].import_state(s.predictors[i]);
    }
    utility_history_ = s.utility_history;
    first_step_ = s.first_step;
    for (std::size_t i = 0; i < rate_forecasters_.size(); ++i) {
        rate_forecasters_[i].import_state(s.rate_forecasters[i]);
    }
    prev_forecaster_trusted_ = s.prev_forecaster_trusted;
    lookahead_deadline_tripped_ = s.lookahead_deadline_tripped;
    lstats_ = s.lstats;
    rstats_ = s.rstats;
    intended_ = s.intended;
    fault_rounds_ = s.fault_rounds;
    backoff_until_ = s.backoff_until;
    mode_ = s.mode;
    clean_steps_ = s.clean_steps;
    deadline_tripped_ = s.deadline_tripped;
    prev_trusted_ = s.prev_trusted;
    dstats_ = s.dstats;
    if (std::isfinite(s.power_cap)) set_power_cap(s.power_cap);
    // The tariff factors are deliberately not checkpointed: re-indexing the
    // tariff at the restore time reproduces the live controller's pricing
    // exactly.
    if (utility_.econ_bound()) utility_.update_econ(now);
}

controller_decision mistral_controller::step(const decision_input& in) {
    const seconds now = in.now;
    MISTRAL_CHECK(in.rates.size() == model_->app_count());
    controller_decision decision;

    // Economics: re-index the tariff at this step's timestamp before anything
    // evaluates (the searches and evaluators share utility_'s econ state), and
    // apply the power-cap schedule on top of the search's terminal legality.
    // A changed factor forces a replan below — the workload band only reacts
    // to rate movement and would happily sit through a price step — and is
    // journaled as a tariff_change. Inert without an econ binding; inert in
    // effect under a flat tariff (no factor ever changes).
    bool tariff_changed = false;
    if (utility_.econ_bound()) {
        const econ_factors before = utility_.econ_now();
        tariff_changed = utility_.update_econ(now);
        if (options_.econ.power_cap_schedule) {
            set_power_cap(options_.econ.power_cap_schedule->at(now));
        }
        if (tariff_changed && obs::journaling(options_.sink)) {
            obs::event e("tariff_change", now);
            e.num("price", utility_.econ_now().power_price)
                .num("carbon_intensity", utility_.econ_now().carbon_intensity)
                .num("prev_price", before.power_price)
                .num("prev_carbon_intensity", before.carbon_intensity);
            options_.sink->record(e);
        }
    }

    // Grade the window before anything downstream sees it. A disabled
    // validator — and a healthy verdict — pass the measured rates through
    // with identical bits, so this stage is inert on clean telemetry.
    const auto& deg = options_.degraded;
    wl::quality_verdict verdict;
    if (deg.enabled) {
        wl::telemetry_window window;
        window.time = now;
        window.rates = in.rates;
        window.response_times = in.response_times;
        window.samples = in.samples;
        verdict = validator_.validate(window);
    } else {
        verdict.rates = in.rates;
        verdict.app_flags.assign(in.rates.size(), wl::quality_ok);
    }
    const std::vector<req_per_sec>& rates = verdict.rates;
    decision.telemetry_quality = verdict.quality;
    decision.mode = mode_;
    if (!verdict.healthy()) {
        ++dstats_.degraded_windows;
        obs_degraded_windows_.add();
        if (verdict.quality == wl::window_quality::garbage) {
            ++dstats_.garbage_windows;
        }
    }

    // One journal record per step (including holds and in-band no-ops), so a
    // journal reader sees every interval's predicted-vs-realized state.
    bool drift = false;
    dollars budget = 0.0;
    auto emit_decision = [&](const char* trigger) {
        if (!obs::journaling(options_.sink)) return;
        std::vector<std::string> names;
        names.reserve(decision.actions.size());
        for (const auto& a : decision.actions) {
            names.push_back(cluster::to_string(*model_, a));
        }
        obs::event e("decision", now);
        e.text("trigger", trigger)
            .boolean("invoked", decision.invoked)
            .boolean("repair", decision.repair)
            .boolean("reconciled", decision.reconciled)
            .num("cw", decision.control_window)
            .num("budget", budget)
            .num("expected_utility", decision.expected_utility)
            .num("ideal_utility", decision.ideal_utility)
            .num("realized_utility", in.last_interval_utility)
            .text_list("actions", std::move(names))
            .integer("expansions",
                     static_cast<std::int64_t>(decision.stats.expansions))
            .integer("generated",
                     static_cast<std::int64_t>(decision.stats.generated))
            .boolean("pruned", decision.stats.pruned)
            .num("search_duration", decision.stats.duration)
            .num("search_power_cost", decision.stats.search_power_cost)
            .integer("failed_actions",
                     static_cast<std::int64_t>(in.failed.size()))
            .integer("fault_rounds", fault_rounds_)
            .boolean("drift", drift)
            .num("wasted_seconds", rstats_.wasted_adaptation_time)
            .num("wasted_dollars", rstats_.wasted_transient_cost)
            .text("mode", to_string(decision.mode))
            .text("quality", wl::to_string(decision.telemetry_quality));
        options_.sink->record(e);
    };

    if (!first_step_) {
        utility_history_.push_back(in.last_interval_utility);
        if (static_cast<int>(utility_history_.size()) > options_.utility_history) {
            utility_history_.erase(utility_history_.begin());
        }
    }

    const auto event = monitor_.observe(now, rates);
    for (std::size_t i = 0; i < event.exceeded.size(); ++i) {
        predictors_[event.exceeded[i]].observe(event.completed_intervals[i]);
    }

    // Divergence-guard bookkeeping: journal trust flips, and widen the
    // workload bands by the worst drifting predictor's multiplier (exactly
    // 1.0 while every predictor tracks — bit-identical band checks).
    bool any_untrusted = false;
    if (deg.enabled) {
        double band_scale = 1.0;
        for (std::size_t a = 0; a < predictors_.size(); ++a) {
            const auto& p = predictors_[a];
            if (!p.trusted()) any_untrusted = true;
            band_scale = std::max(band_scale, p.band_multiplier());
            if (p.trusted() != prev_trusted_[a]) {
                prev_trusted_[a] = p.trusted();
                if (obs::journaling(options_.sink)) {
                    obs::event e("predictor_divergence", now);
                    e.integer("app", static_cast<std::int64_t>(a))
                        .boolean("trusted", p.trusted())
                        .num("drift", p.drift())
                        .integer("reestimation_attempts", p.reestimation_attempts())
                        .boolean("reestimation_active", p.reestimation_active());
                    options_.sink->record(e);
                }
            }
        }
        monitor_.set_band_scale(band_scale);
    }

    // Rate forecasters feed the lookahead horizon. Observing is passive — it
    // affects no decision until the lookahead rung consumes a forecast — so a
    // horizon = 1 controller stays bit-identical to the flat one. A trust
    // loss here is the lookahead-specific divergence alarm; the ladder below
    // answers it by demoting to full (today's behavior), not greedy.
    if (options_.lookahead.enabled) {
        for (std::size_t a = 0; a < rate_forecasters_.size(); ++a) {
            if (std::isfinite(rates[a]) && rates[a] >= 0.0) {
                rate_forecasters_[a].observe(rates[a]);
            }
            if (rate_forecasters_[a].trusted() != prev_forecaster_trusted_[a]) {
                prev_forecaster_trusted_[a] = rate_forecasters_[a].trusted();
                if (!rate_forecasters_[a].trusted()) {
                    ++lstats_.forecast_divergences;
                }
            }
        }
    }

    const auto& rec = options_.reconcile;
    account_faults(in, rates);
    const bool fault_signal = !in.failed.empty() || !in.hosts_failed.empty() ||
                              !in.hosts_recovered.empty();
    if (!fault_signal) fault_rounds_ = 0;

    // While the executor still runs a previous sequence, hold off: planning
    // against a configuration that queued actions are about to change would
    // race them. (The fault-free harness only calls step() when idle, so
    // this path never fires there.)
    if (!in.in_flight.empty()) {
        first_step_ = false;
        emit_decision("hold");
        return decision;
    }

    // The base the optimizer plans from. plan_against_actual=false is the
    // harness's documented controller mutation: plan from what the last
    // decision intended instead of what the executor reports.
    const cluster::configuration& base =
        (rec.plan_against_actual || !intended_) ? in.current : *intended_;
    if (intended_ && !(*intended_ == in.current)) {
        ++rstats_.drift_intervals;
        drift = true;
    }

    // Repair first: a crash that pushed a tier below its replica minimum
    // leaves a configuration the steady-state predictors cannot even
    // evaluate; restore structural validity before optimizing.
    if (rec.enabled && !cluster::structurally_valid(*model_, base)) {
        auto repair = plan_repair(*model_, base);
        if (!repair.empty()) {
            first_step_ = false;
            ++rstats_.repairs;
            obs_decisions_.add();
            obs_repairs_.add();
            decision.invoked = true;
            decision.repair = true;
            decision.reconciled = true;
            decision.actions = std::move(repair);
            intended_ = apply_plan(*model_, base, decision.actions);
            monitor_.recenter(now, rates);
            emit_decision("repair");
            return decision;
        }
    }

    // Fallback ladder: pick the rung this step's inputs can support, demote
    // immediately, promote with hysteresis. Structural repair above runs in
    // every mode (a fenced safety action); everything below is gated.
    if (deg.enabled) {
        control_mode target = control_mode::full;
        const char* reason = "healthy";
        if (any_untrusted) {
            target = control_mode::hold;
            reason = "predictor_untrusted";
        } else if (verdict.quality == wl::window_quality::garbage) {
            target = control_mode::greedy;
            reason = "telemetry_garbage";
        } else if (verdict.quality == wl::window_quality::degraded) {
            target = control_mode::greedy;
            reason = "telemetry_degraded";
        } else if (deadline_tripped_) {
            target = control_mode::greedy;
            reason = "search_deadline";
        } else if (options_.lookahead.enabled) {
            // Healthy inputs: the top rung is lookahead, unless one of its
            // own alarms (forecast divergence, blown lookahead deadline)
            // holds it at full — the single-interval controller's behavior.
            bool forecasters_trusted = true;
            for (const auto& f : rate_forecasters_) {
                forecasters_trusted = forecasters_trusted && f.trusted();
            }
            if (!forecasters_trusted) {
                reason = "forecast_divergence";
            } else if (lookahead_deadline_tripped_) {
                reason = "lookahead_deadline";
            } else {
                target = control_mode::lookahead;
            }
        }
        update_ladder(target, reason, now);
    }
    decision.mode = mode_;

    // A fault signal forces a replan even inside the workload band, bounded
    // by max_retries consecutive rounds with geometric backoff between them.
    // On the hold rung fault replans are suppressed too: replanning is
    // exactly the adaptation an untrusted predictor cannot justify (the
    // structural-repair path above already handled safety).
    bool force = false;
    if (rec.enabled && mode_ != control_mode::hold && fault_signal &&
        now + 1e-9 >= backoff_until_ && fault_rounds_ < rec.max_retries) {
        force = true;
        backoff_until_ =
            now + rec.base_backoff * std::pow(rec.backoff_factor, fault_rounds_);
        ++fault_rounds_;
        ++rstats_.fault_replans;
        obs_fault_replans_.add();
    }

    const bool trigger =
        first_step_ || event.any_exceeded || force || tariff_changed;
    const char* trigger_name = first_step_          ? "first"
                               : force              ? "fault"
                               : event.any_exceeded ? "band"
                               : tariff_changed     ? "tariff"
                                                    : "none";
    first_step_ = false;
    if (!trigger) {
        emit_decision("none");
        return decision;
    }

    // Control window: the most conservative (shortest) of the predictions
    // for the applications that just moved, floored at one interval.
    seconds cw = options_.min_control_window;
    if (!event.exceeded.empty()) {
        seconds shortest = predictors_[event.exceeded.front()].current_estimate();
        for (std::size_t i = 1; i < event.exceeded.size(); ++i) {
            shortest =
                std::min(shortest, predictors_[event.exceeded[i]].current_estimate());
        }
        cw = std::max(cw, shortest);
    }
    cw = std::min(cw, options_.max_control_window);

    // Hold rung: the trigger is real, but interval predictions are untrusted,
    // so re-center the bands on the new level and keep the last known-good
    // configuration. Predictors keep observing (above), so trust can recover.
    if (mode_ == control_mode::hold) {
        ++dstats_.held_triggers;
        decision.control_window = cw;
        monitor_.recenter(now, rates);
        emit_decision(trigger_name);
        return decision;
    }

    const bool greedy = mode_ == control_mode::greedy;
    const dollars uh = pessimistic_expected_utility(cw);
    search_result result;
    if (mode_ == control_mode::lookahead) {
        // Receding horizon: forecast intervals 2..K from the rate
        // forecasters, plan a sequence, commit only interval 1, replan next
        // window. At horizon = 1 this is one find() on the controller's own
        // search — the flat controller's exact call.
        const int k = options_.lookahead.horizon;
        std::vector<std::vector<req_per_sec>> forecast;
        std::vector<double> confidence;
        if (k > 1) {
            std::vector<std::vector<predict::forecast_band>> bands;
            bands.reserve(rate_forecasters_.size());
            for (const auto& f : rate_forecasters_) {
                bands.push_back(
                    f.forecast_horizon(k, options_.lookahead.horizon_model));
            }
            forecast.reserve(static_cast<std::size_t>(k) - 1);
            confidence.reserve(static_cast<std::size_t>(k) - 1);
            for (int i = 1; i < k; ++i) {
                std::vector<req_per_sec> fr(bands.size());
                double spread = 0.0;
                for (std::size_t a = 0; a < bands.size(); ++a) {
                    const auto& b = bands[a][static_cast<std::size_t>(i)];
                    fr[a] = b.center;
                    spread = std::max(spread,
                                      b.half_width / std::max(b.center, 1.0));
                }
                forecast.push_back(std::move(fr));
                confidence.push_back(1.0 / (1.0 + spread));
            }
        }
        auto la = lookahead_->plan(base, rates, forecast, confidence, cw, uh,
                                   *meter_, now);
        ++lstats_.lookahead_decisions;
        obs_lookahead_decisions_.add();
        if (la.preprovisioned) {
            ++lstats_.preprovision_commits;
            obs_preprovisions_.add();
        } else {
            ++lstats_.reactive_commits;
        }
        if (deg.enabled) {
            // The single-interval watchdog sees only the committed plan's own
            // search (identical to the flat controller at horizon = 1); the
            // lookahead watchdog sees the whole plan and demotes one rung to
            // full via the ladder above.
            const bool tripped =
                la.first_duration > deg.search_deadline_fraction * cw;
            if (tripped && !deadline_tripped_) ++dstats_.deadline_trips;
            deadline_tripped_ = tripped;
            const bool la_tripped =
                la.total_duration > options_.lookahead.deadline_fraction * cw;
            if (la_tripped && !lookahead_deadline_tripped_) {
                ++lstats_.deadline_demotions;
            }
            lookahead_deadline_tripped_ = la_tripped;
        }
        if (obs::journaling(options_.sink)) {
            std::vector<double> step_utilities;
            step_utilities.reserve(la.steps.size());
            for (const auto& s : la.steps) {
                step_utilities.push_back(s.predicted_utility);
            }
            obs::event e("lookahead", now);
            e.integer("horizon", la.horizon)
                .text("commit", la.commit_reason)
                .boolean("preprovision", la.preprovisioned)
                .num("total_value", la.total_value)
                .num_list("step_utilities", std::move(step_utilities))
                .integer("searches", static_cast<std::int64_t>(la.searches))
                .num("first_duration", la.first_duration)
                .num("total_duration", la.total_duration);
            options_.sink->record(e);
        }
        result = std::move(la.committed);
    } else {
        result = (greedy ? greedy_search_ : search_).find(base, rates, cw, uh,
                                                          *meter_, now);
        if (greedy) ++dstats_.greedy_decisions;

        // Deadline watchdog feeding the next step's rung selection.
        if (deg.enabled) {
            const bool tripped =
                result.stats.duration > deg.search_deadline_fraction * cw;
            if (tripped && !deadline_tripped_) ++dstats_.deadline_trips;
            deadline_tripped_ = tripped;
            // A decision completed inside the single-interval deadline also
            // drains the lookahead watchdog, so the ladder can eventually
            // promote back onto the lookahead rung.
            if (!tripped) lookahead_deadline_tripped_ = false;
        }
    }

    decision.invoked = true;
    obs_decisions_.add();
    decision.reconciled = force;
    decision.actions = std::move(result.actions);
    decision.control_window = cw;
    decision.expected_utility = result.expected_utility;
    decision.ideal_utility = result.ideal_utility;
    decision.stats = result.stats;
    if (!decision.actions.empty()) {
        intended_ = apply_plan(*model_, base, decision.actions);
    }
    // A greedy decision is deliberately partial: one action toward the ideal.
    // Leaving the bands centered where they were keeps the still-deviating
    // workload triggering, so the greedy rung converges one action per window
    // — and the promotion back to full (bands still off-center) finishes the
    // adaptation in one shot. Recentering here would declare the move handled
    // after a single action and strand a half-adapted configuration.
    if (!greedy) monitor_.recenter(now, rates);
    budget = uh;
    // Every invoked econ-aware decision journals the economic context it was
    // priced under — the analysis side joins these against "decision" records
    // to attribute follow-the-price consolidation.
    if (utility_.econ_bound() && obs::journaling(options_.sink)) {
        const econ_factors& f = utility_.econ_now();
        const watts cap = search_.options().power_cap;
        obs::event e("econ_decision", now);
        e.num("price", f.power_price)
            .num("carbon_intensity", f.carbon_intensity)
            .num("carbon_dollars_per_watt_interval",
                 f.carbon_dollars_per_watt_interval)
            .boolean("performance_based", f.performance_based)
            .num("power_cap", std::isfinite(cap) ? cap : -1.0)
            .num("expected_utility", decision.expected_utility);
        options_.sink->record(e);
    }
    emit_decision(trigger_name);
    return decision;
}

}  // namespace mistral::core
