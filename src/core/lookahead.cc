#include "core/lookahead.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cluster/action.h"
#include "common/check.h"

namespace mistral::core {

namespace {

using cluster::action;
using cluster::configuration;

// Continuation searches reuse the primary A*'s expansion under a small
// budget; everything else (menu, scopes, pruning, evaluation options) matches.
search_options continuation_options(const search_options& primary,
                                    const lookahead_options& la) {
    search_options out = primary;
    out.max_expansions =
        std::min(out.max_expansions, la.continuation_max_expansions);
    return out;
}

// Mirrors of search.cc's transient-locality helpers (file-local there): the
// VM an action touches, and the hosts whose applications feel its transient.
vm_id touched_vm(const action& a) {
    return std::visit(
        [](const auto& x) -> vm_id {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::power_on> ||
                          std::is_same_v<T, cluster::power_off>) {
                return vm_id{};
            } else {
                return x.vm;
            }
        },
        a);
}

std::vector<host_id> affected_hosts(const configuration& config, const action& a) {
    std::vector<host_id> out;
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::migrate>) {
                out = {config.placement(x.vm)->host, x.to};
            } else if constexpr (std::is_same_v<T, cluster::add_replica>) {
                out = {x.to};
            } else if constexpr (std::is_same_v<T, cluster::remove_replica> ||
                                 std::is_same_v<T, cluster::increase_cpu> ||
                                 std::is_same_v<T, cluster::decrease_cpu>) {
                out = {config.placement(x.vm)->host};
            }
        },
        a);
    return out;
}

void merge_stats(search_stats& into, const search_stats& s) {
    into.duration += s.duration;
    into.expansions += s.expansions;
    into.generated += s.generated;
    into.pruned = into.pruned || s.pruned;
    into.search_power_cost += s.search_power_cost;
    into.eval_cache_hits += s.eval_cache_hits;
    into.eval_cache_misses += s.eval_cache_misses;
    into.eval_app_solves += s.eval_app_solves;
    into.eval_app_cache_hits += s.eval_app_cache_hits;
    into.eval_app_cache_misses += s.eval_app_cache_misses;
}

}  // namespace

lookahead_planner::lookahead_planner(const cluster::cluster_model& model,
                                     utility_model utility,
                                     const cost::cost_table& costs,
                                     const adaptation_search& primary,
                                     lookahead_options options)
    : model_(&model),
      utility_(utility),
      costs_(&costs),
      primary_(&primary),
      options_(std::move(options)),
      continuation_(model, utility, costs,
                    continuation_options(primary.options(), options_),
                    primary.shared_evaluator()) {
    MISTRAL_CHECK(options_.horizon >= 1);
    MISTRAL_CHECK(options_.discount > 0.0 && options_.discount <= 1.0);
    MISTRAL_CHECK(options_.confidence_floor > 0.0 &&
                  options_.confidence_floor <= 1.0);
    MISTRAL_CHECK(options_.continuation_max_expansions >= 1);
    MISTRAL_CHECK(options_.commit_margin >= 0.0);
    MISTRAL_CHECK(options_.deadline_fraction > 0.0);
}

dollars lookahead_planner::score_plan(const configuration& current,
                                      const std::vector<action>& plan,
                                      const std::vector<req_per_sec>& rates,
                                      seconds cw, double cap_rate) const {
    auto& engine = primary_->evaluator();
    engine.begin_decision(rates);
    const auto& targets = engine.targets();
    const std::size_t host_count = model_->host_count();

    // Same accounting as the A*'s draft_child/average_rate pair, applied to
    // a fixed action sequence instead of a searched one.
    configuration c = current;
    dollars accrued = 0.0;
    seconds duration = 0.0;
    for (const action& a : plan) {
        const auto entry = costs_->lookup(*model_, a, rates);
        const auto pe = engine.evaluate(c);
        const vm_id vm = touched_vm(a);
        const auto touched = affected_hosts(c, a);
        std::vector<std::uint8_t> occ(model_->app_count() * host_count, 0);
        for (const auto& desc : model_->vms()) {
            const auto& p = c.placement(desc.vm);
            if (p) occ[desc.app.index() * host_count + p->host.index()] = 1;
        }
        double rate =
            utility_.power_rate(std::max(0.0, pe.power + entry.delta_power));
        for (std::size_t s = 0; s < model_->app_count(); ++s) {
            seconds rt = pe.response_times[s];
            if (vm.valid() && model_->vm(vm).app.index() == s) {
                rt += entry.delta_rt_target;
            } else if (!touched.empty()) {
                bool colocated = false;
                for (const host_id h : touched) {
                    if (occ[s * host_count + h.index()] != 0) {
                        colocated = true;
                        break;
                    }
                }
                if (colocated) rt += entry.delta_rt_colocated;
            }
            rate += utility_.perf_rate(rates[s], rt, targets[s]);
        }
        accrued += entry.duration * std::min(rate, cap_rate) -
                   primary_->options().per_action_overhead;
        duration += entry.duration;
        c = cluster::apply(*model_, c, a);
    }
    const auto final_eval = engine.evaluate(c);
    const seconds h =
        std::max(cw, duration + utility_.params().monitoring_interval);
    return (accrued + (h - duration) * final_eval.rate) / h * cw;
}

lookahead_result lookahead_planner::plan(
    const configuration& current, const std::vector<req_per_sec>& rates,
    const std::vector<std::vector<req_per_sec>>& forecast,
    const std::vector<double>& confidence, seconds cw,
    dollars expected_utility, search_meter& meter, seconds now) const {
    MISTRAL_CHECK(forecast.size() == confidence.size());
    lookahead_result out;
    out.horizon = 1 + static_cast<int>(forecast.size());

    // Interval 1, reactive: the single-interval controller's exact call on
    // the controller's own search object. At K = 1 this is the whole plan.
    search_result reactive =
        primary_->find(current, rates, cw, expected_utility, meter, now);
    out.searches = 1;
    out.first_duration = reactive.stats.duration;
    search_stats aggregate = reactive.stats;

    if (forecast.empty()) {
        out.steps.push_back({rates, reactive.expected_utility});
        out.total_value = reactive.expected_utility;
        out.total_duration = aggregate.duration;
        out.committed = std::move(reactive);
        out.commit_reason = "reactive";
        return out;
    }

    auto& engine = primary_->evaluator();
    // Steady dollars of sitting in `c` for one window under `r` (used when a
    // search returns the empty "stay" plan, whose raw expected_utility is 0
    // by the flat controller's reporting convention).
    auto steady_value = [&](const configuration& c,
                            const std::vector<req_per_sec>& r) -> dollars {
        engine.begin_decision(r);
        return engine.evaluate(c).rate * cw;
    };

    // Transient accrual in score_plan is clamped exactly like the search
    // clamps at the ideal steady rate; with no feasible ideal there is no cap.
    const double cap_rate =
        reactive.ideal_utility > 0.0
            ? reactive.ideal_utility / cw
            : std::numeric_limits<double>::infinity();

    // Pre-provision candidate: plan *now* for the most demanding forecast
    // interval (deterministic argmax, first wins ties). Only when the
    // forecast peak exceeds today's demand — provisioning ahead of a coming
    // peak pays the transient at baseline rate instead of peak rate, but the
    // mirror move (consolidating ahead of a forecast *decline*) bets real
    // capacity on the bands' downside and is left to the reactive rung.
    std::size_t peak = 0;
    double peak_demand = -1.0;
    for (std::size_t i = 0; i < forecast.size(); ++i) {
        double demand = 0.0;
        for (const double r : forecast[i]) demand += r;
        if (demand > peak_demand) {
            peak_demand = demand;
            peak = i;
        }
    }
    double current_demand = 0.0;
    for (const double r : rates) current_demand += r;
    bool rising =
        peak_demand > current_demand * (1.0 + options_.rise_threshold);

    // Screen before spending a search: pre-provisioning can only ever boot a
    // host today's plan leaves dark, so with every healthy host already
    // powered there is nothing to plan for and the peak search would be pure
    // modeled latency — overhead the controller pays in real decision delay.
    if (rising) {
        bool dark_host = false;
        for (std::size_t h = 0; h < model_->host_count(); ++h) {
            const host_id id(static_cast<std::int32_t>(h));
            if (!reactive.target.host_on(id) && !reactive.target.host_failed(id)) {
                dark_host = true;
                break;
            }
        }
        rising = dark_host;
    }

    // The peak candidate runs on the bounded continuation search: it only
    // has to discover *which hosts* the peak wants lit, not polish the exact
    // peak layout (the next windows' reactive searches do that against real
    // rates), so capping its expansions bounds the planner's worst-case
    // self-cost.
    search_result preprov;
    if (rising) {
        preprov = continuation_.find(current, forecast[peak], cw, 0.0, meter,
                                     now);
        ++out.searches;
        merge_stats(aggregate, preprov.stats);
    }
    // The committed pre-provision is *augmentative*, never substitutive: the
    // reactive plan — searched under what is actually measured — always
    // executes, and on top of it the planner boots the hosts the peak plan
    // runs that today's plan leaves dark. Power-on is the long-lead action
    // (boot transient ≫ a cap tweak), so paying it now at today's rates is
    // the high-leverage part of pre-provisioning, while the fine-grained
    // peak adaptation stays with the next windows' reactive searches, which
    // see real rates instead of a damped-trend forecast. The downside when
    // the forecast is wrong is bounded: idle host power until the next
    // consolidation, not a mis-migrated cluster.
    std::vector<action> boosts;
    if (rising) {
        for (std::size_t h = 0; h < model_->host_count(); ++h) {
            const host_id id(static_cast<std::int32_t>(h));
            if (preprov.target.host_on(id) && !reactive.target.host_on(id)) {
                boosts.push_back(cluster::power_on{id});
            }
        }
    }
    // The only case worth spending tail searches on: a rising forecast whose
    // peak plan needs capacity today's plan doesn't already bring up.
    const bool contested = !boosts.empty();
    const bool converged = rising && !contested;

    std::vector<action> augmented;
    configuration aug_target;
    if (contested) {
        augmented = reactive.actions;
        augmented.insert(augmented.end(), boosts.begin(), boosts.end());
        aug_target = reactive.target;
        for (const action& b : boosts) {
            aug_target = cluster::apply(*model_, aug_target, b);
        }
    }

    // Interval-1 value of each candidate under the *measured* rates.
    const dollars v1_reactive = reactive.actions.empty()
                                    ? steady_value(current, rates)
                                    : reactive.expected_utility;
    const dollars v1_preprov =
        contested ? score_plan(current, augmented, rates, cw, cap_rate)
                  : v1_reactive;

    // Tail rollout: bounded continuation searches from the candidate's
    // landing configuration through each forecast interval, discounted by
    // confidence. Returns per-interval contributions.
    auto rollout = [&](const configuration& target) -> std::vector<dollars> {
        std::vector<dollars> contrib;
        contrib.reserve(forecast.size());
        configuration state = target;
        double disc = 1.0;
        for (std::size_t i = 0; i < forecast.size(); ++i) {
            disc *= options_.discount;
            auto r = continuation_.find(state, forecast[i], cw, 0.0, meter, now);
            ++out.searches;
            merge_stats(aggregate, r.stats);
            const dollars value = r.actions.empty()
                                      ? steady_value(state, forecast[i])
                                      : r.expected_utility;
            const double conf =
                std::clamp(confidence[i], options_.confidence_floor, 1.0);
            contrib.push_back(disc * conf * value);
            state = std::move(r.target);
        }
        return contrib;
    };

    // Uncontested windows skip the tail searches entirely — the committed
    // plan is the reactive one either way, and the planner's modeled search
    // time is real decision latency the controller pays. The journal's
    // per-interval values are then the steady dollars of holding the
    // reactive target through the forecast (memoized evaluations, no meter
    // charge), discounted identically.
    std::vector<dollars> tail_reactive;
    if (contested) {
        tail_reactive = rollout(reactive.target);
    } else {
        tail_reactive.reserve(forecast.size());
        double disc = 1.0;
        for (std::size_t i = 0; i < forecast.size(); ++i) {
            disc *= options_.discount;
            const double conf =
                std::clamp(confidence[i], options_.confidence_floor, 1.0);
            tail_reactive.push_back(
                disc * conf * steady_value(reactive.target, forecast[i]));
        }
    }
    dollars total_reactive = v1_reactive;
    for (const dollars v : tail_reactive) total_reactive += v;

    dollars total_preprov = total_reactive;
    std::vector<dollars> tail_preprov;
    if (contested) {
        tail_preprov = rollout(aug_target);
        total_preprov = v1_preprov;
        for (const dollars v : tail_preprov) total_preprov += v;
    }

    // Ties (and the converged case) break toward reactive: lookahead never
    // deviates from today's behavior unless the predicted payoff clears the
    // commit margin. The margin is scaled to one interval's value, not the
    // K-interval total — a horizon-proportional hurdle would make the same
    // boot look less attractive the further ahead the planner can see.
    const dollars margin =
        options_.commit_margin * std::max(std::abs(v1_reactive), 1.0);
    const bool take_preprov =
        contested && total_preprov > total_reactive + margin;
    const std::vector<dollars>& tail = take_preprov ? tail_preprov : tail_reactive;

    out.preprovisioned = take_preprov;
    out.commit_reason =
        converged ? "converged" : (take_preprov ? "preprovision" : "reactive");
    out.total_value = take_preprov ? total_preprov : total_reactive;
    out.steps.push_back({rates, take_preprov ? v1_preprov : v1_reactive});
    for (std::size_t i = 0; i < forecast.size(); ++i) {
        out.steps.push_back({forecast[i], tail[i]});
    }

    out.committed.actions = take_preprov ? std::move(augmented) : reactive.actions;
    out.committed.target = take_preprov ? std::move(aug_target) : reactive.target;
    // The committed record keeps the flat controller's reporting convention:
    // the reactive plan's raw search value, or the augmented plan's
    // measured-rates interval value; ideal_utility is always the measured
    // interval's bound.
    out.committed.expected_utility =
        take_preprov ? v1_preprov : reactive.expected_utility;
    out.committed.ideal_utility = reactive.ideal_utility;
    out.committed.stats = aggregate;
    out.total_duration = aggregate.duration;
    return out;
}

}  // namespace mistral::core
