#include "core/strategies.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace mistral::core {

namespace {

using cluster::action;
using cluster::configuration;
using cluster::cluster_model;

// Rates are noisy floats; "the workload changed" means any per-app movement
// beyond numeric dust (band width 0 in the paper's terms).
bool rates_changed(const std::vector<req_per_sec>& a,
                   const std::vector<req_per_sec>& b) {
    if (a.size() != b.size()) return true;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::abs(a[i] - b[i]) > 1e-9) return true;
    }
    return false;
}

}  // namespace

// ---- Mistral ---------------------------------------------------------------

mistral_strategy::mistral_strategy(const cluster_model& model, cost::cost_table costs,
                                   controller_options options)
    : controller_(model, std::move(costs), std::move(options)) {}

strategy::outcome mistral_strategy::decide(const decision_input& in) {
    const auto decision = controller_.step(in);
    outcome out;
    out.invoked = decision.invoked;
    out.actions = decision.actions;
    out.decision_delay = decision.stats.duration;
    out.decision_power_cost = decision.stats.search_power_cost;
    out.stats = decision.stats;
    return out;
}

// ---- Perf-Pwr ----------------------------------------------------------------

perf_pwr_strategy::perf_pwr_strategy(const cluster_model& model,
                                     utility_params utility,
                                     perf_pwr_options options)
    : model_(&model), optimizer_(model, utility_model(utility), options) {}

strategy::outcome perf_pwr_strategy::decide(const decision_input& in) {
    const auto& rates = in.rates;
    const auto& current = in.current;
    outcome out;
    if (!last_rates_.empty() && !rates_changed(rates, last_rates_)) return out;
    last_rates_ = rates;

    // Fresh bin-packing every time, no placement stability: this strategy
    // ignores what the transition costs — exactly its weakness in Fig. 8/9.
    const auto ideal = optimizer_.optimize(rates);
    out.invoked = true;
    if (!ideal.feasible || ideal.ideal == current) return out;
    out.actions = plan_transition(*model_, current, ideal.ideal);
    return out;
}

// ---- Perf-Cost ---------------------------------------------------------------

perf_cost_strategy::perf_cost_strategy(const cluster_model& model,
                                       cost::cost_table costs,
                                       controller_options options,
                                       int hosts_per_app) {
    MISTRAL_CHECK(hosts_per_app >= 1);
    // Fixed pools: app a owns hosts [a·k, (a+1)·k), wrapped if scarce.
    pools_.assign(model.app_count(),
                  std::vector<bool>(model.host_count(), false));
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        for (int k = 0; k < hosts_per_app; ++k) {
            const std::size_t h =
                (a * static_cast<std::size_t>(hosts_per_app) +
                 static_cast<std::size_t>(k)) %
                model.host_count();
            pools_[a][h] = true;
        }
    }
    // The Perf-Cost formulation: performance + adaptation cost only. No power
    // term, no host power-cycling, no leaving the pool.
    options.utility.power_weight = 0.0;
    options.band_width = 0.0;
    options.search.menu.host_power = false;
    options.search.app_hosts = pools_;
    controller_ = std::make_unique<mistral_controller>(model, std::move(costs),
                                                       options);
}

strategy::outcome perf_cost_strategy::decide(const decision_input& in) {
    const auto decision = controller_->step(in);
    outcome out;
    out.invoked = decision.invoked;
    out.actions = decision.actions;
    out.decision_delay = decision.stats.duration;
    out.decision_power_cost = decision.stats.search_power_cost;
    out.stats = decision.stats;
    return out;
}

// ---- Pwr-Cost ----------------------------------------------------------------

pwr_cost_strategy::pwr_cost_strategy(const cluster_model& model,
                                     cost::cost_table costs, utility_params utility,
                                     perf_pwr_options options,
                                     predict::arma_options arma)
    : model_(&model),
      costs_(std::move(costs)),
      utility_(utility),
      optimizer_(model, utility_model(utility), options),
      monitor_(model.app_count(), /*band_width=*/0.0) {
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        predictors_.emplace_back(arma);
    }
}

seconds pwr_cost_strategy::control_window(const wl::monitor_event& event) const {
    seconds cw = utility_.params().monitoring_interval;
    if (!event.exceeded.empty()) {
        seconds shortest = predictors_[event.exceeded.front()].current_estimate();
        for (std::size_t i = 1; i < event.exceeded.size(); ++i) {
            shortest =
                std::min(shortest, predictors_[event.exceeded[i]].current_estimate());
        }
        cw = std::max(cw, shortest);
    }
    return cw;
}

strategy::outcome pwr_cost_strategy::decide(const decision_input& in) {
    const seconds now = in.now;
    const auto& rates = in.rates;
    const auto& current = in.current;
    outcome out;
    const auto event = monitor_.observe(now, rates);
    for (std::size_t i = 0; i < event.exceeded.size(); ++i) {
        predictors_[event.exceeded[i]].observe(event.completed_intervals[i]);
    }
    const bool first = last_rates_.empty();
    if (!first && !event.any_exceeded) return out;
    monitor_.recenter(now, rates);
    last_rates_ = rates;
    out.invoked = true;
    const seconds cw = control_window(event);

    // 1. Required (static, target-meeting) sizing for this workload.
    auto required = optimizer_.optimize_meeting_targets(rates, &current);
    if (!required.feasible) required = optimizer_.optimize(rates, &current);
    if (!required.feasible) return out;

    configuration cur = current;
    auto emit = [&](const action& a) -> bool {
        if (!applicable(*model_, cur, a)) return false;
        cur = apply(*model_, cur, a);
        out.actions.push_back(a);
        return true;
    };
    const fraction step = model_->limits().cpu_step;
    const auto& limits = model_->limits();

    // Per-tier required replica count and cap from the required sizing.
    auto required_tier = [&](app_id app, std::size_t t) {
        int count = 0;
        fraction cap = model_->app(app).tiers()[t].min_cpu_cap;
        for (vm_id vm : model_->tier_vms(app, t)) {
            if (const auto& p = required.ideal.placement(vm)) {
                ++count;
                cap = p->cpu_cap;
            }
        }
        return std::pair<int, fraction>(std::max(count, 1), cap);
    };

    auto host_with_most_room = [&](double memory, host_id avoid) -> host_id {
        host_id best{};
        fraction best_free = -1.0;
        for (std::size_t h = 0; h < model_->host_count(); ++h) {
            const host_id host{static_cast<std::int32_t>(h)};
            if (host == avoid || !cur.host_on(host)) continue;
            if (static_cast<int>(cur.vms_on(host).size()) >= limits.max_vms_per_host) {
                continue;
            }
            const double mem_free = model_->hosts()[h].memory_mb -
                                    limits.dom0_memory_mb -
                                    cur.memory_sum(*model_, host);
            if (mem_free + 1e-9 < memory) continue;
            const fraction free = limits.host_cpu_cap - cur.cap_sum(host);
            if (free > best_free) {
                best_free = free;
                best = host;
            }
        }
        return best;
    };

    // 2. Match replica counts, then adjust caps to the required sizes.
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model_->app(app).tier_count(); ++t) {
            const auto [want, cap] = required_tier(app, t);
            const auto& vms = model_->tier_vms(app, t);
            int have = 0;
            for (vm_id vm : vms) have += cur.deployed(vm) ? 1 : 0;
            // Remove highest-index extras.
            for (auto it = vms.rbegin(); it != vms.rend() && have > want; ++it) {
                if (cur.deployed(*it) && emit(cluster::remove_replica{*it})) --have;
            }
            // Add replicas on the roomiest hosts.
            for (vm_id vm : vms) {
                if (have >= want) break;
                if (cur.deployed(vm)) continue;
                const auto dst =
                    host_with_most_room(model_->vm(vm).memory_mb, host_id{});
                if (dst.valid() &&
                    emit(cluster::add_replica{
                        vm, dst, model_->app(app).tiers()[t].min_cpu_cap})) {
                    ++have;
                }
            }
            // Step every deployed replica's cap toward the required size.
            for (vm_id vm : vms) {
                if (!cur.deployed(vm)) continue;
                for (int guard = 0; guard < 16; ++guard) {
                    const fraction c = cur.placement(vm)->cpu_cap;
                    if (std::abs(c - cap) < step / 2.0) break;
                    const action a2 = c < cap ? action(cluster::increase_cpu{vm})
                                              : action(cluster::decrease_cpu{vm});
                    if (!emit(a2)) break;
                }
            }
        }
    }

    // 3. Repair packing violations: migrate the *smallest* VM off each
    //    overbooked host (Section V-C: "the VMs are migrated starting from
    //    the smallest one until the constraints are satisfied").
    for (int guard = 0; guard < 64; ++guard) {
        host_id overbooked{};
        for (std::size_t h = 0; h < model_->host_count(); ++h) {
            const host_id host{static_cast<std::int32_t>(h)};
            if (cur.cap_sum(host) > limits.host_cpu_cap + 1e-9) {
                overbooked = host;
                break;
            }
        }
        if (!overbooked.valid()) break;
        const auto hosted = cur.vms_on(overbooked);
        vm_id smallest{};
        fraction smallest_cap = std::numeric_limits<double>::infinity();
        for (vm_id vm : hosted) {
            if (cur.placement(vm)->cpu_cap < smallest_cap) {
                smallest_cap = cur.placement(vm)->cpu_cap;
                smallest = vm;
            }
        }
        if (!smallest.valid()) break;
        host_id dst = host_with_most_room(model_->vm(smallest).memory_mb, overbooked);
        if (!dst.valid()) {
            // No room anywhere: bring up a powered-off host.
            bool powered = false;
            for (std::size_t h = 0; h < model_->host_count(); ++h) {
                const host_id host{static_cast<std::int32_t>(h)};
                if (!cur.host_on(host)) {
                    powered = emit(cluster::power_on{host});
                    break;
                }
            }
            if (!powered) break;
            dst = host_with_most_room(model_->vm(smallest).memory_mb, overbooked);
            if (!dst.valid()) break;
        }
        if (!emit(cluster::migrate{smallest, dst})) break;
    }

    // 4. Consolidate: empty the least-loaded host when the power saved over
    //    the control window beats the migration cost.
    for (int guard = 0; guard < static_cast<int>(model_->host_count()); ++guard) {
        host_id lightest{};
        fraction lightest_sum = std::numeric_limits<double>::infinity();
        for (std::size_t h = 0; h < model_->host_count(); ++h) {
            const host_id host{static_cast<std::int32_t>(h)};
            if (!cur.host_on(host)) continue;
            const auto sum = cur.cap_sum(host);
            if (sum > 0.0 && sum < lightest_sum) {
                lightest_sum = sum;
                lightest = host;
            }
        }
        if (!lightest.valid()) break;

        // Plan the evacuation tentatively.
        configuration probe = cur;
        std::vector<action> moves;
        dollars migration_cost = 0.0;
        bool fits = true;
        for (vm_id vm : cur.vms_on(lightest)) {
            host_id dst{};
            fraction best_free = -1.0;
            for (std::size_t h = 0; h < model_->host_count(); ++h) {
                const host_id host{static_cast<std::int32_t>(h)};
                if (host == lightest || !probe.host_on(host)) continue;
                if (static_cast<int>(probe.vms_on(host).size()) >=
                    limits.max_vms_per_host) {
                    continue;
                }
                const double mem_free = model_->hosts()[h].memory_mb -
                                        limits.dom0_memory_mb -
                                        probe.memory_sum(*model_, host);
                if (mem_free + 1e-9 < model_->vm(vm).memory_mb) continue;
                const fraction free = limits.host_cpu_cap - probe.cap_sum(host) -
                                      probe.placement(vm)->cpu_cap;
                if (free >= -1e-9 && free > best_free) {
                    best_free = free;
                    dst = host;
                }
            }
            if (!dst.valid()) {
                fits = false;
                break;
            }
            const cluster::action mv = cluster::migrate{vm, dst};
            const auto entry = costs_.lookup(*model_, mv, rates);
            // Pessimistic migration cost: the extra power plus a full
            // reward-to-penalty swing for the moved application while it runs.
            const auto app = model_->vm(vm).app;
            const double perf_swing = (utility_.reward(rates[app.index()]) -
                                       utility_.penalty(rates[app.index()])) /
                                      utility_.params().monitoring_interval;
            migration_cost += entry.duration *
                              (perf_swing - utility_.power_rate(entry.delta_power));
            probe = apply(*model_, probe, mv);
            moves.push_back(mv);
        }
        if (!fits) break;
        const dollars saving =
            -utility_.power_rate(model_->hosts()[lightest.index()].power.idle) * cw;
        if (saving <= migration_cost) break;
        for (const auto& mv : moves) emit(mv);
        emit(cluster::power_off{lightest});
    }

    // 5. Hosts already empty cost idle power for nothing.
    for (std::size_t h = 0; h < model_->host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (cur.host_on(host) && cur.vms_on(host).empty()) {
            emit(cluster::power_off{host});
        }
    }
    return out;
}

}  // namespace mistral::core
