#include "core/coordinator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "core/planner.h"
#include "obs/journal.h"

namespace mistral::core {

namespace {

// Demand blend for budget redistribution: demand = draw + grow_margin ·
// min(pressure, 1) · (max_draw − draw). Pressured pods ask for headroom.
constexpr double grow_margin = 0.5;

void validate_level1(const cluster::cluster_model& model,
                     const std::vector<pod_spec>& pods) {
    MISTRAL_CHECK_MSG(!pods.empty(), "two-level mode needs level-1 pods");
    std::vector<bool> claimed(model.host_count(), false);
    for (std::size_t i = 0; i < pods.size(); ++i) {
        MISTRAL_CHECK_MSG(pods[i].id == i, "pod ids must be sequential from 0");
        MISTRAL_CHECK_MSG(!pods[i].hosts.empty(),
                          "pod " << i << " owns no hosts");
        for (const std::size_t h : pods[i].hosts) {
            MISTRAL_CHECK_MSG(h < model.host_count(),
                              "pod " << i << " references unknown host " << h);
            MISTRAL_CHECK_MSG(!claimed[h], "host groups must be disjoint");
            claimed[h] = true;
        }
    }
}

// Deterministic first-fit placement of every deployed VM of `app` not
// already inside `hosts` onto `hosts` (ascending), requiring the result to
// stay a candidate on each target host. Returns the migrate plan, or empty
// when infeasible.
std::vector<cluster::action> first_fit_plan(const cluster::cluster_model& model,
                                            const cluster::configuration& from,
                                            std::size_t app,
                                            const std::vector<std::size_t>& hosts) {
    std::vector<cluster::action> plan;
    cluster::configuration scratch = from;
    for (const auto& vm : model.vms()) {
        if (vm.app.index() != app) continue;
        const auto& p = scratch.placement(vm.vm);
        if (!p) continue;
        if (std::find(hosts.begin(), hosts.end(),
                      static_cast<std::size_t>(p->host.index())) != hosts.end()) {
            continue;  // already on a target host: nothing to move
        }
        bool placed = false;
        for (const std::size_t h : hosts) {
            const host_id host{static_cast<std::int32_t>(h)};
            if (!scratch.host_on(host) || scratch.host_failed(host)) continue;
            const cluster::action a = cluster::migrate{vm.vm, host};
            if (!cluster::applicable(model, scratch, a)) continue;
            if (scratch.cap_sum(host) + p->cpu_cap >
                model.limits().host_cpu_cap + 1e-9) {
                continue;  // would overbook: keep the plan candidate-clean
            }
            scratch = cluster::apply(model, scratch, a);
            plan.push_back(a);
            placed = true;
            break;
        }
        if (!placed) return {};
    }
    return plan;
}

}  // namespace

global_coordinator::global_coordinator(const cluster::cluster_model& model,
                                       cost::cost_table costs, partition parts,
                                       controller_builder builder,
                                       coordinator_options options)
    : model_(&model),
      costs_(std::move(costs)),
      builder_(std::move(builder)),
      options_(std::move(options)),
      name_("Mistral-Pods"),
      parts_(std::move(parts)) {
    MISTRAL_CHECK(options_.power_budget > 0.0);
    MISTRAL_CHECK(options_.max_brokered_moves >= 0);
    MISTRAL_CHECK(options_.pod_deadline > 0.0);
    MISTRAL_CHECK(options_.readmit_after >= 1);
    MISTRAL_CHECK(options_.migration_timeout_intervals >= 1);
    if (options_.budget_schedule) {
        for (const auto& p : options_.budget_schedule->points()) {
            MISTRAL_CHECK_MSG(p.value > 0.0, "budget schedule must be positive watts");
        }
    }
    if (!options_.regions.empty()) {
        MISTRAL_CHECK_MSG(options_.regions.pod_count() == parts_->size(),
                          "pod→region map covers " << options_.regions.pod_count()
                                                   << " pods, partition has "
                                                   << parts_->size());
        // Each pod's controller plans under its own region's tariff: layer an
        // econ override per pod on top of whatever the caller registered
        // (pod overrides compose in order, builder.h).
        for (std::size_t i = 0; i < parts_->size(); ++i) {
            const auto& region = options_.regions.region(options_.regions.region_of(i));
            builder_.pod(i, [tariff = region.tariff](controller_options& opts) {
                opts.econ.enabled = true;
                opts.econ.tariff = tariff;
            });
        }
    }
    sink_ = builder_.build().sink;
    if (auto* reg = obs::metrics_of(sink_)) {
        obs_migrations_ = reg->register_counter(
            "mistral_pod_migrations_total",
            "Cross-pod app migrations committed by the broker");
        obs_reconciles_ = reg->register_counter(
            "mistral_pod_ownership_reconciles_total",
            "App ownership changes made by placement reconciliation");
        if (!options_.regions.empty()) {
            obs_region_moves_ = reg->register_counter(
                "mistral_econ_region_moves_total",
                "Brokered migrations that landed in a strictly cheaper region");
        }
    }
}

global_coordinator::global_coordinator(const cluster::cluster_model& model,
                                       cost::cost_table costs,
                                       std::vector<pod_spec> level1,
                                       controller_builder builder,
                                       coordinator_options options)
    : model_(&model),
      costs_(std::move(costs)),
      builder_(std::move(builder)),
      options_(std::move(options)),
      name_("Mistral-2L") {
    MISTRAL_CHECK_MSG(options_.regions.empty(),
                      "regions are a sharded-mode feature");
    MISTRAL_CHECK_MSG(!options_.budget_schedule,
                      "budget schedules are a sharded-mode feature");
    MISTRAL_CHECK_MSG(!options_.pod_fault_hook &&
                          !std::isfinite(options_.pod_deadline),
                      "control-plane fault tolerance is a sharded-mode feature");
    validate_level1(model, level1);
    for (auto& spec : level1) {
        pods_.push_back(std::make_unique<pod_controller>(
            model, costs_, std::move(spec), std::vector<std::size_t>{},
            builder_, pod_lens::scoped));
    }
    controller_options esc = builder_.build();
    esc.band_width = options_.escalation_band;
    escalation_ = std::make_unique<mistral_controller>(model, costs_, esc);
    sink_ = esc.sink;
    if (auto* reg = obs::metrics_of(sink_)) {
        obs_escalations_ = reg->register_counter(
            "mistral_pod_global_decisions_total",
            "Invoked decisions made by the escalation controller");
        obs_escalation_actions_ = reg->register_counter(
            "mistral_pod_global_actions_total",
            "Actions emitted by escalation decisions");
        obs_escalation_seconds_ = reg->register_histogram(
            "mistral_pod_global_search_seconds",
            {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0},
            "Meter-elapsed search duration of invoked escalation decisions");
    }
}

strategy::outcome global_coordinator::decide(const decision_input& in) {
    return parts_ ? decide_sharded(in) : decide_two_level(in);
}

void global_coordinator::ensure_pods(const cluster::configuration& current) {
    if (!pods_.empty()) return;
    const auto owner = assign_apps(*model_, *parts_, current);
    std::vector<std::vector<std::size_t>> apps(parts_->size());
    for (std::size_t a = 0; a < owner.size(); ++a) apps[owner[a]].push_back(a);
    build_pods(std::move(apps));
}

void global_coordinator::build_pods(std::vector<std::vector<std::size_t>> apps) {
    pods_.clear();
    for (std::size_t i = 0; i < parts_->size(); ++i) {
        pods_.push_back(std::make_unique<pod_controller>(
            *model_, costs_, parts_->pod(i), std::move(apps[i]), builder_,
            pod_lens::sharded));
    }
}

coordinator_state global_coordinator::export_state() const {
    MISTRAL_CHECK_MSG(parts_, "checkpointing is a sharded-mode feature");
    coordinator_state s;
    static_cast<coordinator_memory&>(s) = memory_;
    for (const auto& pod : pods_) s.pods.push_back(pod->export_state());
    return s;
}

void global_coordinator::import_state(const coordinator_state& s, seconds now) {
    MISTRAL_CHECK_MSG(parts_, "checkpointing is a sharded-mode feature");
    MISTRAL_CHECK_MSG(s.pods.empty() || s.pods.size() == parts_->size(),
                      "checkpoint has " << s.pods.size() << " pods, partition has "
                                        << parts_->size());
    // resolve_pending and the pull-back in gather_strays index pods by these.
    for (const auto& pm : s.pending) {
        MISTRAL_CHECK_MSG(pm.from < parts_->size() && pm.to < parts_->size(),
                          "pending migration of app " << pm.app << " names pod "
                                                      << std::max(pm.from, pm.to));
    }
    pods_.clear();
    if (!s.pods.empty()) {
        std::vector<std::vector<std::size_t>> apps;
        for (const auto& pod : s.pods) apps.push_back(pod.apps);
        build_pods(std::move(apps));
        for (std::size_t i = 0; i < pods_.size(); ++i) {
            pods_[i]->import_state(s.pods[i], now);
        }
    }
    // else: checkpoint predates the first decide; pods materialize lazily.
    memory_ = s;
}

void global_coordinator::reconcile_ownership(
    const cluster::configuration& current, seconds now) {
    memory_.stray_apps.clear();
    if (pods_.size() < 2) return;  // one pod owns everything by construction

    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> owner(model_->app_count(), npos);
    for (std::size_t i = 0; i < pods_.size(); ++i) {
        for (const std::size_t a : pods_[i]->apps()) owner[a] = i;
    }
    // Where each app's VMs actually are. Brokered migrations are plans the
    // executor can abort or still be running; ownership must follow the
    // placements, never the plan, or the owning pod's view will reject the
    // next projection.
    std::vector<std::size_t> home(model_->app_count(), npos);
    std::vector<bool> straddles(model_->app_count(), false);
    for (const auto& vm : model_->vms()) {
        const auto& p = current.placement(vm.vm);
        if (!p) continue;
        const std::size_t pod =
            parts_->pod_of_host(static_cast<std::size_t>(p->host.index()));
        auto& h = home[vm.app.index()];
        if (h == npos) {
            h = pod;
        } else if (h != pod) {
            straddles[vm.app.index()] = true;
        }
    }
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        std::size_t target;
        if (straddles[a]) {
            // A half-moved app (partially executed brokered plan): no pod's
            // view can contain it. Park it unowned for the interval; the
            // gather pass emits the completing migrations.
            target = npos;
            memory_.stray_apps.push_back(a);
        } else if (home[a] != npos) {
            target = home[a];
        } else {
            // Undeployed app: keep its owner, parking orphans in pod 0
            // (assign_apps' rule).
            target = owner[a] == npos ? 0 : owner[a];
        }
        if (target == owner[a]) continue;
        if (owner[a] != npos) pods_[owner[a]]->release_app(a);
        if (target != npos) pods_[target]->adopt_app(a);
        obs_reconciles_.add();
        if (obs::journaling(sink_)) {
            obs::event e("pod_reconcile", now);
            e.integer("app", static_cast<std::int64_t>(a))
                .integer("from", owner[a] == npos
                                     ? -1
                                     : static_cast<std::int64_t>(owner[a]))
                .integer("to", target == npos
                                   ? -1
                                   : static_cast<std::int64_t>(target));
            sink_->record(e);
        }
    }
}

std::vector<watts> global_coordinator::redistribute(
    watts total, const std::vector<pod_report>& reports,
    const std::vector<double>* growth_weight) {
    MISTRAL_CHECK(total > 0.0 && std::isfinite(total));
    const std::size_t n = reports.size();
    MISTRAL_CHECK(n >= 1);
    MISTRAL_CHECK(growth_weight == nullptr || growth_weight->size() == n);
    std::vector<double> demand(n, 0.0);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double p = std::clamp(reports[i].pressure, 0.0, 1.0);
        // The draw term is a pod's metered entitlement; only the *growth*
        // headroom is regionally weighted — a pod in an expensive region asks
        // for less room to grow, never less than it already draws.
        double grow = grow_margin * p *
                      std::max(0.0, reports[i].max_draw - reports[i].draw);
        if (growth_weight != nullptr) {
            const double w = (*growth_weight)[i];
            MISTRAL_CHECK(std::isfinite(w) && w >= 0.0);
            grow *= w;
        }
        demand[i] = reports[i].draw + grow;
        sum += demand[i];
    }
    if (sum <= 0.0) {
        demand.assign(n, 1.0);
        sum = static_cast<double>(n);
    }
    // Integer milliwatts with largest-remainder rounding: the shares sum to
    // the cluster budget exactly, every interval, regardless of float dust.
    const std::int64_t total_mw = std::llround(total * 1000.0);
    std::vector<std::int64_t> share_mw(n, 0);
    std::vector<std::pair<double, std::size_t>> remainders;
    remainders.reserve(n);
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double exact = static_cast<double>(total_mw) * demand[i] / sum;
        share_mw[i] = static_cast<std::int64_t>(std::floor(exact));
        assigned += share_mw[i];
        remainders.emplace_back(exact - std::floor(exact), i);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
              });
    const std::int64_t leftover = total_mw - assigned;  // always in [0, n)
    for (std::int64_t k = 0; k < leftover; ++k) {
        ++share_mw[remainders[static_cast<std::size_t>(k) % n].second];
    }
    std::vector<watts> budgets(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        budgets[i] = static_cast<watts>(share_mw[i]) / 1000.0;
    }
    return budgets;
}

std::vector<double> global_coordinator::pod_prices(seconds now) const {
    std::vector<double> prices;
    if (options_.regions.empty()) return prices;
    prices.resize(pods_.size());
    for (std::size_t i = 0; i < pods_.size(); ++i) {
        prices[i] = options_.regions.price_of_pod(i, now);
    }
    return prices;
}

void global_coordinator::redistribute_budgets(const decision_input& in,
                                              watts total) {
    std::vector<pod_report> reports;
    reports.reserve(pods_.size());
    for (const auto& pod : pods_) reports.push_back(pod->report(in.current));
    // Regional bias: growth headroom is weighted cheapest/price, so at equal
    // pressure a cheap region's pod receives the larger share of the slack.
    std::vector<double> weight;
    const std::vector<double>* weight_ptr = nullptr;
    if (!options_.regions.empty()) {
        const std::vector<double> prices = pod_prices(in.now);
        const double cheapest = *std::min_element(prices.begin(), prices.end());
        weight.resize(prices.size());
        for (std::size_t i = 0; i < prices.size(); ++i) {
            weight[i] = cheapest / prices[i];
        }
        weight_ptr = &weight;
    }
    memory_.budgets = redistribute(total, reports, weight_ptr);
    // A zero share (an all-idle pod under a tight budget) still needs a
    // positive cap for the terminal gate; one milliwatt forbids any
    // powered-on host just as effectively. The milliwatt is *borrowed* from
    // the currently largest share, so the applied caps keep summing to the
    // cluster budget exactly (whenever the budget affords a milliwatt per
    // pod — below that no positive-cap split can conserve).
    std::vector<std::int64_t> mw(memory_.budgets.size());
    for (std::size_t i = 0; i < memory_.budgets.size(); ++i) {
        mw[i] = std::llround(memory_.budgets[i] * 1000.0);
    }
    for (std::size_t i = 0; i < mw.size(); ++i) {
        if (mw[i] > 0) continue;
        const auto big = std::max_element(mw.begin(), mw.end());
        if (*big >= 2) --*big;
        mw[i] = 1;
    }
    for (std::size_t i = 0; i < pods_.size(); ++i) {
        memory_.budgets[i] = static_cast<watts>(mw[i]) / 1000.0;
        pods_[i]->set_budget(memory_.budgets[i]);
    }
    if (obs::journaling(sink_)) {
        obs::event e("pod_budget", in.now);
        std::vector<double> draw, budget;
        for (std::size_t i = 0; i < pods_.size(); ++i) {
            draw.push_back(reports[i].draw);
            budget.push_back(memory_.budgets[i]);
        }
        e.num("cluster_budget_watts", total)
            .num_list("draw_watts", std::move(draw))
            .num_list("budget_watts", std::move(budget));
        sink_->record(e);
    }
}

void global_coordinator::emit_pod_decision(const pod_controller* pod,
                                           const controller_decision& d,
                                           const cluster::configuration& at,
                                           seconds now) const {
    if (!obs::journaling(sink_)) return;
    // The escalation controller's row reports the whole cluster, uncapped.
    std::vector<std::size_t> every_host;
    if (pod == nullptr) {
        every_host.resize(model_->host_count());
        std::iota(every_host.begin(), every_host.end(), std::size_t{0});
    }
    const pod_report r =
        report_hosts(*model_, at, pod != nullptr ? pod->spec().hosts : every_host);
    const watts budget =
        pod != nullptr ? pod->budget() : std::numeric_limits<watts>::infinity();
    obs::event e("pod_decision", now);
    e.integer("pod", pod != nullptr ? static_cast<std::int64_t>(pod->spec().id) : -1)
        .text("level", pod != nullptr ? "pod" : "global")
        .boolean("invoked", d.invoked)
        .integer("actions", static_cast<std::int64_t>(d.actions.size()))
        .num("duration", d.stats.duration)
        .integer("expansions", static_cast<std::int64_t>(d.stats.expansions))
        .integer("generated", static_cast<std::int64_t>(d.stats.generated))
        .num("expected_utility", d.expected_utility)
        // JSON has no infinity; -1 marks an uncapped pod.
        .num("budget_watts", std::isfinite(budget) ? budget : -1.0)
        .num("draw_watts", r.draw)
        .num("pressure", r.pressure)
        .text("mode", to_string(d.mode));
    sink_->record(e);
}

strategy::outcome global_coordinator::decide_two_level(const decision_input& in) {
    outcome out;

    const auto d2 = escalation_->step(in);
    if (d2.invoked) {
        obs_escalations_.add();
        obs_escalation_actions_.add(static_cast<std::int64_t>(d2.actions.size()));
        obs_escalation_seconds_.observe(d2.stats.duration);
        emit_pod_decision(nullptr, d2, in.current, in.now);
        // An invoked search costs time and power whether or not a plan came
        // back; self-aware accounting keeps the empty-plan case on the books.
        out.invoked = true;
        out.decision_delay = d2.stats.duration;
        out.decision_power_cost = d2.stats.search_power_cost;
        out.stats.merge(d2.stats);
        if (!d2.actions.empty()) {
            // The escalation's reconfiguration preempts pod refinements for
            // this interval (they would race the larger change).
            out.actions = d2.actions;
            out.stats = d2.stats;
            return out;
        }
    }

    // Level-1 pods refine sequentially over a shared probe; their disjoint
    // scopes keep sibling plans composable, and since they run concurrently
    // in the model the decision delay is the slowest pod, not the sum —
    // added to the escalation search's duration when one preceded them.
    cluster::configuration probe = in.current;
    seconds pod_delay = 0.0;
    for (auto& pod : pods_) {
        decision_input step_in;
        step_in.now = in.now;
        step_in.rates = in.rates;
        step_in.current = probe;
        step_in.last_interval_utility = in.last_interval_utility;
        const auto po = pod->step(step_in);
        emit_pod_decision(pod.get(), po.decision, probe, in.now);
        if (!po.invoked) continue;
        out.invoked = true;
        pod_delay = std::max(pod_delay, po.decision.stats.duration);
        out.decision_power_cost += po.decision.stats.search_power_cost;
        out.stats.merge(po.decision.stats);
        for (const auto& a : po.actions) {
            // Skip defensively if a sibling's change made one inapplicable.
            if (!cluster::applicable(*model_, probe, a)) continue;
            probe = cluster::apply(*model_, probe, a);
            out.actions.push_back(a);
        }
    }
    out.decision_delay += pod_delay;
    out.stats.duration = out.decision_delay;
    out.stats.search_power_cost = out.decision_power_cost;
    return out;
}

strategy::outcome global_coordinator::decide_sharded(const decision_input& in) {
    ensure_pods(in.current);
    memory_.health.resize(pods_.size());
    reconcile_ownership(in.current, in.now);
    resolve_pending(in);
    // A budget schedule (stepped power-cap emergency) overrides the static
    // budget interval by interval; its values are validated positive, so a
    // scheduled run always has a finite cap.
    const watts budget_now = options_.budget_schedule
                                 ? options_.budget_schedule->at(in.now)
                                 : options_.power_budget;
    if (std::isfinite(budget_now)) redistribute_budgets(in, budget_now);
    const std::int64_t moves_before = memory_.brokered_migrations;

    // Fault draws happen for every pod in pod-id order — quarantined pods
    // included — so the injector's draw stream never shifts with the health
    // state and a fault schedule replays bit-identically.
    std::vector<pod_step_fault> faults(pods_.size());
    if (options_.pod_fault_hook) {
        for (std::size_t i = 0; i < pods_.size(); ++i) {
            faults[i] = options_.pod_fault_hook(i);
        }
    }

    // Pods step on this interval's input in pod-id order, all before any
    // outcome is applied: no pod sees a sibling's plan, and every pod's own
    // journal lines precede the coordinator's verdicts.
    std::vector<pod_outcome> outs(pods_.size());
    for (std::size_t i = 0; i < pods_.size(); ++i) {
        if (!faults[i].crashed && !memory_.health[i].quarantined) {
            outs[i] = pods_[i]->step(in);
        }
    }

    outcome out;
    cluster::configuration probe = in.current;
    for (std::size_t i = 0; i < pods_.size(); ++i) {
        if (memory_.health[i].quarantined) {
            // Hysteretic re-admission: only a streak of readmit_after clean
            // intervals releases the pod, so a flapping controller cannot
            // oscillate in and out faster than the threshold.
            if (faults[i].crashed) {
                memory_.health[i].clean_intervals = 0;
            } else if (++memory_.health[i].clean_intervals >= options_.readmit_after) {
                memory_.health[i] = pod_health{};
                if (obs::journaling(sink_)) {
                    obs::event e("pod_quarantine", in.now);
                    e.integer("pod", static_cast<std::int64_t>(i))
                        .text("action", "exit")
                        .text("reason", "readmit")
                        .integer("clean", options_.readmit_after);
                    sink_->record(e);
                }
                // Re-admitted pods resume deciding next interval; this one
                // still gets the failsafe below.
            }
            apply_failsafe(i, probe, out, in.now, "quarantine");
            continue;
        }
        if (faults[i].crashed) {
            enter_quarantine(i, in.now, "crash");
            apply_failsafe(i, probe, out, in.now, "crash");
            continue;
        }
        auto& po = outs[i];
        // A hung pod's decision still arrives, just late: its modeled
        // duration is inflated before the deadline watchdog looks at it.
        if (faults[i].hang_multiplier > 1.0 && po.invoked) {
            po.decision.stats.duration *= faults[i].hang_multiplier;
        }
        emit_pod_decision(pods_[i].get(), po.decision, in.current, in.now);
        if (!po.invoked) continue;
        if (po.decision.stats.duration > options_.pod_deadline) {
            // Deadline blown: the late plan is stale by the time it lands,
            // so it is discarded. The cluster still paid for the search —
            // the deadline bounds the latency, the power cost stands.
            out.invoked = true;
            out.decision_delay =
                std::max(out.decision_delay, options_.pod_deadline);
            out.decision_power_cost += po.decision.stats.search_power_cost;
            out.stats.merge(po.decision.stats);
            enter_quarantine(i, in.now, "deadline");
            apply_failsafe(i, probe, out, in.now, "deadline");
            continue;
        }
        out.invoked = true;
        // Pods decide concurrently in the model: the cluster's decision
        // latency is the slowest pod, the power self-cost the sum.
        out.decision_delay = std::max(out.decision_delay, po.decision.stats.duration);
        out.decision_power_cost += po.decision.stats.search_power_cost;
        out.stats.merge(po.decision.stats);
        for (const auto& a : po.actions) {
            if (!cluster::applicable(*model_, probe, a)) continue;
            probe = cluster::apply(*model_, probe, a);
            out.actions.push_back(a);
        }
    }

    gather_strays(probe, out, in.now);
    broker_migrations(probe, out, in.now);

    // Region-aware runs journal the economic context each interval: the
    // per-pod prices the biases used, the budget in force, and how many
    // brokered moves they produced. (Each pod controller journals its own
    // pricing context as an econ_decision.)
    if (!options_.regions.empty() && obs::journaling(sink_)) {
        obs::event e("region_decision", in.now);
        e.num_list("pod_prices", pod_prices(in.now))
            .num("budget_watts", std::isfinite(budget_now) ? budget_now : -1.0)
            .integer("brokered_moves", memory_.brokered_migrations - moves_before);
        sink_->record(e);
    }

    out.stats.duration = out.decision_delay;
    out.stats.search_power_cost = out.decision_power_cost;
    return out;
}

void global_coordinator::enter_quarantine(std::size_t pod, seconds now,
                                          const char* reason) {
    memory_.health[pod].quarantined = true;
    memory_.health[pod].clean_intervals = 0;
    if (obs::journaling(sink_)) {
        obs::event e("pod_quarantine", now);
        e.integer("pod", static_cast<std::int64_t>(pod))
            .text("action", "enter")
            .text("reason", reason)
            .integer("clean", 0);
        sink_->record(e);
    }
}

void global_coordinator::apply_failsafe(std::size_t pod,
                                        cluster::configuration& probe,
                                        outcome& out, seconds now,
                                        const char* reason) {
    // The stand-in for a pod that cannot be trusted this interval: hold its
    // slice (the PR 5 ladder's bottom rung), except that structural damage —
    // a host crash that killed replicas while the pod was down — still gets
    // the deterministic repair plan, lifted back to global ids.
    std::int64_t repair_actions = 0;
    bool held = false;
    if (!pods_[pod]->idle() && pods_[pod]->lens() == pod_lens::sharded) {
        held = true;
        const auto& view = pods_[pod]->view();
        const auto local = view.project(probe);
        if (!cluster::structurally_valid(view.local(), local)) {
            const auto repair = plan_repair(view.local(), local);
            for (const auto& la : repair) {
                const auto a = view.lift_action(la);
                if (!cluster::applicable(*model_, probe, a)) continue;
                probe = cluster::apply(*model_, probe, a);
                out.actions.push_back(a);
                ++repair_actions;
            }
            if (repair_actions > 0) out.invoked = true;
        }
    }
    if (obs::journaling(sink_)) {
        obs::event e("failsafe_decision", now);
        e.integer("pod", static_cast<std::int64_t>(pod))
            .text("reason", reason)
            .integer("repair_actions", repair_actions)
            .boolean("held", held);
        sink_->record(e);
    }
}

void global_coordinator::resolve_pending(const decision_input& in) {
    pull_back_.clear();
    if (memory_.pending.empty()) return;
    std::vector<pending_migration> still;
    for (auto& pm : memory_.pending) {
        // Commit: every deployed VM of the app now sits on the acceptor's
        // hosts. Silent — the prepare already journaled the pod_migration.
        bool all_in_to = true;
        bool any_deployed = false;
        const auto& to_hosts = pods_[pm.to]->spec().hosts;
        for (const auto& vm : model_->vms()) {
            if (vm.app.index() != pm.app) continue;
            const auto& p = in.current.placement(vm.vm);
            if (!p) continue;
            any_deployed = true;
            if (std::find(to_hosts.begin(), to_hosts.end(),
                          static_cast<std::size_t>(p->host.index())) ==
                to_hosts.end()) {
                all_in_to = false;
                break;
            }
        }
        if (any_deployed && all_in_to) continue;  // committed
        // Abort on failure: the executor reported one of the plan's actions
        // failed. Ownership already follows the placements (reconcile), so
        // the abort is bookkeeping plus the journaled protocol event.
        const bool failed = std::any_of(
            pm.plan.begin(), pm.plan.end(), [&](const cluster::action& a) {
                return std::find(in.failed.begin(), in.failed.end(), a) !=
                       in.failed.end();
            });
        const bool timed_out = !failed && --pm.intervals_left <= 0;
        if (!failed && !timed_out) {
            still.push_back(std::move(pm));
            continue;
        }
        if (timed_out) pull_back_.emplace_back(pm.app, pm.from);
        if (obs::journaling(sink_)) {
            obs::event e("migration_abort", in.now);
            e.integer("app", static_cast<std::int64_t>(pm.app))
                .integer("from", static_cast<std::int64_t>(pm.from))
                .integer("to", static_cast<std::int64_t>(pm.to))
                .text("reason", failed ? "failed" : "timeout")
                .integer("vms", static_cast<std::int64_t>(pm.plan.size()));
            sink_->record(e);
        }
    }
    memory_.pending = std::move(still);
}

void global_coordinator::gather_strays(cluster::configuration& probe,
                                       outcome& out, seconds now) {
    for (const std::size_t app : memory_.stray_apps) {
        // A prepared migration still inside its window owns this app's fate;
        // gathering it elsewhere would race the handshake.
        if (std::any_of(memory_.pending.begin(), memory_.pending.end(),
                        [&](const pending_migration& pm) {
                            return pm.app == app;
                        })) {
            continue;
        }
        // Reunify on the pod holding the largest deployed share (ties to
        // the lower pod id) — the cheapest completion of the interrupted
        // move. Ownership follows at the next reconciliation, once the
        // migrations have actually executed.
        std::vector<double> share(pods_.size(), 0.0);
        for (const auto& vm : model_->vms()) {
            if (vm.app.index() != app) continue;
            const auto& p = probe.placement(vm.vm);
            if (!p) continue;
            share[parts_->pod_of_host(static_cast<std::size_t>(p->host.index()))] +=
                p->cpu_cap;
        }
        std::size_t target = 0;
        for (std::size_t i = 1; i < pods_.size(); ++i) {
            if (share[i] > share[target]) target = i;
        }
        // A timed-out handshake pulls the app back to its donor instead of
        // completing toward the largest share.
        for (const auto& [a, donor] : pull_back_) {
            if (a == app) target = donor;
        }
        const auto plan =
            first_fit_plan(*model_, probe, app, pods_[target]->spec().hosts);
        if (plan.empty()) continue;  // no room yet: retry next interval
        for (const auto& a : plan) {
            MISTRAL_CHECK(cluster::applicable(*model_, probe, a));
            probe = cluster::apply(*model_, probe, a);
            out.actions.push_back(a);
        }
        out.invoked = true;
        obs_migrations_.add();
        if (obs::journaling(sink_)) {
            obs::event e("pod_migration", now);
            e.integer("app", static_cast<std::int64_t>(app))
                .integer("from", -1)  // gather, not a brokered donor
                .integer("to", static_cast<std::int64_t>(target))
                .integer("vms", static_cast<std::int64_t>(plan.size()));
            sink_->record(e);
        }
    }
}

void global_coordinator::broker_migrations(cluster::configuration& probe,
                                           outcome& out, seconds now) {
    if (!options_.migration_broker || pods_.size() < 2) return;

    // Regional price bias. The watermarks and bid scores are scaled by the
    // pod's price relative to the cheapest region in force *now*: an
    // expensive pod's donor watermark drops (it offers load sooner), its
    // accept watermark drops (it adopts load only when very idle), and a
    // cheap pod's bid wins ties. Every scale is exactly 1 when regions are
    // unset, so the region-blind broker is untouched.
    const bool regional = !options_.regions.empty();
    const std::vector<double> price = pod_prices(now);
    double cheapest = 1.0;
    if (regional) cheapest = *std::min_element(price.begin(), price.end());
    const auto scale = [&](std::size_t i) {
        return regional ? cheapest / price[i] : 1.0;
    };

    for (int move = 0; move < options_.max_brokered_moves; ++move) {
        std::vector<pod_report> reports;
        reports.reserve(pods_.size());
        for (const auto& pod : pods_) reports.push_back(pod->report(probe));

        // Propose: the most urgent pod above its (price-scaled) watermark
        // offers its smallest deployed app (a donor keeps at least one app).
        // Urgency is pressure weighted by price/cheapest, so at equal
        // pressure the expensive region donates first.
        const auto urgency = [&](std::size_t i) {
            return regional ? reports[i].pressure * (price[i] / cheapest)
                            : reports[i].pressure;
        };
        int donor = -1;
        for (std::size_t i = 0; i < pods_.size(); ++i) {
            // A quarantined pod's controller is suspect: it neither donates
            // nor bids until re-admitted.
            if (i < memory_.health.size() && memory_.health[i].quarantined) continue;
            if (reports[i].pressure <= options_.donor_pressure * scale(i)) continue;
            if (pods_[i]->apps().size() < 2) continue;
            if (donor < 0 ||
                urgency(i) > urgency(static_cast<std::size_t>(donor))) {
                donor = static_cast<int>(i);
            }
        }
        if (donor < 0) return;

        std::size_t app = model_->app_count();
        double app_cap = 0.0;
        for (const std::size_t a : pods_[static_cast<std::size_t>(donor)]->apps()) {
            // An app whose previous handshake is still open cannot be
            // re-offered: a second plan would confuse commit detection.
            if (std::any_of(memory_.pending.begin(), memory_.pending.end(),
                            [&](const pending_migration& pm) {
                                return pm.app == a;
                            })) {
                continue;
            }
            double cap = 0.0;
            std::size_t deployed = 0;
            for (const auto& vm : model_->vms()) {
                if (vm.app.index() != a) continue;
                const auto& p = probe.placement(vm.vm);
                if (!p) continue;
                cap += p->cpu_cap;
                ++deployed;
            }
            if (deployed == 0) continue;  // nothing to move
            if (app == model_->app_count() || cap < app_cap) {
                app = a;
                app_cap = cap;
            }
        }
        if (app == model_->app_count()) return;

        // Accept: pods under their (price-scaled) accept watermark bid a
        // first-fit plan; the lowest price-weighted resulting pressure wins,
        // ties to the lower pod id — cheap regions out-bid expensive ones at
        // equal load.
        int best = -1;
        double best_score = 0.0;
        std::vector<cluster::action> best_plan;
        for (std::size_t j = 0; j < pods_.size(); ++j) {
            if (static_cast<int>(j) == donor) continue;
            if (j < memory_.health.size() && memory_.health[j].quarantined) continue;
            if (reports[j].pressure >= options_.accept_pressure * scale(j)) continue;
            auto plan = first_fit_plan(*model_, probe, app, pods_[j]->spec().hosts);
            if (plan.empty()) continue;
            cluster::configuration scratch = probe;
            for (const auto& a : plan) scratch = cluster::apply(*model_, scratch, a);
            const double pr = pods_[j]->report(scratch).pressure;
            const double score = regional ? pr * (price[j] / cheapest) : pr;
            if (best < 0 || score < best_score) {
                best = static_cast<int>(j);
                best_score = score;
                best_plan = std::move(plan);
            }
        }
        if (best < 0) return;

        std::size_t moved = best_plan.size();
        for (const auto& a : best_plan) {
            MISTRAL_CHECK(cluster::applicable(*model_, probe, a));
            probe = cluster::apply(*model_, probe, a);
            out.actions.push_back(a);
        }
        // Prepare: the handshake stays open until the placements land in the
        // acceptor (commit), a plan action fails, or the window expires —
        // both aborts journal a `migration_abort` (resolve_pending).
        memory_.pending.push_back(
            {.app = app,
             .from = static_cast<std::size_t>(donor),
             .to = static_cast<std::size_t>(best),
             .plan = best_plan,
             .prepared_at = now,
             .intervals_left = options_.migration_timeout_intervals});
        // Optimistic transfer: it keeps this interval's loop from re-offering
        // the app, and if the executor aborts the plan the next decide()'s
        // reconcile_ownership re-derives ownership from actual placements.
        pods_[static_cast<std::size_t>(donor)]->release_app(app);
        pods_[static_cast<std::size_t>(best)]->adopt_app(app);
        ++memory_.brokered_migrations;
        obs_migrations_.add();
        if (regional && price[static_cast<std::size_t>(best)] <
                            price[static_cast<std::size_t>(donor)]) {
            obs_region_moves_.add();
        }
        out.invoked = true;
        if (obs::journaling(sink_)) {
            obs::event e("pod_migration", now);
            e.integer("app", static_cast<std::int64_t>(app))
                .integer("from", static_cast<std::int64_t>(donor))
                .integer("to", static_cast<std::int64_t>(best))
                .integer("vms", static_cast<std::int64_t>(moved));
            sink_->record(e);
        }
    }
}

}  // namespace mistral::core
