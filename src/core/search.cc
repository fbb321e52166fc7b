#include "core/search.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>

#include "cluster/translate.h"
#include "common/check.h"
#include "core/planner.h"
#include "core/transient_rate.h"
#include "obs/journal.h"
#include "obs/profile.h"

namespace mistral::core {

namespace {

using cluster::action;
using cluster::configuration;

// The evaluation engine inherits the search's observability sink unless the
// caller wired a different one explicitly.
search_options inherit_eval_sink(search_options options) {
    if (options.evaluation.sink == nullptr) {
        options.evaluation.sink = options.sink;
    }
    return options;
}

struct vertex {
    configuration config;
    int parent = -1;
    std::optional<action> via;   // edge from parent (nullopt for the root)
    dollars accrued = 0.0;       // Σ d(a)·transient-rate along the path
    seconds duration = 0.0;      // Σ d(a)
    int depth = 0;               // actions on the path
    double utility = 0.0;        // Algorithm 1's vertex utility (avg rate)
    bool terminal = false;       // reached via the "null" edge
};
}  // namespace

adaptation_search::adaptation_search(const cluster::cluster_model& model,
                                     utility_model utility, cost::cost_table costs,
                                     search_options options)
    : adaptation_search(model, utility, std::move(costs),
                        inherit_eval_sink(std::move(options)), nullptr) {}

adaptation_search::adaptation_search(const cluster::cluster_model& model,
                                     utility_model utility, cost::cost_table costs,
                                     search_options options,
                                     std::shared_ptr<utility_evaluator> evaluator)
    : model_(&model),
      utility_(utility),
      costs_(std::move(costs)),
      options_(std::move(options)),
      evaluator_(evaluator
                     ? std::move(evaluator)
                     : make_evaluator(model, utility, options_.lqn,
                                      options_.evaluation)),
      perf_pwr_(model, utility,
                {.lqn = options_.lqn, .app_hosts = options_.app_hosts},
                evaluator_) {
    MISTRAL_CHECK(options_.prune_keep_fraction > 0.0 &&
                  options_.prune_keep_fraction <= 1.0);
    MISTRAL_CHECK(options_.delay_threshold_fraction > 0.0);
    MISTRAL_CHECK(options_.max_expansions >= 1);
    MISTRAL_CHECK(options_.stop_factor >= 1.0);
    MISTRAL_CHECK(options_.max_plan_actions >= 1);
    MISTRAL_CHECK(options_.per_action_overhead >= 0.0);
    MISTRAL_CHECK(options_.power_cap > 0.0);
    if (!options_.app_hosts.empty()) {
        MISTRAL_CHECK(options_.app_hosts.size() == model.app_count());
        for (const auto& row : options_.app_hosts) {
            MISTRAL_CHECK(row.size() == model.host_count());
        }
    }
    if (!options_.host_scope.empty()) {
        MISTRAL_CHECK(options_.host_scope.size() == model.host_count());
    }
    if (auto* reg = obs::metrics_of(options_.sink)) {
        obs_expansions_ = reg->register_counter(
            "mistral_search_expansions_total",
            "A* vertices expanded across all decisions");
        obs_generated_ = reg->register_counter(
            "mistral_search_generated_total",
            "A* children generated across all decisions");
        obs_duration_ = reg->register_histogram(
            "mistral_search_duration_seconds",
            {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0},
            "Meter-elapsed duration of each adaptation search");
    }
}

void adaptation_search::set_power_cap(watts cap) {
    MISTRAL_CHECK(cap > 0.0);
    options_.power_cap = cap;
}

search_result adaptation_search::find(const configuration& current,
                                      const std::vector<req_per_sec>& rates,
                                      seconds cw, dollars expected_utility,
                                      search_meter& meter, seconds now) const {
    const auto& model = *model_;
    MISTRAL_CHECK(rates.size() == model.app_count());
    MISTRAL_CHECK(cw > 0.0);
    meter.begin();

    auto& engine = *evaluator_;
    engine.begin_decision(rates);
    const auto& targets = engine.targets();
    const evaluation_stats stats0 = engine.stats();

    // $/s drawn by one busy search worker, in utility units.
    const double search_cost_rate =
        -utility_.power_rate(meter.search_power());  // ≥ 0

    search_result stay;
    stay.target = current;

    // Per-decision profile: per-depth expansion/meter-time attribution plus
    // the budget state at finish. Entirely skipped (one branch per
    // expansion) when no journaling sink is attached.
    const bool profiling = obs::journaling(options_.sink);
    obs::search_profile prof;
    int prof_pending_depth = -1;   // depth whose meter span is still open
    seconds prof_span_start = 0.0;
    auto note_depth = [&](int depth, double expanded, seconds spent) {
        const auto d = static_cast<std::size_t>(depth);
        if (prof.depth_expansions.size() <= d) {
            prof.depth_expansions.resize(d + 1, 0.0);
            prof.depth_meter_time.resize(d + 1, 0.0);
        }
        prof.depth_expansions[d] += expanded;
        prof.depth_meter_time[d] += spent;
    };
    auto emit_profile = [&](const search_result& r) {
        obs_duration_.observe(r.stats.duration);
        if (!profiling) return;
        if (prof_pending_depth >= 0) {
            note_depth(prof_pending_depth, 1.0,
                       meter.elapsed() - prof_span_start);
            prof_pending_depth = -1;
        }
        prof.control_window = cw;
        prof.budget = expected_utility;
        prof.duration = r.stats.duration;
        prof.power_cost = r.stats.search_power_cost;
        prof.expansions = static_cast<std::int64_t>(r.stats.expansions);
        prof.generated = static_cast<std::int64_t>(r.stats.generated);
        prof.pruned = r.stats.pruned;
        prof.meter = meter.kind();
        prof.plan_actions = static_cast<std::int64_t>(r.actions.size());
        prof.expected_utility = r.expected_utility;
        prof.ideal_utility = r.ideal_utility;
        options_.sink->record(prof.to_event(now));
    };

    // A degraded configuration (a host crash left a tier under its replica
    // minimum) cannot be evaluated by the steady-state engine; the
    // controller's reconciliation repairs it before the optimizer runs again.
    if (!cluster::structurally_valid(model, current)) {
        stay.stats.duration = meter.elapsed();
        stay.stats.search_power_cost = stay.stats.duration * search_cost_rate;
        emit_profile(stay);
        return stay;
    }

    const auto ideal = perf_pwr_.optimize(rates, &current);
    stay.ideal_utility = ideal.feasible ? ideal.utility_rate * cw : 0.0;
    if (!ideal.feasible || ideal.ideal == current) {
        stay.stats.duration = meter.elapsed();
        stay.stats.search_power_cost = stay.stats.duration * search_cost_rate;
        emit_profile(stay);
        return stay;
    }
    const double ideal_rate = ideal.utility_rate;

    // Pruning distance to the ideal configuration, with cap_distance's
    // ideal-derived VM weights hoisted: they depend only on `ideal`, so
    // computing them per child (as the free function does) repeats identical
    // work thousands of times per decision. Same accumulation order, so the
    // result is bit-identical to cap_distance + placement_distance.
    std::vector<double> prune_weights(model.vm_count(), 0.05);
    double prune_weight_sum = 0.0;
    for (const auto& desc : model.vms()) {
        const auto& p = ideal.ideal.placement(desc.vm);
        if (p) prune_weights[desc.vm.index()] = p->cpu_cap;
        prune_weight_sum += prune_weights[desc.vm.index()];
    }
    auto prune_distance = [&](const configuration& c) -> double {
        double sum = 0.0;
        std::size_t same = 0;
        for (const auto& desc : model.vms()) {
            const auto& pa = c.placement(desc.vm);
            const auto& pb = ideal.ideal.placement(desc.vm);
            const double ca = pa ? pa->cpu_cap : 0.0;
            const double cb = pb ? pb->cpu_cap : 0.0;
            sum += prune_weights[desc.vm.index()] / prune_weight_sum *
                   (ca - cb) * (ca - cb);
            same += ((!pa && !pb) || (pa && pb && pa->host == pb->host)) ? 1 : 0;
        }
        return std::sqrt(sum) +
               (1.0 - static_cast<double>(same) /
                          static_cast<double>(model.vm_count()));
    };

    auto allowed = [&](const configuration& c, const action& a) -> bool {
        if (!options_.app_hosts.empty()) {
            const bool pool_ok = std::visit(
                [&](const auto& x) -> bool {
                    using T = std::decay_t<decltype(x)>;
                    if constexpr (std::is_same_v<T, cluster::migrate> ||
                                  std::is_same_v<T, cluster::add_replica>) {
                        const auto app = model.vm(x.vm).app;
                        return options_.app_hosts[app.index()][x.to.index()];
                    } else {
                        return true;
                    }
                },
                a);
            if (!pool_ok) return false;
        }
        if (!options_.host_scope.empty()) {
            const auto& scope = options_.host_scope;
            const bool scope_ok = std::visit(
                [&](const auto& x) -> bool {
                    using T = std::decay_t<decltype(x)>;
                    if constexpr (std::is_same_v<T, cluster::migrate>) {
                        return scope[c.placement(x.vm)->host.index()] &&
                               scope[x.to.index()];
                    } else if constexpr (std::is_same_v<T, cluster::add_replica>) {
                        return scope[x.to.index()];
                    } else if constexpr (std::is_same_v<T, cluster::remove_replica> ||
                                         std::is_same_v<T, cluster::increase_cpu> ||
                                         std::is_same_v<T, cluster::decrease_cpu>) {
                        return scope[c.placement(x.vm)->host.index()];
                    } else if constexpr (std::is_same_v<T, cluster::power_on>) {
                        return scope[x.host.index()];
                    } else {
                        return scope[x.host.index()];
                    }
                },
                a);
            if (!scope_ok) return false;
        }
        return true;
    };

    std::vector<vertex> vertices;
    // Max-heap of (utility, vertex index); stale entries skipped on pop.
    using heap_entry = std::pair<double, std::size_t>;
    std::priority_queue<heap_entry> open;
    // Best utility recorded per configuration (non-terminal vertices).
    std::unordered_map<configuration, double> best_seen;

    vertex root;
    root.config = current;
    root.utility = ideal_rate;  // average-rate bound: nothing beats the ideal
    vertices.push_back(root);
    open.push({root.utility, 0});
    best_seen.emplace(current, root.utility);

    search_stats stats;
    dollars uh = expected_utility;
    const double uh_rate = cw > 0.0 ? expected_utility / cw : 0.0;
    const seconds delay_threshold = options_.delay_threshold_fraction * cw;
    // The root's steady evaluation: its rate prices the search's own time,
    // and it is the seeded route's first parent evaluation.
    steady_utility parent_eval = engine.evaluate(current);
    const double current_rate = parent_eval.rate;
    dollars ut = 0.0, upwr_t = 0.0;
    seconds last_elapsed = meter.elapsed();
    bool prune_mode = false;

    int best_terminal = -1;

    // Plan valuation: the *average utility rate* over the plan's own
    // evaluation horizon H = max(CW, D + M), where D is the plan's total
    // duration and M one monitoring interval. The horizon floor D + M keeps
    // rescues sensible when the predicted stability interval has collapsed
    // (during a ramp, CW shrinks to its minimum, yet a rescue plan's benefit
    // genuinely persists at least until the controller can next revisit —
    // one interval past completion). Averaging over H rather than summing
    // makes horizon-stretching unprofitable: padding a plan with harmless
    // actions dilutes its average instead of annexing extra accounted time,
    // so Eq. 3's ordering over same-length plans is preserved while plans of
    // different lengths compare fairly. Since every instantaneous accrual
    // rate is bounded by the ideal rate, an average never exceeds it and the
    // ideal-rate cost-to-go stays admissible.
    const seconds post_window = utility_.params().monitoring_interval;
    auto horizon = [&](seconds duration) -> seconds {
        return std::max(cw, duration + post_window);
    };
    // Average rate of: the accrued transient dollars, then `rate` until H.
    auto average_rate = [&](dollars accrued, seconds duration, double rate) {
        const seconds h = horizon(duration);
        return (accrued + (h - duration) * rate) / h;
    };

    // Drafts the child vertex reached by firing `a` from vertex `v` (index
    // `parent_idx`): everything except the steady-state valuation, which
    // value_child fills in once the batch evaluation has run. `pe` is the
    // parent's steady evaluation and `occ` its occupancy.
    auto draft_child = [&](const vertex& v, std::size_t parent_idx,
                           const steady_utility& pe,
                           const std::vector<std::uint8_t>& occ,
                           const action& a) -> vertex {
        const auto entry = costs_.lookup(model, a, rates);
        vertex c;
        c.via = a;
        c.parent = static_cast<int>(parent_idx);
        c.config = apply(model, v.config, a);
        // Transient accrual is clamped at the ideal rate so that time spent
        // mid-adaptation can never appear *better* than the best legal
        // steady state (which would invite lingering in intermediate
        // configurations and break the heuristic's bound).
        const double during = std::min(
            detail::transient_rate(model, utility_, rates, targets, v.config,
                                   occ, pe, a, entry),
            ideal_rate);
        c.accrued = v.accrued + entry.duration * during -
                    options_.per_action_overhead;
        c.duration = v.duration + entry.duration;
        c.depth = v.depth + 1;
        return c;
    };

    // Vertex valuation: candidates by their own steady rate, intermediates
    // by the ideal bound. The 1e-9·D term breaks ties toward shorter plans.
    auto value_child = [&](vertex& c, double steady) {
        c.utility = average_rate(c.accrued, c.duration, steady) - 1e-9 * c.duration;
    };

    // Records a vertex if it improves on anything previously seen for its
    // configuration; returns its index or -1 when dominated.
    auto record_vertex = [&](vertex&& vc) -> int {
        auto [it, inserted] = best_seen.emplace(vc.config, vc.utility);
        if (!inserted) {
            if (vc.utility <= it->second + 1e-12) return -1;
            it->second = vc.utility;
        }
        vertices.push_back(std::move(vc));
        open.push({vertices.back().utility, vertices.size() - 1});
        return static_cast<int>(vertices.size()) - 1;
    };

    // Adds the "null"-edge terminal for a candidate vertex; `pe` is the
    // vertex's steady evaluation, which the caller already holds.
    auto add_terminal = [&](std::size_t idx, const steady_utility& pe) {
        const vertex& v = vertices[idx];
        // The power budget gates terminal candidacy only: like the packing
        // constraint, intermediates may exceed it while a plan is in flight,
        // but the plan must land inside the cap.
        if (!pe.candidate || pe.power > options_.power_cap) return;
        vertex term = v;
        term.parent = static_cast<int>(idx);
        term.via.reset();
        term.terminal = true;
        term.utility = average_rate(v.accrued, v.duration, pe.rate);
        if (best_terminal < 0 ||
            term.utility >
                vertices[static_cast<std::size_t>(best_terminal)].utility) {
            vertices.push_back(std::move(term));
            best_terminal = static_cast<int>(vertices.size()) - 1;
            open.push({vertices.back().utility, vertices.size() - 1});
        }
    };

    auto finish = [&](int terminal_index) -> search_result {
        stats.duration = meter.elapsed();
        stats.search_power_cost = stats.duration * search_cost_rate;
        const auto& es = engine.stats();
        stats.eval_app_solves = es.app_solves - stats0.app_solves;
        stats.eval_app_cache_hits = es.app_cache_hits - stats0.app_cache_hits;
        stats.eval_app_cache_misses = es.app_cache_misses - stats0.app_cache_misses;
        if (terminal_index < 0) {
            search_result out = stay;
            out.stats = stats;
            emit_profile(out);
            return out;
        }
        search_result out;
        out.ideal_utility = stay.ideal_utility;
        out.stats = stats;
        const auto& term = vertices[static_cast<std::size_t>(terminal_index)];
        // Vertices carry average rates; report dollars over the window.
        out.expected_utility = term.utility * cw;
        out.target = term.config;
        // Walk the parent chain; the terminal's own edge is the null action.
        std::vector<action> path;
        for (int i = term.parent; i >= 0; i = vertices[static_cast<std::size_t>(i)].parent) {
            const auto& v = vertices[static_cast<std::size_t>(i)];
            if (v.via) path.push_back(*v.via);
        }
        std::reverse(path.begin(), path.end());
        // Splice out zero-net-effect detours: an A* path can carry them
        // legitimately (a revisit with better accrued value), but executing
        // them buys nothing.
        out.actions = compress_plan(model, current, std::move(path));
        emit_profile(out);
        return out;
    };

    // Seed the graph with the planner's route to the ideal configuration so
    // a full reconfiguration — and every partial prefix of it — is a known
    // option from the start; the A* then explores cheaper deviations around
    // it. Without seeding the loose ideal bound makes best-first exploration
    // effectively breadth-first, and deep consolidations are never reached
    // within the self-aware search budget.
    auto menu_allows = [&](const action& a) -> bool {
        switch (kind_of(a)) {
            case cluster::action_kind::increase_cpu:
            case cluster::action_kind::decrease_cpu:
                return options_.menu.cpu_tuning;
            case cluster::action_kind::add_replica:
            case cluster::action_kind::remove_replica:
                return options_.menu.replication;
            case cluster::action_kind::migrate:
                return options_.menu.migration;
            case cluster::action_kind::power_on:
            case cluster::action_kind::power_off:
                return options_.menu.host_power;
        }
        return false;
    };
    {
        // The seeded route is normally exempt from max_plan_actions: it
        // comes from the deterministic planner, which cannot pad, and
        // truncating a full-cluster rescue mid-route would leave only
        // useless prefixes. The greedy degraded rung opts out of the
        // exemption (seed_beyond_plan_limit = false) — there the one-action
        // bound is the contract, and the route's first step is still seeded
        // as a candidate.
        const int seed_limit =
            options_.seed_beyond_plan_limit
                ? 64
                : static_cast<int>(std::min<std::size_t>(
                      options_.max_plan_actions, 64));
        std::size_t at = 0;
        int seeded = 0;
        for (const auto& a : plan_transition(model, current, ideal.ideal)) {
            const vertex v = vertices[at];  // copy; vertices reallocates
            if (++seeded > seed_limit || !menu_allows(a) ||
                !applicable(model, v.config, a) || !allowed(v.config, a)) {
                break;
            }
            const seconds seed_start = profiling ? meter.elapsed() : 0.0;
            meter.on_expansion();
            vertex c = draft_child(v, at, parent_eval,
                                   detail::occupancy(model, v.config), a);
            // One evaluation per seeded child: its value (candidates only),
            // its terminal and the next step's parent all share it.
            const bool candidate = is_candidate(model, c.config);
            steady_utility ce;
            if (candidate) ce = engine.evaluate(c.config);
            value_child(c, candidate ? ce.rate : ideal_rate);
            const int idx = record_vertex(std::move(c));
            if (idx < 0) break;
            at = static_cast<std::size_t>(idx);
            if (!candidate) ce = engine.evaluate(vertices[at].config);
            add_terminal(at, ce);
            parent_eval = std::move(ce);
            ++stats.generated;
            obs_generated_.add();
            // Seeded steps are charged like expansions; attribute their meter
            // time to the child's depth (without counting an expansion) so
            // the route's cost shows up in the profile.
            if (profiling) {
                note_depth(vertices[at].depth, 0.0,
                           meter.elapsed() - seed_start);
            }
        }
    }

    while (!open.empty() && stats.expansions < options_.max_expansions) {
        const auto [u, idx] = open.top();
        open.pop();
        const vertex v = vertices[idx];  // copy: vertices may reallocate below
        if (!v.terminal) {
            const auto it = best_seen.find(v.config);
            if (it != best_seen.end() && u < it->second - 1e-12) continue;  // stale
        }
        if (v.terminal) {
            return finish(static_cast<int>(idx));
        }

        ++stats.expansions;
        obs_expansions_.add();
        const seconds now_elapsed = meter.elapsed();
        if (profiling) {
            // Everything the meter charged since the previous expansion
            // belongs to that expansion; open a span for this one.
            if (prof_pending_depth >= 0) {
                note_depth(prof_pending_depth, 1.0,
                           now_elapsed - prof_span_start);
            }
            prof_pending_depth = v.depth;
            prof_span_start = now_elapsed;
        }
        ut += (now_elapsed - last_elapsed) * current_rate;
        upwr_t += (now_elapsed - last_elapsed) * search_cost_rate;
        uh -= (now_elapsed - last_elapsed) * uh_rate;
        last_elapsed = now_elapsed;
        if (options_.self_aware && !prune_mode &&
            ((ut + upwr_t) >= uh || now_elapsed >= delay_threshold)) {
            prune_mode = true;
        }
        if (options_.self_aware &&
            now_elapsed >= options_.stop_factor * delay_threshold &&
            best_terminal >= 0) {
            return finish(best_terminal);
        }

        // Terminal ("null") child from candidate configurations. This one
        // evaluation of the popped vertex also prices its children's
        // transients below.
        const auto pe = engine.evaluate(v.config);
        add_terminal(idx, pe);

        // Action children. The meter charges per child *evaluated* — child
        // construction (cost lookup + utility estimation) is where a real
        // controller burns its time and power, so search durations scale
        // with the branching factor, i.e. with cluster size (Table I). One
        // batched charge covers the whole expansion.
        if (static_cast<std::size_t>(v.depth) >= options_.max_plan_actions) continue;
        std::vector<action> acts;
        for (const auto& a : enumerate_actions(model, v.config, options_.menu)) {
            if (allowed(v.config, a)) acts.push_back(a);
        }
        if (acts.empty()) continue;
        meter.charge(acts.size());

        // Draft the whole expansion's children first (apply + candidacy +
        // transient accounting + prune distance), then value the candidate
        // children's steady states as one batch.
        const auto occ = detail::occupancy(model, v.config);
        std::vector<vertex> children(acts.size());
        std::vector<std::uint8_t> child_candidate(acts.size(), 0);
        std::vector<double> child_distance(acts.size(), 0.0);
        const bool score_children = prune_mode;
        engine.parallel_for(acts.size(), [&](std::size_t j) {
            vertex c = draft_child(v, idx, pe, occ, acts[j]);
            child_candidate[j] = is_candidate(model, c.config) ? 1 : 0;
            if (child_candidate[j] == 0) value_child(c, ideal_rate);
            if (score_children) child_distance[j] = prune_distance(c.config);
            children[j] = std::move(c);
        });
        std::vector<std::size_t> steady_index;  // children needing a steady eval
        std::vector<configuration> steady_configs;
        for (std::size_t j = 0; j < children.size(); ++j) {
            if (child_candidate[j] != 0) {
                steady_index.push_back(j);
                steady_configs.push_back(children[j].config);
            }
        }
        if (!steady_configs.empty()) {
            const auto evals = engine.evaluate_batch(steady_configs);
            for (std::size_t i = 0; i < steady_index.size(); ++i) {
                value_child(children[steady_index[i]], evals[i].rate);
            }
        }
        stats.generated += children.size();
        obs_generated_.add(static_cast<std::int64_t>(children.size()));

        if (prune_mode && !children.empty()) {
            stats.pruned = true;
            // Keep the children closest to the ideal configuration.
            std::vector<std::pair<double, std::size_t>> scored;
            scored.reserve(children.size());
            for (std::size_t i = 0; i < children.size(); ++i) {
                scored.push_back({child_distance[i], i});
            }
            std::sort(scored.begin(), scored.end());
            const std::size_t keep = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::ceil(options_.prune_keep_fraction *
                                 static_cast<double>(children.size()))));
            std::vector<vertex> kept;
            kept.reserve(keep);
            for (std::size_t i = 0; i < keep; ++i) {
                kept.push_back(std::move(children[scored[i].second]));
            }
            children = std::move(kept);
        }

        for (auto& c : children) {
            record_vertex(std::move(c));
        }
    }
    // Expansion budget exhausted: settle for the best terminal found so far.
    return finish(best_terminal);
}

}  // namespace mistral::core
