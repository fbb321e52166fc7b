#include "core/search.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory_resource>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>

#include "cluster/translate.h"
#include "common/check.h"
#include "core/planner.h"
#include "core/transient_rate.h"
#include "obs/journal.h"

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
    std::size_t hash = 0;        // Zobrist hash of the vertex's configuration
    int slot = -1;               // its stored configuration; -1 until kept
    int parent = -1;
    std::optional<action> via;   // edge from parent (nullopt for the root)
    dollars accrued = 0.0;       // Σ d(a)·transient-rate along the path
    seconds duration = 0.0;      // Σ d(a)
    int depth = 0;               // actions on the path
    double utility = 0.0;        // Algorithm 1's vertex utility (avg rate)
    bool terminal = false;       // reached via the "null" edge
};

// The search graph's vertices and the configurations kept for them. Most
// recorded vertices are never expanded, so a vertex holds its
// configuration's hash and the edge that reached it, and its configuration
// is stored only where the search holds one anyway: the root, each seeded
// child, each candidate child (the steady evaluation built it) and each
// vertex popped for expansion, rebuilt from its parent's. A terminal shares
// its vertex's. Every vertex's parent is stored, since children come only
// from seeded and expanded vertices.
struct search_graph {
    const cluster::cluster_model* model;
    std::vector<vertex> vertices;
    // A deque, so the popped vertex's configuration stays put while its
    // candidate children's are appended.
    std::deque<configuration> configs;
    // The two sides of a best_seen comparison, for vertices not stored.
    std::array<configuration, 2> rebuilt;

    int keep(configuration c) {
        configs.push_back(std::move(c));
        return static_cast<int>(configs.size()) - 1;
    }
    [[nodiscard]] const configuration& config(std::size_t i) const {
        const int slot = vertices[i].slot;
        MISTRAL_CHECK(slot >= 0);
        return configs[static_cast<std::size_t>(slot)];
    }
    void materialize(std::size_t i) {
        if (vertices[i].slot >= 0) return;
        const auto& v = vertices[i];
        vertices[i].slot = keep(
            cluster::apply(*model, config(static_cast<std::size_t>(v.parent)), *v.via));
    }
    // Vertex i's configuration: the stored one, or its parent's plus its
    // edge, rebuilt into rebuilt[side].
    [[nodiscard]] const configuration& view(std::size_t i, std::size_t side) {
        const auto& v = vertices[i];
        if (v.slot >= 0) return configs[static_cast<std::size_t>(v.slot)];
        cluster::apply_into(*model, config(static_cast<std::size_t>(v.parent)), *v.via,
                            rebuilt[side]);
        return rebuilt[side];
    }
    // Removes the last vertex and the configuration it stored, if any.
    void drop_last() {
        if (vertices.back().slot >= 0) {
            MISTRAL_CHECK(static_cast<std::size_t>(vertices.back().slot) + 1 ==
                          configs.size());
            configs.pop_back();
        }
        vertices.pop_back();
    }
};

// The best-utility table's keys are vertex indices: hashing reads the
// vertex's stored hash, and equality compares the two configurations
// exactly, rebuilding a side that is not stored.
struct vertex_config_hash {
    const search_graph* graph;
    std::size_t operator()(std::size_t i) const { return graph->vertices[i].hash; }
};

struct vertex_config_equal {
    search_graph* graph;
    bool operator()(std::size_t a, std::size_t b) const {
        return a == b || graph->view(a, 0) == graph->view(b, 1);
    }
};

constexpr std::size_t action_kind_count =
    static_cast<std::size_t>(cluster::action_kind::power_off) + 1;

// best_seen's initial bucket count and its node arena's first block.
constexpr std::size_t best_seen_buckets = 4096;
constexpr std::size_t best_seen_arena_bytes = 64 * 1024;
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
                                      model_clock_meter& meter, seconds now) const {
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
        -utility_.power_rate(model_clock_meter::search_power);  // ≥ 0

    search_result stay;
    stay.target = current;

    // Per-decision profile: per-depth expansion/meter-time attribution plus
    // the budget state at finish, journaled as one "search" event (DESIGN.md
    // §10). Entirely skipped (one branch per expansion) when no journaling
    // sink is attached. The per-depth time is modeled search cost (the
    // meter is the model clock), so a profile replays bit-identically across
    // hosts.
    const bool profiling = obs::journaling(options_.sink);
    std::vector<double> depth_expansions;  // index = depth (actions from root)
    std::vector<double> depth_meter_time;  // meter seconds charged per depth
    int prof_pending_depth = -1;   // depth whose meter span is still open
    seconds prof_span_start = 0.0;
    auto note_depth = [&](int depth, double expanded, seconds spent) {
        const auto d = static_cast<std::size_t>(depth);
        if (depth_expansions.size() <= d) {
            depth_expansions.resize(d + 1, 0.0);
            depth_meter_time.resize(d + 1, 0.0);
        }
        depth_expansions[d] += expanded;
        depth_meter_time[d] += spent;
    };
    // Called once, on the way out of find().
    auto emit_profile = [&](const search_result& r) {
        obs_duration_.observe(r.stats.duration);
        if (!profiling) return;
        if (prof_pending_depth >= 0) {
            note_depth(prof_pending_depth, 1.0,
                       meter.elapsed() - prof_span_start);
            prof_pending_depth = -1;
        }
        obs::event e("search", now);
        e.num("cw", cw)
            .num("budget", expected_utility)
            .num("duration", r.stats.duration)
            .num("power_cost", r.stats.search_power_cost)
            .integer("expansions", static_cast<std::int64_t>(r.stats.expansions))
            .integer("generated", static_cast<std::int64_t>(r.stats.generated))
            .boolean("pruned", r.stats.pruned)
            .text("meter", "model_clock")
            .num_list("depth_expansions", std::move(depth_expansions))
            .num_list("depth_meter_time", std::move(depth_meter_time))
            .integer("plan_actions", static_cast<std::int64_t>(r.actions.size()))
            .num("expected_utility", r.expected_utility)
            .num("ideal_utility", r.ideal_utility);
        options_.sink->record(e);
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

    // Pruning distance to the ideal configuration (cap_distance +
    // placement_distance, bit for bit), scored from each pruning parent's
    // per-VM terms.
    cluster::ideal_distance distance(model, ideal.ideal);

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

    search_graph graph{&model, {}, {}, {}};
    auto& vertices = graph.vertices;
    // Max-heap of (utility, vertex index); stale entries skipped on pop.
    using heap_entry = std::pair<double, std::size_t>;
    std::priority_queue<heap_entry> open;
    // Best utility recorded per configuration (non-terminal vertices), keyed
    // by the index of the first vertex recorded with that configuration.
    // Entries are never erased, so their nodes come from an arena released
    // whole when find() returns.
    std::pmr::monotonic_buffer_resource best_seen_arena(best_seen_arena_bytes);
    std::pmr::unordered_map<std::size_t, double, vertex_config_hash, vertex_config_equal>
        best_seen(best_seen_buckets, vertex_config_hash{&graph},
                  vertex_config_equal{&graph}, &best_seen_arena);

    // Receives each drafted child's configuration in turn; only the
    // children whose vertices keep a configuration are copied out.
    configuration scratch;
    // The popped vertex's actions and occupancy, refilled per expansion
    // (and per seeded step) so that neither is reallocated.
    std::vector<action> acts;
    std::vector<std::uint8_t> occ;

    vertex root;
    root.hash = current.hash();
    root.slot = graph.keep(current);
    root.utility = ideal_rate;  // average-rate bound: nothing beats the ideal
    vertices.push_back(std::move(root));
    open.push({vertices[0].utility, 0});
    best_seen.emplace(0, vertices[0].utility);

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

    // Cost-table entries, one per (action kind, VM) and one per host-power
    // kind: an entry depends only on the kind, the VM's tier and app, and
    // the bound rates, all fixed within this find(). Each slot is filled on
    // first use through the same lookup, so a kind the table lacks still
    // fails only when an action of it is drafted.
    const std::size_t cost_stride = model.vm_count() + 1;
    std::vector<std::optional<cost::cost_entry>> cost_entries(action_kind_count *
                                                              cost_stride);
    auto cost_of = [&](const action& a) -> const cost::cost_entry& {
        const vm_id vm = detail::touched_vm(a);
        auto& slot = cost_entries[static_cast<std::size_t>(kind_of(a)) * cost_stride +
                                  (vm.valid() ? vm.index() : model.vm_count())];
        if (!slot) slot = costs_.lookup(model, a, rates);
        return *slot;
    };

    // Drafts the child vertex reached by firing `a` from vertex `v` (index
    // `parent_idx`, configuration `vc`) into `out`, which receives the
    // child's configuration: everything except the steady-state valuation,
    // which value_child fills in once the batch evaluation has run. `pe` is
    // the parent's steady evaluation and `occ` its occupancy.
    auto draft_child = [&](const configuration& vc, const vertex& v,
                           std::size_t parent_idx, const steady_utility& pe,
                           const std::vector<std::uint8_t>& occ, const action& a,
                           configuration& out) -> vertex {
        const auto& entry = cost_of(a);
        vertex c;
        c.via = a;
        c.parent = static_cast<int>(parent_idx);
        cluster::apply_into(model, vc, a, out);
        c.hash = out.hash();
        // Transient accrual is clamped at the ideal rate so that time spent
        // mid-adaptation can never appear *better* than the best legal
        // steady state (which would invite lingering in intermediate
        // configurations and break the heuristic's bound).
        const double during = std::min(
            detail::transient_rate(model, utility_, rates, targets, vc, occ, pe,
                                   a, entry),
            ideal_rate);
        c.accrued = v.accrued + entry.duration * during - per_action_overhead;
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
    // configuration; returns its index or -1 when dominated, in which case
    // the configuration it stored, if any, is dropped with it.
    auto record_vertex = [&](vertex&& vc) -> int {
        vertices.push_back(std::move(vc));
        const std::size_t idx = vertices.size() - 1;
        const auto [it, fresh] = best_seen.try_emplace(idx, vertices[idx].utility);
        if (!fresh) {
            if (vertices[idx].utility <= it->second + 1e-12) {
                graph.drop_last();
                return -1;
            }
            it->second = vertices[idx].utility;
        }
        open.push({vertices[idx].utility, idx});
        return static_cast<int>(idx);
    };

    // Adds the "null"-edge terminal for a candidate vertex; `pe` is the
    // vertex's steady evaluation, which the caller already holds. May grow
    // `vertices`.
    auto add_terminal = [&](std::size_t idx, const steady_utility& pe) {
        // The power budget gates terminal candidacy only: like the packing
        // constraint, intermediates may exceed it while a plan is in flight,
        // but the plan must land inside the cap.
        if (!pe.candidate || pe.power > options_.power_cap) return;
        const double utility =
            average_rate(vertices[idx].accrued, vertices[idx].duration, pe.rate);
        if (best_terminal >= 0 &&
            !(utility > vertices[static_cast<std::size_t>(best_terminal)].utility)) {
            return;
        }
        vertex term = vertices[idx];
        term.parent = static_cast<int>(idx);
        term.via.reset();
        term.terminal = true;
        term.utility = utility;
        vertices.push_back(std::move(term));
        best_terminal = static_cast<int>(vertices.size()) - 1;
        open.push({vertices.back().utility, vertices.size() - 1});
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
        out.target = graph.config(static_cast<std::size_t>(terminal_index));
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
            // Valid until record_vertex grows `vertices`; not used after.
            const vertex& v = vertices[at];
            const configuration& vc = graph.config(at);
            if (++seeded > seed_limit || !menu_allows(a) ||
                !applicable(model, vc, a) || !allowed(vc, a)) {
                break;
            }
            const seconds seed_start = profiling ? meter.elapsed() : 0.0;
            meter.on_expansion();
            detail::occupancy(model, vc, occ);
            vertex c = draft_child(vc, v, at, parent_eval, occ, a, scratch);
            // A seeded child is the next step's parent, so it keeps its
            // configuration (dropped with it if dominated).
            c.slot = graph.keep(scratch);
            const configuration& cc = graph.configs.back();
            // One evaluation per seeded child: its value (candidates only),
            // its terminal and the next step's parent all share it.
            const bool candidate = is_candidate(model, cc);
            steady_utility ce;
            if (candidate) ce = engine.evaluate(cc);
            value_child(c, candidate ? ce.rate : ideal_rate);
            const int idx = record_vertex(std::move(c));
            if (idx < 0) break;
            at = static_cast<std::size_t>(idx);
            if (!candidate) ce = engine.evaluate(graph.config(at));
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

    // Per-expansion buffers, reused by every expansion.
    std::vector<std::pair<double, std::size_t>> ranked;  // (distance, action)
    std::vector<std::size_t> drafted;  // actions drafted, in recording order
    std::vector<vertex> children;
    std::vector<std::size_t> steady_index;  // children needing a steady eval
    std::vector<configuration> steady_configs;
    while (!open.empty() && stats.expansions < options_.max_expansions) {
        const auto [u, idx] = open.top();
        open.pop();
        if (vertices[idx].terminal) {
            return finish(static_cast<int>(idx));
        }
        {
            const auto it = best_seen.find(idx);
            if (it != best_seen.end() && u < it->second - 1e-12) continue;  // stale
        }
        graph.materialize(idx);

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
            prof_pending_depth = vertices[idx].depth;
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

        // The popped vertex's configuration; the store keeps it in place
        // while the candidate children's are appended below.
        const configuration& vc = graph.config(idx);
        // Terminal ("null") child from candidate configurations. This one
        // evaluation of the popped vertex also prices its children's
        // transients below.
        const auto pe = engine.evaluate(vc);
        add_terminal(idx, pe);
        // add_terminal may have grown `vertices`; nothing below does until
        // the children are recorded, so `v` holds until then.
        const vertex& v = vertices[idx];

        // Action children. The meter charges per child *evaluated* — child
        // construction (cost lookup + utility estimation) is where a real
        // controller burns its time and power, so search durations scale
        // with the branching factor, i.e. with cluster size (Table I). One
        // batched charge covers the whole expansion, pruned children too.
        if (static_cast<std::size_t>(v.depth) >= options_.max_plan_actions) continue;
        enumerate_actions(model, vc, options_.menu, acts);
        std::erase_if(acts, [&](const action& a) { return !allowed(vc, a); });
        if (acts.empty()) continue;
        meter.charge(acts.size());

        // The children to draft, in recording order: all of them, or under
        // pruning the ones closest to the ideal configuration. Each child's
        // distance comes from the parent's terms and the one placement its
        // action changes (enumerate_actions established applicability), so
        // ranking builds no child and drafts nothing it drops.
        drafted.clear();
        if (prune_mode) {
            stats.pruned = true;
            distance.set_parent(vc);
            ranked.clear();
            for (std::size_t j = 0; j < acts.size(); ++j) {
                // A kind the cost table lacks throws here, as drafting would.
                cost_of(acts[j]);
                ranked.push_back({cluster::child_distance(model, vc, acts[j], distance), j});
            }
            // keep ≤ acts.size(), since the fraction is at most 1. The
            // (distance, action) pairs are unique, so the kept prefix and its
            // order are the ones a full sort gives.
            const std::size_t keep = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::ceil(options_.prune_keep_fraction *
                                 static_cast<double>(acts.size()))));
            std::partial_sort(ranked.begin(),
                              ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                              ranked.end());
            for (std::size_t i = 0; i < keep; ++i) drafted.push_back(ranked[i].second);
        } else {
            for (std::size_t j = 0; j < acts.size(); ++j) drafted.push_back(j);
        }

        // Draft those children (apply + candidacy + transient accounting),
        // then value the candidates' steady states as one batch.
        detail::occupancy(model, vc, occ);
        // is_candidate_child re-checks only what each child's action changed,
        // which needs a structurally valid parent; any other parent's
        // children get the full check.
        const bool parent_valid = cluster::structurally_valid(model, vc);
        children.resize(drafted.size());
        steady_index.clear();
        steady_configs.clear();
        auto draft = [&](std::size_t k) {
            const action& a = acts[drafted[k]];
            vertex c = draft_child(vc, v, idx, pe, occ, a, scratch);
            const bool candidate = parent_valid
                                       ? is_candidate_child(model, vc, scratch, a)
                                       : is_candidate(model, scratch);
            if (candidate) {
                // The only configurations copied out of the scratch: the
                // batch evaluation reads them, and their vertices keep them.
                steady_index.push_back(k);
                steady_configs.push_back(scratch);
            } else {
                value_child(c, ideal_rate);
            }
            children[k] = std::move(c);
        };
        // Through std::ref, std::function holds a pointer to the lambda
        // instead of a heap copy of its captures.
        engine.parallel_for(drafted.size(), std::ref(draft));
        if (!steady_configs.empty()) {
            const auto evals = engine.evaluate_batch(steady_configs);
            for (std::size_t i = 0; i < steady_index.size(); ++i) {
                value_child(children[steady_index[i]], evals[i].rate);
            }
        }
        stats.generated += acts.size();
        obs_generated_.add(static_cast<std::int64_t>(acts.size()));

        for (std::size_t k = 0, i = 0; k < children.size(); ++k) {
            if (i < steady_index.size() && steady_index[i] == k) {
                children[k].slot = graph.keep(std::move(steady_configs[i++]));
            }
            record_vertex(std::move(children[k]));
        }
    }
    // Expansion budget exhausted: settle for the best terminal found so far.
    return finish(best_terminal);
}

}  // namespace mistral::core
