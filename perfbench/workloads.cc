// The benchmark's two control workloads.
//
// Every workload drives the controller through `strategy::decide` from a
// wrapper the benchmark owns (timed_strategy), checks every decision, and
// hashes every invoked decision into a fingerprint. A run measures a fixed
// set of episodes (days) — each a whole scenario built from its own seed (run
// seed + k × 1000003) — and replays the set for --seconds, keeping each
// decision's fastest play (see run_untraced).
//
//  flat_day   — the paper's setting: 8 hosts / 4 RUBiS apps over the Fig. 4
//               World-Cup and HP day (15:00–21:30), one flat mistral_strategy
//               (self-aware A*, one evaluator thread, the measured cost
//               table) driven through the testbed by core::run_scenario.
//               Loads the A* search, child drafting, the Perf-Pwr ideal and
//               the LQN solve; bypasses the coordinator, journal and
//               snapshots (null sink).
//  chaos_soak — the flat_day scenario under a restartable_coordinator over
//               two pods with lookahead K=3: 10 % action aborts and 10 %
//               stragglers, 5 % sensor faults, 5 % pod crashes and 10 % hangs
//               (≤4×), a 120 s pod deadline, a checkpoint every 5 decisions,
//               three benchmark-triggered warm restarts, and the journal streamed
//               as JSONL into memory. Loads lookahead continuations, the
//               greedy rung, tail replay, journal and snapshot write paths.
//
// A third workload, 256 hosts / 64 apps in 64 four-host pods, was dropped:
// with parallel_pods its 64 threads a decision on 4 vCPUs timed the scheduler
// (a quarter apart from run to run even on the fastest of several plays), and
// stepping the pods in turn made one pass of two 4 h days take 30 s. So the
// migration broker and the pod-thread path go unmeasured; chaos_soak's two
// pods still load the coordinator's per-pod steps, budgets and checks.
//
// Baselines (main.cc's header comment has the numbers) were measured on a
// 4-vCPU Xeon VM at 2.1 GHz, GCC 12.2, Release.
#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include "apps/rubis.h"
#include "cluster/translate.h"
#include "common/check.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/search_meter.h"
#include "core/snapshot.h"
#include "layers.h"
#include "lqn/solver.h"
#include "obs/journal.h"
#include "sim/cost_campaign.h"
#include "sim/faults.h"
#include "workload/generators.h"

namespace perfbench {

using namespace mistral;

namespace {

constexpr std::size_t max_problem_notes = 20;

[[nodiscard]] std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// FNV-1a over the decision stream.
struct fnv1a {
    std::uint64_t h = 1469598103934665603ULL;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void str(const std::string& s) {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

[[nodiscard]] std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// Per-layer metrics of one traced episode, by catalog name.
using layer_map = std::map<std::string, double>;

// One invoked flat_day decision, kept for the replay.
struct capture {
    core::decision_input in;
    std::vector<cluster::action> actions;
    bool has_search = false;
    seconds cw = 0.0;
    dollars budget = 0.0;
    dollars expected_utility = 0.0;
};

struct episode {
    std::uint64_t fingerprint = fnv1a{}.h;
    dollars utility = 0.0;
    std::int64_t intervals = 0;
    std::int64_t calls = 0;
    std::int64_t invoked = 0;
    std::int64_t failed = 0;              // invoked decisions failing a check
    std::int64_t invariant_failures = 0;  // failures on non-invoked intervals
    std::vector<double> decide_ms;        // invoked decisions only
    std::int64_t decide_ns = 0;           // every decide call
    std::int64_t check_ns = 0;            // the benchmark's own checks
    std::int64_t loop_ns = 0;             // loop wall minus check_ns
    seconds modeled_s = 0.0;              // Σ modeled decision delay (invoked)
    std::int64_t expansions = 0;
    std::int64_t generated = 0;
    std::vector<std::string> problems;
    layer_map layers;
    std::vector<capture> captures;

    void problem(std::string what) {
        if (problems.size() < max_problem_notes) problems.push_back(std::move(what));
    }
};

// Wraps the strategy under test: times decide(), checks each decision and
// folds invoked ones into the episode fingerprint.
class timed_strategy final : public core::strategy {
public:
    using before_fn = std::function<void(const core::decision_input&)>;
    using check_fn = std::function<void(const core::decision_input&, const outcome&,
                                        std::vector<std::string>&)>;
    using after_fn = std::function<void(const core::decision_input&, const outcome&)>;

    timed_strategy(const cluster::cluster_model& model, core::strategy& inner,
                   episode& ep, tracer* spans)
        : model_(model), inner_(inner), ep_(ep), spans_(spans) {}

    [[nodiscard]] std::string name() const override { return inner_.name(); }

    outcome decide(const core::decision_input& in) override {
        if (before) before(in);
        outcome out;
        {
            scoped_span span(spans_, "core.decide", ep_.calls);
            const std::int64_t t0 = now_ns();
            out = inner_.decide(in);
            const std::int64_t dt = now_ns() - t0;
            ep_.decide_ns += dt;
            if (out.invoked) ep_.decide_ms.push_back(static_cast<double>(dt) / 1e6);
        }
        const std::int64_t c0 = now_ns();
        ++ep_.calls;
        std::vector<std::string> problems;
        std::string why;
        if (!cluster::structurally_valid(model_, in.current, &why)) {
            problems.push_back("configuration not structurally valid: " + why);
        }
        check_plan(model_, in.current, out.actions, problems);
        if (check) check(in, out, problems);
        if (out.invoked) {
            ++ep_.invoked;
            ep_.modeled_s += out.decision_delay;
            ep_.expansions += static_cast<std::int64_t>(out.stats.expansions);
            ep_.generated += static_cast<std::int64_t>(out.stats.generated);
            fnv1a f{ep_.fingerprint};
            f.u64(bits(in.now));
            f.u64(out.actions.size());
            for (const auto& a : out.actions) f.str(core::to_json(a));
            f.u64(bits(out.decision_delay));
            f.u64(bits(out.decision_power_cost));
            f.u64(out.stats.expansions);
            f.u64(out.stats.generated);
            ep_.fingerprint = f.h;
            if (!problems.empty()) ++ep_.failed;
        } else if (!problems.empty()) {
            ++ep_.invariant_failures;
        }
        for (auto& p : problems) {
            ep_.problem("t=" + std::to_string(in.now) + ": " + p);
        }
        ep_.check_ns += now_ns() - c0;
        if (after) after(in, out);
        return out;
    }

    before_fn before;
    check_fn check;
    after_fn after;

private:
    const cluster::cluster_model& model_;
    core::strategy& inner_;
    episode& ep_;
    tracer* spans_;
};

struct episode_options {
    bool traced = false;
    bool short_mode = false;
    tracer* spans = nullptr;
};

[[nodiscard]] cost::cost_table measured_costs() {
    sim::campaign_options opts;
    opts.trials = 3;
    return sim::run_cost_campaign(apps::rubis_browsing("campaign"), opts);
}

// wl::paper_workloads with a duration knob (short mode shortens the day).
[[nodiscard]] std::vector<wl::trace> paper_day(std::uint64_t seed, seconds duration) {
    wl::generator_options gen;
    gen.seed = seed;
    gen.duration = duration;
    return {wl::world_cup_trace(gen, 0).scaled_to_range(0.0, 100.0).renamed("RUBiS-1"),
            wl::world_cup_trace(gen, 1).scaled_to_range(0.0, 100.0).renamed("RUBiS-2"),
            wl::hp_trace(gen, 0).scaled_to_range(0.0, 100.0).renamed("RUBiS-3"),
            wl::hp_trace(gen, 1).scaled_to_range(0.0, 100.0).renamed("RUBiS-4")};
}

[[nodiscard]] core::scenario_options flat_options(std::uint64_t seed, bool short_mode) {
    core::scenario_options o;
    o.host_count = 8;
    o.app_count = 4;
    o.seed = seed;
    o.traces = paper_day(seed, (short_mode ? 2.0 : 6.5) * 3600.0);
    return o;
}

[[nodiscard]] std::int64_t milliwatts(double w) { return std::llround(w * 1000.0); }

void check_pods(const core::global_coordinator& coord, watts budget,
                std::size_t app_count, std::vector<std::string>& problems) {
    check_budgets(coord.budgets(), budget, problems);
    std::vector<std::vector<std::size_t>> owned;
    for (const auto& pod : coord.pods()) owned.push_back(pod->apps());
    check_partition(owned, coord.stray_apps(), app_count, problems);
}

void add_eval_stats(layer_map& l, const core::evaluation_stats& s) {
    l["eval.memo_hits"] += static_cast<double>(s.cache_hits);
    l["eval.memo_misses"] += static_cast<double>(s.cache_misses);
    l["eval.app_cache_hits"] += static_cast<double>(s.app_cache_hits);
    l["eval.app_cache_misses"] += static_cast<double>(s.app_cache_misses);
    l["eval.app_solves"] += static_cast<double>(s.app_solves);
}

void add_controller_stats(layer_map& l, const core::mistral_controller& c) {
    add_eval_stats(l, c.search().evaluator().stats());
    l["lookahead.decisions"] += static_cast<double>(c.lookahead().lookahead_decisions);
    l["lookahead.preprovisions"] +=
        static_cast<double>(c.lookahead().preprovision_commits);
    l["ladder.greedy_decisions"] += static_cast<double>(c.degraded().greedy_decisions);
    l["reconcile.repairs"] += static_cast<double>(c.reconciliation().repairs);
    l["reconcile.fault_replans"] += static_cast<double>(c.reconciliation().fault_replans);
}

[[nodiscard]] double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- flat_day ------------------------------------------------------------

class flat_day_episode {
public:
    flat_day_episode(const cost::cost_table& costs, std::uint64_t seed,
                     const episode_options& eo)
        : eo_(eo),
          scn_(core::make_rubis_scenario(flat_options(seed, eo.short_mode))),
          journal_(&registry_),
          strat_(scn_.model, costs, controller_options()) {}

    episode run() {
        episode ep;
        timed_strategy w(scn_.model, strat_, ep, eo_.spans);
        std::size_t mark = 0;
        if (eo_.traced) {
            w.before = [&](const core::decision_input&) {
                mark = journal_.events().size();
            };
            w.after = [&](const core::decision_input& in,
                          const core::strategy::outcome& out) {
                if (!out.invoked) return;
                capture c{in, out.actions};
                const auto& events = journal_.events();
                for (std::size_t i = mark; i < events.size(); ++i) {
                    if (events[i].type != "search") continue;
                    c.has_search = true;
                    c.cw = events[i].find("cw")->num;
                    c.budget = events[i].find("budget")->num;
                    c.expected_utility = events[i].find("expected_utility")->num;
                }
                ep.captures.push_back(std::move(c));
            };
        }
        core::run_result r;
        const std::int64_t t0 = now_ns();
        {
            scoped_span span(eo_.spans, "sim.loop");
            r = core::run_scenario(scn_, w);
        }
        ep.loop_ns = now_ns() - t0 - ep.check_ns;
        ep.utility = r.cumulative_utility;
        ep.intervals = static_cast<std::int64_t>(r.series.find("utility")->size());
        add_controller_stats(ep.layers, strat_.controller());
        return ep;
    }

    [[nodiscard]] const core::scenario& scenario() const { return scn_; }
    [[nodiscard]] const core::mistral_controller& controller() const {
        return strat_.controller();
    }

private:
    [[nodiscard]] core::controller_options controller_options() {
        core::controller_options o;
        if (eo_.traced) o.sink = &journal_;  // the search events carry cw + budget
        return o;
    }

    episode_options eo_;
    core::scenario scn_;
    obs::metrics_registry registry_;
    obs::memory_sink journal_;
    core::mistral_strategy strat_;
};

// Re-runs each captured invoked search through adaptation_search::find with
// the controller's own options and a timing evaluator, then times the
// Perf-Pwr ideal, lqn::solve and cluster::is_candidate on the same inputs.
void replay_flat(const flat_day_episode& src, const cost::cost_table& costs,
                 const std::vector<capture>& captures, tracer& spans, layer_map& l,
                 std::vector<std::string>& problems) {
    const auto& model = src.scenario().model;
    const auto& ctl = src.controller();
    core::search_options so = ctl.search().options();
    so.sink = nullptr;
    so.evaluation.sink = nullptr;

    auto timed = std::make_shared<timing_evaluator>(
        core::make_evaluator(model, ctl.utility(), so.lqn, so.evaluation), &spans,
        /*sample_every=*/5, /*sample_cap=*/800);
    const core::adaptation_search search(model, ctl.utility(), costs, so, timed);
    core::model_clock_meter meter;
    std::int64_t replayed = 0, matched = 0, repeats = 0;
    for (std::size_t i = 0; i < captures.size(); ++i) {
        const auto& c = captures[i];
        if (!c.has_search) continue;
        ++replayed;
        core::search_result r;
        {
            scoped_span span(&spans, "search.find", static_cast<std::int64_t>(i));
            r = search.find(c.in.current, c.in.rates, c.cw, c.budget, meter, c.in.now);
        }
        if (r.actions == c.actions && bits(r.expected_utility) == bits(c.expected_utility)) {
            ++matched;
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (captures[j].has_search && captures[j].in.rates == c.in.rates &&
                captures[j].in.current == c.in.current) {
                ++repeats;
                break;
            }
        }
    }
    if (replayed == 0) problems.push_back("replay: no invoked search was captured");
    if (matched != replayed) {
        problems.push_back("replay: " + std::to_string(replayed - matched) + " of " +
                           std::to_string(replayed) +
                           " replayed searches chose a different plan");
    }

    // The ideal alone, on a fresh engine (counts only, no nested spans).
    auto ideal_engine = std::make_shared<timing_evaluator>(
        core::make_evaluator(model, ctl.utility(), so.lqn, so.evaluation), nullptr);
    const core::perf_pwr_optimizer ideal(model, ctl.utility(),
                                         {.lqn = so.lqn, .app_hosts = so.app_hosts},
                                         ideal_engine);
    std::size_t sink = 0;  // keeps the probed results observable
    for (std::size_t i = 0; i < captures.size(); ++i) {
        if (!captures[i].has_search) continue;
        scoped_span span(&spans, "ideal.optimize", static_cast<std::int64_t>(i));
        sink += ideal.optimize(captures[i].in.rates, &captures[i].in.current).hosts_used;
    }

    // Probes on configurations the replayed searches valued.
    const auto& samples = timed->samples();
    std::int64_t solve_ns = 0;
    for (const auto& s : samples) {
        const auto deps = cluster::to_lqn(model, s.config, s.rates);
        scoped_span span(&spans, "lqn.solve");
        const std::int64_t t0 = now_ns();
        const auto r = lqn::solve(deps, model.host_count(), so.lqn);
        solve_ns += now_ns() - t0;
        sink += r.apps.size();
    }
    constexpr int candidate_rounds = 20;
    std::int64_t candidate_ns = 0;
    {
        scoped_span span(&spans, "cluster.is_candidate");
        const std::int64_t t0 = now_ns();
        for (int round = 0; round < candidate_rounds; ++round) {
            for (const auto& s : samples) sink += cluster::is_candidate(model, s.config) ? 1 : 0;
        }
        candidate_ns = now_ns() - t0;
    }
    if (sink == 0 && !samples.empty()) problems.push_back("probes: empty results");

    const auto t = spans.aggregate();
    const auto busy = [&](const char* name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0 : static_cast<double>(it->second.busy_ns) / 1e6;
    };
    const auto& counts = timed->counts();
    l["replay.searches"] = static_cast<double>(replayed);
    l["replay.plan_match"] = ratio(static_cast<double>(matched), static_cast<double>(replayed));
    l["search.find.busy_ms"] = busy("search.find");
    l["search.self_ms"] = t.count("search.find") != 0
                              ? static_cast<double>(t.at("search.find").self_ns) / 1e6
                              : 0.0;
    l["draft.busy_ms"] = busy("draft.parallel_for");
    l["draft.children"] = static_cast<double>(counts.drafted_children);
    l["draft.ns_per_child"] =
        ratio(busy("draft.parallel_for") * 1e6, static_cast<double>(counts.drafted_children));
    l["steady.busy_ms"] = busy("steady.evaluate") + busy("steady.evaluate_batch");
    l["steady.configs"] = static_cast<double>(counts.steady_configs);
    l["ideal.calls"] = static_cast<double>(
        t.count("ideal.optimize") != 0 ? t.at("ideal.optimize").count : 0);
    l["ideal.busy_ms"] = busy("ideal.optimize");
    l["ideal.isolated_sizings"] = static_cast<double>(ideal_engine->counts().isolated_sizings);
    l["ideal.repeat_share"] = ratio(static_cast<double>(repeats), static_cast<double>(replayed));
    l["lqn.solve_us"] = ratio(static_cast<double>(solve_ns) / 1e3,
                              static_cast<double>(samples.size()));
    l["cluster.is_candidate_ns"] =
        ratio(static_cast<double>(candidate_ns),
              static_cast<double>(samples.size()) * candidate_rounds);
}

// ---- chaos_soak ----------------------------------------------------------

constexpr watts chaos_watts_per_host = 85.0;
constexpr int chaos_restarts = 3;

// The chaos journal: the program's own jsonl_sink over an in-memory stream,
// wrapped so the benchmark can count events by type and time record().
class chaos_journal final : public obs::sink {
public:
    explicit chaos_journal(obs::metrics_registry* metrics) : out_(text_, metrics) {}

    [[nodiscard]] bool enabled() const override { return true; }
    void record(const obs::event& e) override {
        const std::int64_t t0 = timing_ ? now_ns() : 0;
        out_.record(e);
        if (timing_) record_ns_ += now_ns() - t0;
        ++events_;
        ++counts_[e.type];
        if (e.type == "decision" || e.type == "lookahead" || e.type == "restart" ||
            e.type == "checkpoint") {
            kept_[e.type].push_back(e);
        }
    }
    [[nodiscard]] obs::metrics_registry* metrics() override { return out_.metrics(); }

    void set_timing(bool on) { timing_ = on; }
    [[nodiscard]] std::string text() const { return text_.str(); }
    [[nodiscard]] std::int64_t events() const { return events_; }
    [[nodiscard]] std::int64_t record_ns() const { return record_ns_; }
    [[nodiscard]] std::int64_t count(const std::string& type) const {
        const auto it = counts_.find(type);
        return it == counts_.end() ? 0 : it->second;
    }
    [[nodiscard]] const std::vector<obs::event>& kept(const std::string& type) {
        return kept_[type];
    }

private:
    std::ostringstream text_;
    obs::jsonl_sink out_;
    bool timing_ = false;
    std::int64_t events_ = 0;
    std::int64_t record_ns_ = 0;
    std::map<std::string, std::int64_t> counts_;
    std::map<std::string, std::vector<obs::event>> kept_;
};

[[nodiscard]] core::scenario chaos_scenario(std::uint64_t seed, bool short_mode) {
    auto o = flat_options(seed, short_mode);
    o.testbed.faults = sim::fault_options::uniform(0.10, 0.10);
    // 5 % of app-windows corrupted, spread evenly over the six sensor faults.
    o.sensor_faults = sim::sensor_fault_options::uniform(0.05 / 6.0);
    return core::make_rubis_scenario(o);
}

[[nodiscard]] bool event_flag(const obs::event& e, const char* key) {
    const auto* f = e.find(key);
    return f != nullptr && f->boolean;
}

[[nodiscard]] std::string event_text(const obs::event& e, const char* key) {
    const auto* f = e.find(key);
    return f != nullptr ? f->text : std::string{};
}

class chaos_episode {
public:
    chaos_episode(const cost::cost_table& costs, std::uint64_t seed,
                  const episode_options& eo)
        : eo_(eo),
          costs_(costs),
          scn_(chaos_scenario(seed, eo.short_mode)),
          journal_(&registry_),
          gate_(&journal_),
          faults_(control_faults(), seed ^ 0xC4A05ULL),
          coord_([this] { return build(); }, {.checkpoint_every = 5, .restart_at = {}}, &gate_) {
        scn_.options.sink = &journal_;
        journal_.set_timing(eo.traced);
        const seconds start = scn_.traces.front().start_time();
        const seconds span = scn_.traces.front().end_time() - start;
        for (int i = 1; i <= chaos_restarts; ++i) {
            restart_at_.push_back(start + span * i / (chaos_restarts + 1.0));
        }
    }
    chaos_episode(const chaos_episode&) = delete;
    chaos_episode& operator=(const chaos_episode&) = delete;

    episode run() {
        const auto& model = scn_.model;
        episode ep;
        timed_strategy w(model, coord_, ep, eo_.spans);
        std::size_t next_restart = 0;
        std::int64_t restart_ns = 0;
        // Benchmark-triggered warm restarts, each a span of its own.
        w.before = [&](const core::decision_input& in) {
            if (next_restart < restart_at_.size() && in.now >= restart_at_[next_restart]) {
                scoped_span span(eo_.spans, "restart");
                const std::int64_t t0 = now_ns();
                coord_.restart(in.now);
                restart_ns += now_ns() - t0;
                ++next_restart;
            }
        };
        w.check = [&](const core::decision_input&, const core::strategy::outcome&,
                      std::vector<std::string>& problems) {
            check_pods(coord_.inner(), budget(), model.app_count(), problems);
        };
        std::vector<std::string> checkpoints;
        if (eo_.traced) {
            w.after = [&](const core::decision_input&, const core::strategy::outcome&) {
                const auto& cp = coord_.last_checkpoint();
                if (!cp.empty() && (checkpoints.empty() || checkpoints.back() != cp)) {
                    checkpoints.push_back(cp);
                }
            };
        }
        core::run_result r;
        const std::int64_t t0 = now_ns();
        {
            scoped_span span(eo_.spans, "sim.loop");
            r = core::run_scenario(scn_, w);
        }
        ep.loop_ns = now_ns() - t0 - ep.check_ns;
        ep.utility = r.cumulative_utility;
        ep.intervals = static_cast<std::int64_t>(r.series.find("utility")->size());

        // Whole-episode checks: the journal re-reads cleanly, the last
        // checkpoint round-trips exactly, every scheduled restart ran.
        check_journal(journal_.text(), journal_.events(), ep.problems);
        check_checkpoint(coord_.last_checkpoint(), ep.problems);
        if (coord_.restarts() != chaos_restarts) {
            ep.problem("expected " + std::to_string(chaos_restarts) + " restarts, ran " +
                       std::to_string(coord_.restarts()));
        }

        auto& l = ep.layers;
        l["journal.events"] = static_cast<double>(journal_.events());
        l["journal.bytes"] = static_cast<double>(journal_.text().size());
        l["journal.record_ms"] = static_cast<double>(journal_.record_ns()) / 1e6;
        l["snapshot.checkpoints"] = static_cast<double>(journal_.count("checkpoint"));
        double cp_bytes = 0.0;
        for (const auto& e : journal_.kept("checkpoint")) {
            cp_bytes += static_cast<double>(e.find("bytes")->integer);
        }
        l["snapshot.bytes"] = ratio(cp_bytes, l["snapshot.checkpoints"]);
        if (!checkpoints.empty()) {
            std::int64_t decode_ns = 0, encode_ns = 0;
            for (const auto& cp : checkpoints) {
                std::int64_t t = now_ns();
                core::snapshot snap;
                {
                    scoped_span span(eo_.spans, "snapshot.decode");
                    snap = core::snapshot_from_json(cp);
                }
                decode_ns += now_ns() - t;
                t = now_ns();
                std::string again;
                {
                    scoped_span span(eo_.spans, "snapshot.encode");
                    again = core::to_json(snap);
                }
                encode_ns += now_ns() - t;
                if (again != cp) ep.problem("checkpoint does not re-encode exactly");
            }
            const auto n = static_cast<double>(checkpoints.size());
            l["snapshot.decode_us"] = static_cast<double>(decode_ns) / 1e3 / n;
            l["snapshot.encode_us"] = static_cast<double>(encode_ns) / 1e3 / n;
        }
        l["restart.ms"] = static_cast<double>(restart_ns) / 1e6;
        for (const auto& e : journal_.kept("restart")) {
            l["restart.replayed"] += static_cast<double>(e.find("replayed")->integer);
        }
        for (const auto& e : journal_.kept("lookahead")) {
            l["lookahead.decisions"] += 1.0;
            if (event_flag(e, "preprovision")) l["lookahead.preprovisions"] += 1.0;
        }
        for (const auto& e : journal_.kept("decision")) {
            if (event_flag(e, "invoked") && event_text(e, "mode") == "greedy") {
                l["ladder.greedy_decisions"] += 1.0;
            }
            if (event_flag(e, "repair")) l["reconcile.repairs"] += 1.0;
            if (event_text(e, "trigger") == "fault") l["reconcile.fault_replans"] += 1.0;
        }
        l["coord.pod_steps"] = static_cast<double>(journal_.count("pod_decision"));
        l["coord.migrations"] = static_cast<double>(coord_.inner().brokered_migrations());
        // Evaluator counters from the metrics registry; warm-restart tail
        // replay re-counts its re-decided intervals (documented in snapshot.h).
        const auto counter = [&](const char* name) {
            return static_cast<double>(registry_.counter_value(name));
        };
        l["eval.memo_hits"] = counter("mistral_eval_memo_hits_total");
        l["eval.memo_misses"] = counter("mistral_eval_memo_misses_total");
        l["eval.app_cache_hits"] = counter("mistral_eval_app_cache_hits_total");
        l["eval.app_cache_misses"] = counter("mistral_eval_app_cache_misses_total");
        l["eval.app_solves"] = counter("mistral_eval_app_solves_total");
        return ep;
    }

private:
    [[nodiscard]] static sim::control_fault_options control_faults() {
        sim::control_fault_options f;
        f.crash_probability = 0.05;
        f.hang_probability = 0.10;
        f.hang_multiplier = 4.0;
        return f;
    }
    [[nodiscard]] watts budget() const {
        return chaos_watts_per_host * static_cast<double>(scn_.model.host_count());
    }
    [[nodiscard]] std::unique_ptr<core::global_coordinator> build() {
        core::coordinator_options o;
        o.power_budget = budget();
        // One monitoring interval: a 30 s deadline trips on healthy searches.
        o.pod_deadline = scn_.options.monitoring_interval;
        o.pod_fault_hook = [this](std::size_t pod) {
            const auto f = faults_.on_pod_step(pod);
            return core::pod_step_fault{f.crashed, f.hang_multiplier};
        };
        core::controller_builder builder;
        builder.lookahead(3).sink(&gate_);
        return std::make_unique<core::global_coordinator>(
            scn_.model, costs_, core::uniform_partition(scn_.model, 2), builder, o);
    }

    episode_options eo_;
    const cost::cost_table& costs_;
    core::scenario scn_;
    obs::metrics_registry registry_;
    chaos_journal journal_;
    core::gate_sink gate_;
    sim::control_fault_injector faults_;
    core::restartable_coordinator coord_;
    std::vector<seconds> restart_at_;
};

// ---- the workload table --------------------------------------------------

struct workload_def {
    const char* name;
    // Distinct days (episodes) a run measures, each played once per pass;
    // a pass is about 10 s of work on the reference host.
    std::size_t days;
    std::function<episode(const cost::cost_table&, std::uint64_t, const episode_options&)>
        run;
    std::function<void(const cost::cost_table&, std::uint64_t, const episode_options&)>
        construct;  // what setup_s times after the campaign
};

template <typename Episode>
workload_def make_def(const char* name, std::size_t days) {
    return {name, days,
            [](const cost::cost_table& c, std::uint64_t s, const episode_options& o) {
                Episode e(c, s, o);
                return e.run();
            },
            [](const cost::cost_table& c, std::uint64_t s, const episode_options& o) {
                Episode e(c, s, o);
            }};
}

const std::vector<workload_def>& defs() {
    static const std::vector<workload_def> table = {
        make_def<flat_day_episode>("flat_day", 5),
        make_def<chaos_episode>("chaos_soak", 8),
    };
    return table;
}

[[nodiscard]] double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Returns freed heap pages to the system before each play, so the peak RSS
// is one play's footprint rather than fragmentation left by earlier plays.
void trim_heap() { malloc_trim(0); }

[[nodiscard]] double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

[[nodiscard]] std::uint64_t episode_seed(std::uint64_t seed, std::size_t k) {
    return seed + 1000003ULL * k;
}

// Per-layer catalog: every name is printed for every workload (0 where a
// workload does not load that layer or the layer cannot be replayed).
const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
    static const std::vector<std::pair<const char*, const char*>> names = {
        {"core.decide.calls", "count"},       {"core.decide.invoked", "count"},
        {"core.decide.busy_ms", "ms"},        {"sim.loop.busy_ms", "ms"},
        {"search.find.busy_ms", "ms"},        {"search.self_ms", "ms"},
        {"search.expansions", "count"},       {"search.generated", "count"},
        {"draft.busy_ms", "ms"},              {"draft.children", "count"},
        {"draft.ns_per_child", "ns"},         {"cluster.is_candidate_ns", "ns"},
        {"ideal.calls", "count"},             {"ideal.busy_ms", "ms"},
        {"ideal.isolated_sizings", "count"},  {"ideal.repeat_share", "ratio"},
        {"steady.busy_ms", "ms"},             {"steady.configs", "count"},
        {"eval.memo_hit_rate", "ratio"},      {"eval.app_cache_hit_rate", "ratio"},
        {"eval.app_solves", "count"},         {"lqn.solve_us", "us"},
        {"coord.pod_steps", "count"},         {"coord.migrations", "count"},
        {"journal.events", "count"},          {"journal.bytes", "bytes"},
        {"journal.record_ms", "ms"},          {"snapshot.checkpoints", "count"},
        {"snapshot.bytes", "bytes"},          {"snapshot.encode_us", "us"},
        {"snapshot.decode_us", "us"},         {"restart.ms", "ms"},
        {"restart.replayed", "count"},        {"lookahead.decisions", "count"},
        {"lookahead.preprovisions", "count"}, {"ladder.greedy_decisions", "count"},
        {"reconcile.repairs", "count"},       {"reconcile.fault_replans", "count"},
        {"trace.overhead", "ratio"},          {"replay.plan_match", "ratio"},
        {"replay.searches", "count"},
    };
    return names;
}

// Adds an episode's decisions and failed checks to the run's result.
void account(run_report& rep, const episode& ep, const std::string& label) {
    rep.attempted += ep.invoked;
    rep.failed += ep.failed;
    for (const auto& p : ep.problems) rep.problems.push_back(label + ": " + p);
    if (ep.invariant_failures > 0) {
        rep.problems.push_back(label + ": " + std::to_string(ep.invariant_failures) +
                               " non-invoked intervals failed a check");
    }
}

// setup_s: the cost campaign, trace and scenario generation and strategy
// construction, timed once.
[[nodiscard]] double time_setup(const workload_def& def, const run_config& cfg,
                                cost::cost_table& costs) {
    const std::int64_t t0 = now_ns();
    costs = measured_costs();
    def.construct(costs, cfg.seed, {.short_mode = cfg.short_mode});
    return static_cast<double>(now_ns() - t0) / 1e9;
}

// A run measures a fixed set of `days` distinct days, each from its own seed,
// and plays the whole set again and again, one pass after another, until
// --seconds have passed and at least three passes are done. Every play of a
// day must repeat its first play bit for bit. Each invoked decision's time is
// the fastest of its plays, and each day's loop time likewise: interference on
// a shared host only ever adds time, and the host's speed steps by a third or
// more for tens of seconds at a time, so the fastest of plays spread across
// the run is what repeats from run to run. The deterministic figures (utility,
// modeled delay) come from the first pass, so they depend on the seed alone.
// Set-up is timed three times before each pass and reported as the median, so
// it too is sampled across the run.
run_report run_untraced(const workload_def& def, const run_config& cfg,
                        cost::cost_table& costs) {
    constexpr double time_cap_s = 120.0;  // a run must end within 180 s
    constexpr int setups_per_pass = 3;
    run_report rep;
    const std::size_t days = cfg.short_mode ? 1 : def.days;
    const std::size_t min_passes = cfg.short_mode ? 1 : 3;
    const double seconds = cfg.short_mode ? 0.0 : cfg.seconds;
    const std::int64_t start = now_ns();
    const auto elapsed_s = [&] { return static_cast<double>(now_ns() - start) / 1e9; };

    struct day {
        episode first;                 // the first play, without its timings
        std::vector<double> decide_ms;  // per invoked decision, fastest play
        std::int64_t loop_ns = 0;       // fastest play
        std::string plays_s;            // every play's loop time, for the notes
    };
    std::vector<day> set(days);
    std::vector<double> setup;
    std::size_t passes = 0;  // passes begun; the current one while playing
    for (bool more = true; more; ++passes) {
        for (int r = 0; r < setups_per_pass; ++r) setup.push_back(time_setup(def, cfg, costs));
        for (std::size_t k = 0; k < days && more; ++k) {
            const auto seed = episode_seed(cfg.seed, k);
            trim_heap();
            auto ep = def.run(costs, seed, {.short_mode = cfg.short_mode});
            account(rep, ep, "day " + std::to_string(k) + " pass " + std::to_string(passes));
            auto& d = set[k];
            if (passes > 0) d.plays_s += ",";
            d.plays_s += std::to_string(static_cast<double>(ep.loop_ns) / 1e9);
            if (passes == 0) {
                d.decide_ms = std::move(ep.decide_ms);
                d.loop_ns = ep.loop_ns;
                d.first = std::move(ep);
            } else if (ep.fingerprint != d.first.fingerprint ||
                       bits(ep.utility) != bits(d.first.utility) ||
                       ep.decide_ms.size() != d.decide_ms.size()) {
                rep.problems.push_back("day " + std::to_string(k) + ": pass " +
                                       std::to_string(passes) +
                                       " diverged from the first play");
            } else {
                for (std::size_t i = 0; i < d.decide_ms.size(); ++i) {
                    d.decide_ms[i] = std::min(d.decide_ms[i], ep.decide_ms[i]);
                }
                d.loop_ns = std::min(d.loop_ns, ep.loop_ns);
            }
            const std::size_t full_passes = passes + (k + 1 == days ? 1 : 0);
            more = !((full_passes >= min_passes && elapsed_s() >= seconds) ||
                     (full_passes >= 1 && elapsed_s() >= time_cap_s));
        }
    }

    std::vector<double> decide_ms;
    std::int64_t intervals = 0, loop_ns = 0, invoked = 0;
    double modeled = 0.0, utility = 0.0;
    fnv1a run_print;
    for (std::size_t k = 0; k < days; ++k) {
        const auto& d = set[k];
        decide_ms.insert(decide_ms.end(), d.decide_ms.begin(), d.decide_ms.end());
        intervals += d.first.intervals;
        loop_ns += d.loop_ns;
        invoked += d.first.invoked;
        modeled += d.first.modeled_s;
        utility += d.first.utility;
        run_print.u64(d.first.fingerprint);
        run_print.u64(bits(d.first.utility));
        rep.notes.push_back("day " + std::to_string(k) +
                            " seed=" + std::to_string(episode_seed(cfg.seed, k)) +
                            " intervals=" + std::to_string(d.first.intervals) +
                            " decisions=" + std::to_string(d.first.invoked) +
                            " fingerprint=" + hex(d.first.fingerprint) +
                            " utility_bits=" + hex(bits(d.first.utility)) +
                            " loop_s=" + d.plays_s);
    }
    rep.notes.push_back("days=" + std::to_string(days) + " passes=" + std::to_string(passes) +
                        " intervals=" + std::to_string(intervals) +
                        " decisions=" + std::to_string(invoked) +
                        " decisions_checked=" + std::to_string(rep.attempted) +
                        " decisions_failed=" + std::to_string(rep.failed) +
                        " fingerprint=" + hex(run_print.h));
    rep.metrics = {
        {"setup_s", percentile(setup, 0.5), "s"},
        {"decide_ms_p50", percentile(decide_ms, 0.50), "ms"},
        {"decide_ms_p90", percentile(decide_ms, 0.90), "ms"},
        {"intervals_per_s", ratio(static_cast<double>(intervals),
                                  static_cast<double>(loop_ns) / 1e9), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"utility_usd", utility / static_cast<double>(days), "USD"},
        {"modeled_decide_s", ratio(modeled, static_cast<double>(invoked)), "s"},
    };
    if (!cfg.short_mode && decide_ms.size() < 100) {
        rep.problems.push_back("fewer than 100 invoked decisions (" +
                               std::to_string(decide_ms.size()) + ")");
    }
    return rep;
}

run_report run_traced(const workload_def& def, const run_config& cfg,
                      const cost::cost_table& costs) {
    run_report rep;
    const std::uint64_t s = episode_seed(cfg.seed, 0);
    const std::string name = def.name;

    // Two untraced plays before the traced one: the first warms the process
    // up and is the determinism reference, the second is the overhead
    // baseline. Both run before the replay, whose allocations would
    // otherwise slow whatever comes after it.
    const auto plain = def.run(costs, s, {.short_mode = cfg.short_mode});
    account(rep, plain, "untraced");
    trim_heap();
    const auto baseline = def.run(costs, s, {.short_mode = cfg.short_mode});
    account(rep, baseline, "untraced again");
    if (baseline.fingerprint != plain.fingerprint ||
        bits(baseline.utility) != bits(plain.utility)) {
        rep.problems.push_back("two untraced runs of one seed diverged");
    }

    tracer spans;
    layer_map l;
    episode traced;
    trim_heap();
    if (name == "flat_day") {
        // The replay needs the traced episode's controller, so it runs here.
        flat_day_episode e(costs, s, {.traced = true, .short_mode = cfg.short_mode,
                                      .spans = &spans});
        traced = e.run();
        l = traced.layers;
        replay_flat(e, costs, traced.captures, spans, l, rep.problems);
    } else {
        traced = def.run(costs, s,
                         {.traced = true, .short_mode = cfg.short_mode, .spans = &spans});
        l = traced.layers;
        rep.notes.push_back(
            "replay: not replayable — pod searches run on per-pod views under "
            "per-interval budgets the journal does not record; search, draft, "
            "ideal, steady, lqn and candidate timings are reported as 0, counts "
            "come from accessors, the metrics registry and the journal");
    }
    account(rep, traced, "traced");
    if (traced.fingerprint != plain.fingerprint || bits(traced.utility) != bits(plain.utility)) {
        rep.problems.push_back("traced run diverged from untraced: fingerprint " +
                               hex(traced.fingerprint) + " vs " + hex(plain.fingerprint) +
                               ", utility_bits " + hex(bits(traced.utility)) + " vs " +
                               hex(bits(plain.utility)));
    }
    rep.notes.push_back("fingerprint=" + hex(plain.fingerprint) +
                        " utility_bits=" + hex(bits(plain.utility)) + " (traced " +
                        hex(traced.fingerprint) + " " + hex(bits(traced.utility)) + ")");

    const auto t = spans.aggregate();
    const auto busy_ms = [&](const char* n) {
        const auto it = t.find(n);
        return it == t.end() ? 0.0 : static_cast<double>(it->second.busy_ns) / 1e6;
    };
    l["core.decide.calls"] = static_cast<double>(traced.calls);
    l["core.decide.invoked"] = static_cast<double>(traced.invoked);
    l["core.decide.busy_ms"] = busy_ms("core.decide");
    l["sim.loop.busy_ms"] = static_cast<double>(baseline.loop_ns - baseline.decide_ns) / 1e6;
    l["search.expansions"] = static_cast<double>(traced.expansions);
    l["search.generated"] = static_cast<double>(traced.generated);
    l["eval.memo_hit_rate"] =
        ratio(l["eval.memo_hits"], l["eval.memo_hits"] + l["eval.memo_misses"]);
    l["eval.app_cache_hit_rate"] = ratio(
        l["eval.app_cache_hits"], l["eval.app_cache_hits"] + l["eval.app_cache_misses"]);
    l["trace.overhead"] =
        ratio(static_cast<double>(traced.loop_ns), static_cast<double>(baseline.loop_ns)) - 1.0;

    for (const auto& [n, unit] : layer_catalog()) {
        rep.metrics.push_back({n, l.count(n) != 0 ? l.at(n) : 0.0, unit});
    }
    rep.notes.push_back("intervals=" + std::to_string(traced.intervals) +
                        " decisions=" + std::to_string(traced.invoked) +
                        " decisions_failed=" + std::to_string(traced.failed) +
                        " spans=" + std::to_string(spans.spans().size()));

    if (cfg.short_mode) {
        // A workload that stops exercising its layer is a broken benchmark.
        const auto require = [&](const char* metric, bool ok) {
            if (!ok) rep.problems.push_back(name + ": " + metric + " no longer exercised");
        };
        if (name == "flat_day") {
            require("replay.plan_match", l["replay.searches"] > 0 && l["replay.plan_match"] == 1.0);
        } else {
            require("journal.events", l["journal.events"] > 0);
            require("lookahead.decisions", l["lookahead.decisions"] > 0);
            require("snapshot.checkpoints", l["snapshot.checkpoints"] > 0);
            require("restart.replayed", l["restart.replayed"] > 0);
        }
    }
    if (!cfg.spans_path.empty()) spans.write_jsonl(cfg.spans_path);
    return rep;
}

}  // namespace

// ---- checks ----------------------------------------------------------------

bool check_plan(const cluster::cluster_model& model, const cluster::configuration& from,
                const std::vector<cluster::action>& actions,
                std::vector<std::string>& problems) {
    cluster::configuration at = from;
    for (std::size_t i = 0; i < actions.size(); ++i) {
        std::string why;
        if (!cluster::applicable(model, at, actions[i], &why)) {
            problems.push_back("action " + std::to_string(i) + " (" +
                               cluster::to_string(model, actions[i]) +
                               ") does not apply: " + why);
            return false;
        }
        at = cluster::apply(model, at, actions[i]);
    }
    return true;
}

bool check_budgets(const std::vector<double>& budgets, double total,
                   std::vector<std::string>& problems) {
    std::int64_t sum = 0;
    for (const double b : budgets) sum += milliwatts(b);
    if (sum != milliwatts(total)) {
        problems.push_back("pod budgets sum to " + std::to_string(sum) + " mW, cluster budget " +
                           std::to_string(milliwatts(total)) + " mW");
        return false;
    }
    return true;
}

bool check_partition(const std::vector<std::vector<std::size_t>>& pod_apps,
                     const std::vector<std::size_t>& strays, std::size_t app_count,
                     std::vector<std::string>& problems) {
    std::vector<std::size_t> owned(strays);
    for (const auto& apps : pod_apps) owned.insert(owned.end(), apps.begin(), apps.end());
    std::sort(owned.begin(), owned.end());
    bool ok = owned.size() == app_count;
    for (std::size_t i = 0; ok && i < owned.size(); ++i) ok = owned[i] == i;
    if (!ok) {
        problems.push_back("pods plus strays do not partition the " +
                           std::to_string(app_count) + " apps");
    }
    return ok;
}

bool check_journal(const std::string& text, std::int64_t events,
                   std::vector<std::string>& problems) {
    std::istringstream in(text);
    try {
        const auto j = obs::read_journal(in);
        if (j.torn_lines != 0 || static_cast<std::int64_t>(j.lines.size()) != events) {
            problems.push_back("journal re-read: " + std::to_string(j.lines.size()) +
                               " lines (" + std::to_string(j.torn_lines) + " torn), " +
                               std::to_string(events) + " events recorded");
            return false;
        }
    } catch (const std::exception& e) {
        problems.push_back(std::string("journal re-read failed: ") + e.what());
        return false;
    }
    return true;
}

bool check_checkpoint(const std::string& checkpoint, std::vector<std::string>& problems) {
    if (checkpoint.empty()) {
        problems.push_back("no checkpoint was taken");
        return false;
    }
    try {
        if (core::to_json(core::snapshot_from_json(checkpoint)) != checkpoint) {
            problems.push_back("last checkpoint does not round-trip exactly");
            return false;
        }
    } catch (const std::exception& e) {
        problems.push_back(std::string("last checkpoint does not decode: ") + e.what());
        return false;
    }
    return true;
}

// ---- entry -------------------------------------------------------------------

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto& d : defs()) out.emplace_back(d.name);
        return out;
    }();
    return names;
}

run_report run_workload(const run_config& cfg) {
    const auto it = std::find_if(defs().begin(), defs().end(),
                                 [&](const workload_def& d) { return cfg.workload == d.name; });
    MISTRAL_CHECK_MSG(it != defs().end(), "unknown workload " << cfg.workload);

    cost::cost_table costs = measured_costs();
    auto rep = cfg.trace ? run_traced(*it, cfg, costs) : run_untraced(*it, cfg, costs);
    rep.correct = rep.problems.empty() && rep.failed == 0;
    return rep;
}

}  // namespace perfbench
