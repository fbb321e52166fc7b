// Microbenchmark: one adaptation-search invocation.
//
// Three modes:
//
//  * Default: a cluster-size sweep of full cold self-aware decisions,
//    written to BENCH_search.json. Per cell: measured wall-clock decision
//    latency (host_cpus recorded alongside), the per-app sub-solve cache hit
//    rate, the LQN sub-solves actually paid per decision, the steady
//    evaluations, and the per-app solves the Perf-Pwr ideal's isolated view
//    paid. A whole-configuration solve per evaluation would pay
//    evaluations × apps sub-solves, so lqn_solves against evaluations is the
//    hardware-independent measure of what delta evaluation saves.
//
//  * --smoke: the CI gate. Runs the 8-host/4-app cell and fails if the
//    decision utility deviates from the committed golden value or if the
//    decision pays more LQN sub-solves (kGoldenAppSolves), more steady
//    evaluations (kGoldenEvaluations) or more isolated per-app solves
//    (kGoldenIsolatedSolves) than its deterministic counts;
//    then the degraded-guard, pod, lookahead and
//    warm-restart gates — a single-pod coordinator must match the flat
//    controller bit-for-bit (which transitively pins the single-pod utility
//    to the golden value above), the 256-host/64-app sharded refinement must
//    stay under 1 s modeled, the K=3 flash-crowd cell must reproduce its
//    golden utility bits, invocations, actions and pre-provisions, and a
//    warm-restarted coordinator (checkpoint + decision-tail replay) must
//    decide bit-identically to an uninterrupted one. It also counts the
//    heap allocations of the golden 8-host/4-app decision (a counting global
//    operator new, armed around that one find()) and fails above
//    kMaxAllocations. Perf numbers are printed but never gated (CI hardware
//    varies).
//
//  * With any --benchmark* flag: the registered google-benchmark
//    microbenchmarks run instead (e.g. --benchmark_filter=search).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/search.h"
#include "core/snapshot.h"
#include "cost/table.h"

// Heap allocations made while `counting_allocations` is set (the smoke's
// allocation gate).
std::atomic<bool> counting_allocations{false};
std::atomic<std::size_t> allocations{0};

// Out of line, as are the deletes below, so GCC does not pair the malloc()
// and free() inside them across an inlined call.
__attribute__((noinline)) void* operator new(std::size_t size) {
    if (counting_allocations.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace {

using namespace mistral;

void bm_self_aware_search(benchmark::State& state) {
    const auto apps = static_cast<std::size_t>(state.range(0));
    auto scn = core::make_rubis_scenario(
        {.host_count = 2 * apps, .app_count = apps});
    const core::adaptation_search search(scn.model, core::utility_model{},
                                         cost::cost_table::paper_defaults(), {});
    std::vector<req_per_sec> rates(apps, 60.0);
    for (auto _ : state) {
        search.evaluator().reset_memo();  // cold cache: full decision cost
        core::model_clock_meter meter;
        benchmark::DoNotOptimize(
            search.find(scn.initial, rates, 600.0, 0.0, meter));
    }
}
BENCHMARK(bm_self_aware_search)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void bm_enumerate_actions(benchmark::State& state) {
    const auto apps = static_cast<std::size_t>(state.range(0));
    auto scn = core::make_rubis_scenario(
        {.host_count = 2 * apps, .app_count = apps});
    for (auto _ : state) {
        benchmark::DoNotOptimize(enumerate_actions(scn.model, scn.initial));
    }
}
BENCHMARK(bm_enumerate_actions)->Arg(2)->Arg(4);

struct sweep_cell {
    std::size_t hosts = 0;
    std::size_t apps = 0;
    double mean_ms = 0.0;  // measured wall clock
    double app_hit_rate = 0.0;
    std::size_t lqn_solves = 0;   // per-app sub-solves paid per decision
    std::size_t evaluations = 0;  // steady evaluations per decision
    std::size_t isolated_solves = 0;  // the ideal's per-app solves per decision
};

sweep_cell run_cell(std::size_t apps, int reps) {
    auto scn = core::make_rubis_scenario(
        {.host_count = 2 * apps, .app_count = apps});
    const core::adaptation_search search(scn.model, core::utility_model{},
                                         cost::cost_table::paper_defaults());
    std::vector<req_per_sec> rates(apps, 60.0);

    sweep_cell cell;
    cell.hosts = 2 * apps;
    cell.apps = apps;
    double total_ms = 0.0;
    for (int r = -1; r < reps; ++r) {  // rep −1 warms everything but the cache
        search.evaluator().reset_memo();  // clears the app cache and counters
        core::model_clock_meter meter;
        const auto t0 = std::chrono::steady_clock::now();
        const auto result = search.find(scn.initial, rates, 600.0, 0.0, meter);
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(result);
        if (r < 0) continue;
        total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
        const auto& es = search.evaluator().stats();
        cell.app_hit_rate = es.app_hit_rate();
        cell.lqn_solves = es.app_solves;
        cell.evaluations = es.cache_misses;
        cell.isolated_solves = es.isolated_solves;
    }
    cell.mean_ms = total_ms / reps;
    return cell;
}

// One pods×hosts cell: a sharded coordinator over `hosts` hosts in pods of
// `hosts / pods`, measuring the cold (first, full reconfiguration) and warm
// (steady refinement after a 12 req/s drift) decisions. The modeled latency
// is the meter's max-over-pods — pods decide concurrently in the model — and
// is hardware-independent; wall clock, with the pods stepped one after
// another on the calling thread, is recorded alongside.
struct pod_cell {
    std::size_t hosts = 0;
    std::size_t apps = 0;
    std::size_t pods = 0;
    std::size_t pod_hosts = 0;
    double cold_modeled_s = 0.0;
    double warm_modeled_s = 0.0;
    double cold_wall_ms = 0.0;
    double warm_wall_ms = 0.0;
    std::size_t warm_expansions = 0;
};

pod_cell run_pod_cell(std::size_t hosts, std::size_t pods) {
    const std::size_t apps = hosts / 4;
    auto scn = core::make_rubis_scenario(
        {.host_count = hosts, .app_count = apps});
    core::global_coordinator coord(scn.model,
                                   cost::cost_table::paper_defaults(),
                                   core::uniform_partition(scn.model, pods));

    pod_cell cell;
    cell.hosts = hosts;
    cell.apps = apps;
    cell.pods = pods;
    cell.pod_hosts = hosts / pods;

    auto cfg = scn.initial;
    const std::vector<req_per_sec> base_rates(apps, 60.0);
    auto t0 = std::chrono::steady_clock::now();
    const auto cold = coord.decide({0.0, base_rates, cfg, 1.0});
    auto t1 = std::chrono::steady_clock::now();
    cell.cold_modeled_s = cold.decision_delay;
    cell.cold_wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (const auto& a : cold.actions) cfg = cluster::apply(scn.model, cfg, a);

    // The recurring case a controller lives in: the cluster already adapted,
    // the workload drifts past the band, every pod refines.
    const std::vector<req_per_sec> drifted(apps, 72.0);
    t0 = std::chrono::steady_clock::now();
    const auto warm = coord.decide({120.0, drifted, cfg, 1.0});
    t1 = std::chrono::steady_clock::now();
    cell.warm_modeled_s = warm.decision_delay;
    cell.warm_wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    cell.warm_expansions = warm.stats.expansions;
    return cell;
}

// One planning-mode cell of the flash-crowd scenario (bench_util.h's
// lookahead_crowd_scenario): the reactive single-interval controller
// (horizon 0) or the lookahead planner at horizon K. Utility and the
// meter-modeled per-decision latency are deterministic, so the smoke gate
// can pin them hardware-independently.
struct lookahead_cell {
    int horizon = 0;  // 0 = reactive single-interval baseline
    std::size_t invocations = 0;
    std::size_t actions = 0;
    std::size_t preprovisions = 0;
    double utility = 0.0;
    double mean_decision_s = 0.0;
    double max_decision_s = 0.0;
    double wall_ms = 0.0;
};

lookahead_cell run_lookahead_cell(const core::scenario& scn, int horizon) {
    core::controller_options opts;
    if (horizon > 0) {
        opts.lookahead.enabled = true;
        opts.lookahead.horizon = horizon;
    }
    core::mistral_strategy s(scn.model, cost::cost_table::paper_defaults(),
                             opts);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = core::run_scenario(scn, s);
    const auto t1 = std::chrono::steady_clock::now();
    lookahead_cell cell;
    cell.horizon = horizon;
    cell.invocations = r.invocations;
    cell.actions = r.total_actions;
    cell.preprovisions = static_cast<std::size_t>(
        s.controller().lookahead().preprovision_commits);
    cell.utility = r.cumulative_utility;
    cell.mean_decision_s = r.search_duration.mean();
    cell.max_decision_s = r.search_duration.max();
    cell.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return cell;
}

std::vector<pod_cell> run_pod_sweep() {
    std::vector<pod_cell> cells;
    // Fixed 4-host pods while the cluster octuples (the scaling claim: the
    // modeled decision cost tracks pod size, not cluster size), plus the
    // pod-size axis at 256 hosts (what growing a pod costs).
    const std::size_t grid[][2] = {
        {32, 8}, {64, 16}, {128, 32}, {256, 64}, {256, 32}, {256, 16}};
    for (const auto& [hosts, pods] : grid) {
        cells.push_back(run_pod_cell(hosts, pods));
        const auto& c = cells.back();
        std::printf(
            "pods: hosts=%3zu apps=%2zu pods=%2zu (%2zu hosts/pod)  "
            "cold %8.3f s modeled / %8.1f ms wall   warm %7.3f s modeled / "
            "%7.1f ms wall\n",
            c.hosts, c.apps, c.pods, c.pod_hosts, c.cold_modeled_s,
            c.cold_wall_ms, c.warm_modeled_s, c.warm_wall_ms);
    }
    return cells;
}

int run_sweep(const char* path) {
    constexpr int kReps = 3;
    std::vector<sweep_cell> cells;
    for (const std::size_t apps : {2, 4}) {
        cells.push_back(run_cell(apps, kReps));
        const auto& c = cells.back();
        std::printf(
            "hosts=%zu apps=%zu  wall %8.2f ms  app_hit_rate=%.3f  "
            "lqn_solves=%zu  evaluations=%zu  isolated_solves=%zu\n",
            c.hosts, c.apps, c.mean_ms, c.app_hit_rate, c.lqn_solves,
            c.evaluations, c.isolated_solves);
    }

    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"self_aware_search_decision\",\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"reps\": %d,\n  \"cells\": [\n", kReps);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& c = cells[i];
        std::fprintf(f,
                     "    {\"hosts\": %zu, \"apps\": %zu, "
                     "\"mean_decision_ms\": %.3f, "
                     "\"app_cache_hit_rate\": %.4f, \"lqn_solves\": %zu, "
                     "\"evaluations\": %zu, \"isolated_solves\": %zu}%s\n",
                     c.hosts, c.apps, c.mean_ms, c.app_hit_rate, c.lqn_solves,
                     c.evaluations, c.isolated_solves,
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"pod_cells\": [\n");
    const auto pod_cells = run_pod_sweep();
    for (std::size_t i = 0; i < pod_cells.size(); ++i) {
        const auto& c = pod_cells[i];
        std::fprintf(f,
                     "    {\"hosts\": %zu, \"apps\": %zu, \"pods\": %zu, "
                     "\"pod_hosts\": %zu, \"cold_modeled_s\": %.3f, "
                     "\"warm_modeled_s\": %.3f, \"cold_wall_ms\": %.1f, "
                     "\"warm_wall_ms\": %.1f, \"warm_expansions\": %zu}%s\n",
                     c.hosts, c.apps, c.pods, c.pod_hosts, c.cold_modeled_s,
                     c.warm_modeled_s, c.cold_wall_ms, c.warm_wall_ms,
                     c.warm_expansions, i + 1 < pod_cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"lookahead_cells\": [\n");
    // Planning-mode axis on the flash-crowd scenario: reactive baseline
    // (horizon 0), the K=1 differential anchor (identical numbers by
    // construction), and the default K=3 planner. Utility and modeled
    // latency are deterministic; delta is relative to the horizon-0 row.
    const auto la_scn = bench::lookahead_crowd_scenario();
    std::vector<lookahead_cell> la_cells;
    for (const int k : {0, 1, 3}) {
        la_cells.push_back(run_lookahead_cell(la_scn, k));
        const auto& c = la_cells.back();
        std::printf(
            "lookahead: K=%d  utility %8.2f  preprovisions=%zu  "
            "decision %6.2f s mean / %6.2f s max modeled  %7.1f ms wall\n",
            c.horizon, c.utility, c.preprovisions, c.mean_decision_s,
            c.max_decision_s, c.wall_ms);
    }
    for (std::size_t i = 0; i < la_cells.size(); ++i) {
        const auto& c = la_cells[i];
        std::fprintf(f,
                     "    {\"horizon\": %d, \"invocations\": %zu, "
                     "\"actions\": %zu, \"preprovisions\": %zu, "
                     "\"utility\": %.3f, \"delta_vs_reactive\": %.3f, "
                     "\"mean_decision_s\": %.3f, \"max_decision_s\": %.3f, "
                     "\"wall_ms\": %.1f}%s\n",
                     c.horizon, c.invocations, c.actions, c.preprovisions,
                     c.utility, c.utility - la_cells[0].utility,
                     c.mean_decision_s, c.max_decision_s, c.wall_ms,
                     i + 1 < la_cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return 0;
}

// CI bench-smoke gate. Decision correctness is asserted bit-wise; timings
// are printed for the log but never gated.
int run_smoke() {
    // Golden expected utility of the 8-host / 4-app / 60 req/s self-aware
    // decision (deterministic). Update only when a PR deliberately changes
    // decision semantics.
    constexpr double kGoldenUtility = 20.293492001125777;
    constexpr double kTolerance = 1e-9;  // relative
    // The decision's LQN sub-solves (deterministic). More means the
    // sub-solve cache stopped serving a repeat; fewer is an improvement —
    // lower the bound with it.
    constexpr std::size_t kGoldenAppSolves = 122;
    // The decision's steady evaluations (deterministic): the popped and
    // seeded vertices and the candidate children the search keeps. More
    // means it valued children its pruning drops (1,079 when it did).
    constexpr std::size_t kGoldenEvaluations = 749;
    // The Perf-Pwr ideal's isolated per-app solves (deterministic): its
    // gradient re-solves only the app each candidate changed. A solve of
    // the whole sizing per candidate would pay app_count per isolated
    // evaluation (3,328 here).
    constexpr std::size_t kGoldenIsolatedSolves = 200;
    // Heap allocations of that one decision (deterministic for one standard
    // library): 4,677 with GCC 12's libstdc++, where rebuilding the ideal's
    // candidates, packer and solver tables and the search's action lists
    // per call used to make 45,858. The bound leaves 40 % for other standard
    // libraries; more means a per-call buffer came back.
    constexpr std::size_t kMaxAllocations = 6550;

    auto scn = core::make_rubis_scenario({.host_count = 8, .app_count = 4});
    const std::vector<req_per_sec> rates(4, 60.0);

    const core::adaptation_search search(scn.model, core::utility_model{},
                                         cost::cost_table::paper_defaults());
    core::model_clock_meter meter;
    const auto t0 = std::chrono::steady_clock::now();
    counting_allocations.store(true);
    const auto result = search.find(scn.initial, rates, 600.0, 0.0, meter);
    counting_allocations.store(false);
    const auto t1 = std::chrono::steady_clock::now();
    const std::size_t decision_allocations = allocations.load();
    const auto& es = search.evaluator().stats();
    // What a whole-configuration solve per evaluation would pay (DESIGN.md
    // §11), printed for the log.
    const std::size_t whole_solves = es.cache_misses * scn.model.app_count();
    std::printf("smoke: decision %8.2f ms  lqn_solves=%zu  evaluations=%zu  "
                "whole-config equivalent=%zu  isolated_solves=%zu  isolated "
                "sizings=%zu  eu=%.17g\n",
                std::chrono::duration<double, std::milli>(t1 - t0).count(),
                es.app_solves, es.cache_misses, whole_solves, es.isolated_solves,
                es.evaluations - es.cache_misses, result.expected_utility);

    int failures = 0;
    auto fail = [&](const char* what) {
        std::fprintf(stderr, "smoke FAILED: %s\n", what);
        ++failures;
    };
    const double deviation =
        std::abs(result.expected_utility - kGoldenUtility) /
        std::abs(kGoldenUtility);
    if (!(deviation <= kTolerance)) {
        std::fprintf(stderr, "smoke FAILED: utility %.17g deviates from golden "
                             "%.17g (rel %.3g > %.1g)\n",
                     result.expected_utility, kGoldenUtility, deviation,
                     kTolerance);
        ++failures;
    }
    if (es.app_solves > kGoldenAppSolves) {
        fail("the decision paid more LQN sub-solves than the golden count");
    }
    if (es.cache_misses > kGoldenEvaluations) {
        fail("the decision paid more steady evaluations than the golden count");
    }
    if (es.isolated_solves > kGoldenIsolatedSolves) {
        fail("the ideal paid more isolated per-app solves than the golden count");
    }
    std::printf("smoke: decision allocations=%zu (bound %zu)\n",
                decision_allocations, kMaxAllocations);
    if (decision_allocations > kMaxAllocations) {
        fail("the decision made more heap allocations than its bound");
    }

    // Degraded-guard overhead gate: on clean telemetry the degraded-mode
    // subsystem (validator, divergence guard, fallback ladder) must leave
    // decisions bit-identical and cost < 2 % in modeled decision latency —
    // the hardware-independent metric the sweep regresses against. Wall
    // clock is printed for the log but, as everywhere here, never gated.
    {
        core::controller_options guard_off;
        guard_off.degraded.enabled = false;
        guard_off.arma.divergence.enabled = false;
        core::mistral_controller guarded(scn.model,
                                         cost::cost_table::paper_defaults(), {});
        core::mistral_controller bare(scn.model,
                                      cost::cost_table::paper_defaults(),
                                      guard_off);
        double on_modeled = 0.0, off_modeled = 0.0;
        double on_wall = 0.0, off_wall = 0.0;
        bool identical = true;
        for (int i = 0; i < 20; ++i) {
            const seconds t = i * 120.0;
            const std::vector<req_per_sec> step_rates(
                4, 40.0 + 20.0 * static_cast<double>(i % 3));
            auto t0 = std::chrono::steady_clock::now();
            const auto da = guarded.step({t, step_rates, scn.initial, 1.0});
            auto t1 = std::chrono::steady_clock::now();
            const auto db = bare.step({t, step_rates, scn.initial, 1.0});
            auto t2 = std::chrono::steady_clock::now();
            on_wall += std::chrono::duration<double, std::milli>(t1 - t0).count();
            off_wall += std::chrono::duration<double, std::milli>(t2 - t1).count();
            on_modeled += da.stats.duration;
            off_modeled += db.stats.duration;
            identical = identical && da.invoked == db.invoked &&
                        da.actions == db.actions &&
                        da.expected_utility == db.expected_utility;
        }
        std::printf("smoke: guard=on  wall %8.2f ms  modeled %10.4f s\n",
                    on_wall, on_modeled);
        std::printf("smoke: guard=off wall %8.2f ms  modeled %10.4f s\n",
                    off_wall, off_modeled);
        if (!identical) {
            fail("degraded guard changed healthy-path decisions");
        }
        if (off_modeled > 0.0 && on_modeled > 1.02 * off_modeled) {
            fail("degraded guard adds >2% modeled decision latency on the "
                 "healthy path");
        }
    }
    // Pod gate 1: a single-pod coordinator is the flat controller, bit for
    // bit — same invocations, same plans, same modeled stats. Together with
    // the golden-utility gate above this pins the single-pod path's utility.
    {
        core::global_coordinator single(scn.model,
                                        cost::cost_table::paper_defaults(),
                                        core::uniform_partition(scn.model, 1));
        core::mistral_strategy flat(scn.model,
                                    cost::cost_table::paper_defaults());
        auto cfg = scn.initial;
        bool identical = true;
        for (int i = 0; i < 3; ++i) {
            const seconds t = i * 120.0;
            const std::vector<req_per_sec> step_rates(4, 60.0 + 12.0 * i);
            const auto a = single.decide({t, step_rates, cfg, 1.0});
            const auto b = flat.decide({t, step_rates, cfg, 1.0});
            identical = identical && a.invoked == b.invoked &&
                        a.actions == b.actions &&
                        a.decision_delay == b.decision_delay &&
                        a.stats.expansions == b.stats.expansions &&
                        a.stats.generated == b.stats.generated;
            for (const auto& act : a.actions) {
                cfg = cluster::apply(scn.model, cfg, act);
            }
        }
        if (!identical) {
            fail("single-pod coordinator diverged from the flat controller");
        } else {
            std::printf("smoke: single-pod == flat controller (3 decisions)\n");
        }
    }

    // Pod gate 2: the headline scale point — 256 hosts / 64 apps in 4-host
    // pods must decide in under a second of modeled latency, both the cold
    // full reconfiguration and the post-drift refinement. The modeled number
    // is deterministic (model-clock meter), so this gate is
    // hardware-independent.
    {
        const auto c = run_pod_cell(256, 64);
        std::printf(
            "smoke: 256 hosts / 64 apps / 64 pods  cold %0.3f s / warm "
            "%0.3f s modeled, %0.1f ms / %0.1f ms wall\n",
            c.cold_modeled_s, c.warm_modeled_s, c.cold_wall_ms, c.warm_wall_ms);
        if (!(c.cold_modeled_s < 1.0 && c.warm_modeled_s < 1.0)) {
            fail("256-host sharded decision exceeds 1 s modeled latency");
        }
    }

    // Lookahead gate 1: the K=1 differential anchor. An *enabled* lookahead
    // planner at horizon 1 must step bit-identically to the flat controller
    // — same invocations, plans, utilities, and modeled latencies. Together
    // with the golden-utility gate above this pins the K=1 path's utility.
    {
        core::controller_options la1;
        la1.lookahead.enabled = true;
        la1.lookahead.horizon = 1;
        core::mistral_controller planning(scn.model,
                                          cost::cost_table::paper_defaults(),
                                          la1);
        core::mistral_controller flat(scn.model,
                                      cost::cost_table::paper_defaults(), {});
        bool identical = true;
        for (int i = 0; i < 20; ++i) {
            const seconds t = i * 120.0;
            const std::vector<req_per_sec> step_rates(
                4, 40.0 + 20.0 * static_cast<double>(i % 3));
            const auto da = planning.step({t, step_rates, scn.initial, 1.0});
            const auto db = flat.step({t, step_rates, scn.initial, 1.0});
            identical = identical && da.invoked == db.invoked &&
                        da.actions == db.actions &&
                        da.expected_utility == db.expected_utility &&
                        da.stats.duration == db.stats.duration;
        }
        if (!identical) {
            fail("lookahead K=1 diverged from the flat controller");
        } else {
            std::printf("smoke: lookahead K=1 == flat controller (20 steps)\n");
        }
    }

    // Lookahead gate 2: the flash-crowd payoff. On the World-Cup scenario the
    // K=3 planner must not lose utility to the reactive controller, and its
    // mean modeled decision latency must stay within 4x reactive — the
    // planner's self-cost (peak + tail searches) is real decision delay, and
    // the screens in lookahead.cc exist to keep it near zero off the crowd.
    // Both numbers are deterministic (model-clock meter), so this gate is
    // hardware-independent. The K=3 cell is also pinned exactly — its
    // utility bits, invocations, actions and pre-provisions — since the
    // lookahead's discount, confidence floor, commit margin, rise threshold
    // and continuation budget reach no other gate but relative ones.
    {
        constexpr double kGoldenK3Utility = 88.137782106130558;
        constexpr std::size_t kGoldenK3Invocations = 27;
        constexpr std::size_t kGoldenK3Actions = 90;
        constexpr std::size_t kGoldenK3Preprovisions = 1;
        const auto la_scn = bench::lookahead_crowd_scenario();
        const auto reactive = run_lookahead_cell(la_scn, 0);
        const auto k3 = run_lookahead_cell(la_scn, 3);
        std::printf(
            "smoke: flash crowd  reactive %0.2f  K=3 %0.2f (delta %+0.2f, "
            "%zu preprovision)  decision %0.2f s vs %0.2f s mean modeled\n",
            reactive.utility, k3.utility, k3.utility - reactive.utility,
            k3.preprovisions, k3.mean_decision_s, reactive.mean_decision_s);
        std::printf("smoke: flash crowd K=3  utility %.17g  invocations=%zu  "
                    "actions=%zu  preprovisions=%zu\n",
                    k3.utility, k3.invocations, k3.actions, k3.preprovisions);
        if (k3.utility != kGoldenK3Utility ||
            k3.invocations != kGoldenK3Invocations ||
            k3.actions != kGoldenK3Actions ||
            k3.preprovisions != kGoldenK3Preprovisions) {
            fail("lookahead K=3 flash-crowd cell deviates from its golden "
                 "utility, invocations, actions or pre-provisions");
        }
        if (!(k3.utility >= reactive.utility)) {
            fail("lookahead K=3 lost utility to the reactive controller on "
                 "the flash crowd");
        }
        if (!(k3.mean_decision_s <= 4.0 * reactive.mean_decision_s)) {
            fail("lookahead K=3 mean modeled decision latency exceeds 4x "
                 "the single-interval controller");
        }
    }
    // Warm-restart gate: a coordinator torn down twice mid-run and rebuilt
    // from checkpoint + decision-tail replay (core/snapshot.h) must keep
    // deciding bit-identically to one that never restarted. Deterministic,
    // hardware-independent.
    {
        const auto costs = cost::cost_table::paper_defaults();
        core::global_coordinator steady(
            scn.model, costs, core::uniform_partition(scn.model, 2));
        core::restart_options ropts;
        ropts.checkpoint_every = 3;
        ropts.restart_at = {250.0, 700.0};
        core::restartable_coordinator restarted(
            [&] {
                return std::make_unique<core::global_coordinator>(
                    scn.model, costs, core::uniform_partition(scn.model, 2));
            },
            ropts);
        auto cfg_a = scn.initial;
        auto cfg_b = scn.initial;
        bool identical = true;
        for (int i = 0; i < 8; ++i) {
            const seconds t = i * 120.0;
            const std::vector<req_per_sec> step_rates(
                4, 50.0 + 15.0 * static_cast<double>(i % 4));
            const auto a = steady.decide({t, step_rates, cfg_a, 1.0});
            const auto b = restarted.decide({t, step_rates, cfg_b, 1.0});
            identical = identical && a.invoked == b.invoked &&
                        a.actions == b.actions &&
                        a.decision_delay == b.decision_delay &&
                        a.decision_power_cost == b.decision_power_cost;
            for (const auto& act : a.actions) {
                cfg_a = cluster::apply(scn.model, cfg_a, act);
            }
            for (const auto& act : b.actions) {
                cfg_b = cluster::apply(scn.model, cfg_b, act);
            }
        }
        if (!identical || restarted.restarts() != 2) {
            fail("warm-restarted coordinator diverged from the uninterrupted "
                 "run");
        } else {
            std::printf(
                "smoke: warm restart x%d == uninterrupted (8 decisions)\n",
                restarted.restarts());
        }
    }
    if (failures == 0) std::printf("smoke OK\n");
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--smoke") return run_smoke();
        if (arg.rfind("--benchmark", 0) == 0) {
            benchmark::Initialize(&argc, argv);
            benchmark::RunSpecifiedBenchmarks();
            return 0;
        }
    }
    return run_sweep(argc > 1 ? argv[1] : "BENCH_search.json");
}
