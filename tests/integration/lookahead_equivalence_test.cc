// Differential harness pinning the receding-horizon lookahead planner to the
// single-interval controller.
//
// Two contracts from the lookahead design (DESIGN.md §14):
//
//  * K = 1 identity — a controller with lookahead enabled at horizon 1 is
//    byte-identical to the flat single-interval controller: same decision
//    trace, same modeled delays, same utility series to the last bit,
//    fault-injected and fault-free, and under the sharded coordinator. Only
//    the reported control mode and the
//    extra "lookahead" journal events may differ. This is the anchor that
//    licenses everything K > 1 does: the planner's first interval *is* the
//    flat controller's search, on the same search object and memo.
//
//  * K > 1 determinism — multi-interval planning is a pure function of the
//    scenario: repeated runs produce bit-identical results (no wall clocks,
//    no dependence on cache state).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "obs/journal.h"
#include "workload/generators.h"

namespace mistral::core {
namespace {

std::uint64_t bits_of(double v) {
    std::uint64_t b;
    static_assert(sizeof b == sizeof v);
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// A flash-crowd scenario whose workloads actually move, so band exits,
// forecasts, and adaptation all get exercised.
scenario moving_scenario(sim::sensor_fault_options sensors = {},
                         sim::fault_options testbed_faults = {},
                         obs::sink* sink = nullptr) {
    scenario_options opts;
    opts.host_count = 4;
    opts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 1.5 * 3600.0;
    gen.seed = 11;
    gen.noise = 0.02;
    opts.traces = {wl::flash_crowd_trace("a", 25.0, 85.0, 2400.0, 600.0,
                                         1200.0, gen),
                   wl::step_trace("b", 30.0, 55.0, 3000.0, gen)};
    opts.sensor_faults = sensors;
    opts.testbed.faults = testbed_faults;
    opts.sink = sink;
    return make_rubis_scenario(opts);
}

controller_options with_lookahead(int horizon) {
    controller_options opts;
    opts.lookahead.enabled = true;
    opts.lookahead.horizon = horizon;
    return opts;
}

controller_options flat_options() { return {}; }

void expect_identical_runs(const run_result& a, const run_result& b) {
    EXPECT_EQ(bits_of(a.cumulative_utility), bits_of(b.cumulative_utility));
    EXPECT_EQ(bits_of(a.mean_power), bits_of(b.mean_power));
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.total_actions, b.total_actions);
    EXPECT_EQ(a.total_failed_actions, b.total_failed_actions);
    EXPECT_EQ(bits_of(a.search_duration.mean()),
              bits_of(b.search_duration.mean()));
    EXPECT_EQ(bits_of(a.search_duration.max()),
              bits_of(b.search_duration.max()));
    EXPECT_EQ(a.violation_fraction, b.violation_fraction);
    const auto* ua = a.series.find("utility");
    const auto* ub = b.series.find("utility");
    ASSERT_NE(ua, nullptr);
    ASSERT_NE(ub, nullptr);
    ASSERT_EQ(ua->size(), ub->size());
    for (std::size_t i = 0; i < ua->size(); ++i) {
        ASSERT_EQ(bits_of(ua->samples()[i].value),
                  bits_of(ub->samples()[i].value))
            << "interval " << i;
    }
}

void expect_k1_matches_flat(sim::sensor_fault_options sensors = {},
                            sim::fault_options testbed_faults = {}) {
    const auto scn = moving_scenario(sensors, testbed_faults);
    const auto costs = cost::cost_table::paper_defaults();
    mistral_strategy lookahead(scn.model, costs, with_lookahead(1));
    mistral_strategy flat(scn.model, costs, flat_options());
    expect_identical_runs(run_scenario(scn, lookahead),
                          run_scenario(scn, flat));
}

TEST(LookaheadEquivalence, K1MatchesFlatFaultFreeSingleThread) {
    expect_k1_matches_flat();
}

TEST(LookaheadEquivalence, K1MatchesFlatUnderSensorFaults) {
    // Sensor corruption exercises the validator/ladder interplay on both
    // sides — the lookahead rung must demote and recover exactly like full.
    expect_k1_matches_flat(sim::sensor_fault_options::uniform(0.06));
}

TEST(LookaheadEquivalence, K1MatchesFlatUnderTestbedFaults) {
    // Aborting/straggling actions change the measured state both controllers
    // replan from; divergence here would mean K=1 leaks planner state.
    expect_k1_matches_flat({}, sim::fault_options::uniform(0.2, 0.1));
}

// The per-decision trace compared action-for-action: stronger than the
// aggregate run comparison because it catches compensating differences.
// The control-mode label is intentionally excluded — it is the one
// observable allowed to differ (lookahead vs full).
TEST(LookaheadEquivalence, K1DecisionTraceIsIdenticalStepByStep) {
    const auto scn = moving_scenario();
    const auto costs = cost::cost_table::paper_defaults();
    mistral_strategy look(scn.model, costs, with_lookahead(1));
    mistral_strategy flat(scn.model, costs, flat_options());

    auto cfg_l = scn.initial;
    auto cfg_f = scn.initial;
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0, 85.0, 30.0, 12.0, 70.0}) {
        const auto ol = look.decide({t, {rate, rate * 0.8}, cfg_l, 1.0});
        const auto of = flat.decide({t, {rate, rate * 0.8}, cfg_f, 1.0});
        ASSERT_EQ(ol.invoked, of.invoked) << "t=" << t;
        ASSERT_EQ(ol.actions, of.actions) << "t=" << t;
        EXPECT_EQ(bits_of(ol.decision_delay), bits_of(of.decision_delay));
        EXPECT_EQ(bits_of(ol.decision_power_cost),
                  bits_of(of.decision_power_cost));
        EXPECT_EQ(ol.stats.expansions, of.stats.expansions);
        EXPECT_EQ(ol.stats.generated, of.stats.generated);
        EXPECT_EQ(ol.stats.eval_cache_hits, of.stats.eval_cache_hits);
        EXPECT_EQ(ol.stats.eval_cache_misses, of.stats.eval_cache_misses);
        for (const auto& a : ol.actions) {
            cfg_l = apply(scn.model, cfg_l, a);
            cfg_f = apply(scn.model, cfg_f, a);
        }
        t += 120.0;
    }
    // The planner ran every invoked decision, and at K=1 every one committed
    // as "reactive" — no pre-provisioning is possible with no future bands.
    EXPECT_GE(look.controller().lookahead().lookahead_decisions, 1);
    EXPECT_EQ(look.controller().lookahead().preprovision_commits, 0);
}

// Sharded coordinator: a single-pod coordinator with per-pod lookahead at
// K=1 must still match the flat single-interval controller — the pod lens
// and the planner identity compose.
TEST(LookaheadEquivalence, K1MatchesFlatUnderShardedCoordinator) {
    const auto scn = moving_scenario();
    const auto costs = cost::cost_table::paper_defaults();

    controller_builder builder;
    builder.lookahead(1);
    global_coordinator pods(scn.model, costs, uniform_partition(scn.model, 1),
                            builder);
    mistral_strategy flat(scn.model, costs, flat_options());

    expect_identical_runs(run_scenario(scn, pods), run_scenario(scn, flat));
}

// K > 1 has no flat twin, but it must be a pure function of the scenario:
// bit-identical across repeated runs.
TEST(LookaheadEquivalence, K3DeterministicAcrossRuns) {
    const auto scn = moving_scenario();
    const auto costs = cost::cost_table::paper_defaults();

    mistral_strategy first(scn.model, costs, with_lookahead(3));
    mistral_strategy again(scn.model, costs, with_lookahead(3));

    const auto ra = run_scenario(scn, first);
    const auto rb = run_scenario(scn, again);
    expect_identical_runs(ra, rb);
    EXPECT_GE(first.controller().lookahead().lookahead_decisions, 1);
}

// K > 1 journals its planning: every lookahead event carries the configured
// horizon and a commit reason, and fault-free the ladder stays on the
// lookahead rung.
TEST(LookaheadEquivalence, K3JournalsPlansAndHoldsTheTopRung) {
    obs::memory_sink journal;
    const auto scn = moving_scenario({}, {}, &journal);
    const auto costs = cost::cost_table::paper_defaults();
    controller_options opts = with_lookahead(3);
    opts.sink = &journal;
    mistral_strategy strat(scn.model, costs, opts);
    (void)run_scenario(scn, strat);

    EXPECT_EQ(strat.controller().mode(), control_mode::lookahead);
    ASSERT_GE(journal.count("lookahead"), 1u);
    for (const auto& e : journal.events()) {
        if (e.type != "lookahead") continue;
        ASSERT_NE(e.find("horizon"), nullptr);
        EXPECT_EQ(e.find("horizon")->integer, 3);
        ASSERT_NE(e.find("commit"), nullptr);
        const auto& reason = e.find("commit")->text;
        EXPECT_TRUE(reason == "reactive" || reason == "preprovision" ||
                    reason == "converged")
            << reason;
        ASSERT_NE(e.find("step_utilities"), nullptr);
        EXPECT_EQ(e.find("step_utilities")->numbers.size(), 3u);
    }
}

}  // namespace
}  // namespace mistral::core
