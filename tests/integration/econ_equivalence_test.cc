// Differential harness pinning the economics subsystem to the pre-econ
// controller.
//
// Two contracts from the econ design (DESIGN.md §15):
//
//  * flat identity — a controller bound to an all-default econ profile
//    (flat tariff at the paper's $0.01/W·interval, flat pricing, no carbon
//    price, no cap schedule) is byte-identical to the plain controller:
//    same decision trace, same modeled delays, same utility series to the
//    last bit, fault-injected and fault-free, and under the sharded
//    coordinator. Only the extra
//    "econ_decision" journal events may differ. This licenses everything
//    the econ layer adds: the flat path *is* the original arithmetic.
//
//  * tariff reactivity — a price-block change re-prices every layer through
//    the shared econ state, forces a replan (trigger "tariff"), journals a
//    tariff_change, and a power-cap schedule tracks into the searches'
//    terminal gate step by step.
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

// All-default econ profile: flat tariff at the paper's price, flat pricing.
econ_profile flat_profile() {
    econ_profile p;
    p.enabled = true;
    return p;
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
    gen.seed = 23;
    gen.noise = 0.02;
    opts.traces = {wl::flash_crowd_trace("a", 25.0, 85.0, 2400.0, 600.0,
                                         1200.0, gen),
                   wl::step_trace("b", 30.0, 55.0, 3000.0, gen)};
    opts.sensor_faults = sensors;
    opts.testbed.faults = testbed_faults;
    opts.sink = sink;
    return make_rubis_scenario(opts);
}

controller_options econ_options() {
    controller_options opts;
    opts.econ = flat_profile();
    return opts;
}

controller_options plain_options() { return {}; }

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

void expect_flat_econ_matches_plain(sim::sensor_fault_options sensors = {},
                                    sim::fault_options testbed_faults = {}) {
    const auto scn = moving_scenario(sensors, testbed_faults);
    const auto costs = cost::cost_table::paper_defaults();
    mistral_strategy econ(scn.model, costs, econ_options());
    mistral_strategy plain(scn.model, costs, plain_options());
    expect_identical_runs(run_scenario(scn, econ), run_scenario(scn, plain));
}

TEST(EconEquivalence, FlatEconMatchesPlainFaultFreeSingleThread) {
    expect_flat_econ_matches_plain();
}

TEST(EconEquivalence, FlatEconMatchesPlainUnderSensorFaults) {
    // Sensor corruption exercises the validator/ladder interplay on both
    // sides — the econ binding must not perturb the fail-safe machinery.
    expect_flat_econ_matches_plain(sim::sensor_fault_options::uniform(0.06));
}

TEST(EconEquivalence, FlatEconMatchesPlainUnderTestbedFaults) {
    // Aborting/straggling actions change the measured state both controllers
    // replan from; divergence here would mean the econ path leaks state.
    expect_flat_econ_matches_plain({}, sim::fault_options::uniform(0.2, 0.1));
}

// The per-decision trace compared action-for-action: stronger than the
// aggregate run comparison because it catches compensating differences.
TEST(EconEquivalence, FlatEconDecisionTraceIsIdenticalStepByStep) {
    const auto scn = moving_scenario();
    const auto costs = cost::cost_table::paper_defaults();
    mistral_strategy econ(scn.model, costs, econ_options());
    mistral_strategy plain(scn.model, costs, plain_options());

    auto cfg_e = scn.initial;
    auto cfg_p = scn.initial;
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0, 85.0, 30.0, 12.0, 70.0}) {
        const auto oe = econ.decide({t, {rate, rate * 0.8}, cfg_e, 1.0});
        const auto op = plain.decide({t, {rate, rate * 0.8}, cfg_p, 1.0});
        ASSERT_EQ(oe.invoked, op.invoked) << "t=" << t;
        ASSERT_EQ(oe.actions, op.actions) << "t=" << t;
        EXPECT_EQ(bits_of(oe.decision_delay), bits_of(op.decision_delay));
        EXPECT_EQ(bits_of(oe.decision_power_cost),
                  bits_of(op.decision_power_cost));
        EXPECT_EQ(oe.stats.expansions, op.stats.expansions);
        EXPECT_EQ(oe.stats.generated, op.stats.generated);
        EXPECT_EQ(oe.stats.eval_app_solves, op.stats.eval_app_solves);
        EXPECT_EQ(oe.stats.eval_app_cache_hits, op.stats.eval_app_cache_hits);
        for (const auto& a : oe.actions) {
            cfg_e = apply(scn.model, cfg_e, a);
            cfg_p = apply(scn.model, cfg_p, a);
        }
        t += 120.0;
    }
}

// Sharded coordinator: a single-pod coordinator whose builder binds the flat
// profile must still match the plain flat controller — the pod lens and the
// flat-econ identity compose.
TEST(EconEquivalence, FlatEconMatchesPlainUnderShardedCoordinator) {
    const auto scn = moving_scenario();
    const auto costs = cost::cost_table::paper_defaults();

    controller_builder builder;
    builder.econ(flat_profile());
    global_coordinator pods(scn.model, costs, uniform_partition(scn.model, 1),
                            builder);
    mistral_strategy plain(scn.model, costs, plain_options());

    expect_identical_runs(run_scenario(scn, pods), run_scenario(scn, plain));
}

// The measured-utility side of the flat identity: with the harness's own
// econ accounting on (flat profile), cumulative utility is bit-identical and
// the new $ / gCO2 decomposition is internally consistent.
TEST(EconEquivalence, FlatEconHarnessAccountingIsConsistent) {
    auto scn_plain = moving_scenario();
    auto scn_econ = scn_plain;
    scn_econ.options.econ = flat_profile();

    const auto costs = cost::cost_table::paper_defaults();
    mistral_strategy a(scn_plain.model, costs, plain_options());
    mistral_strategy b(scn_econ.model, costs, plain_options());
    const auto rp = run_scenario(scn_plain, a);
    const auto re = run_scenario(scn_econ, b);

    EXPECT_EQ(bits_of(rp.cumulative_utility), bits_of(re.cumulative_utility));
    EXPECT_EQ(rp.energy_dollars, 0.0);   // plain harness: no econ accounting
    EXPECT_GT(re.energy_dollars, 0.0);   // the cluster burned tariffed watts
    EXPECT_EQ(re.carbon_grams, 0.0);     // flat profile has zero intensity
    // revenue − energy − search cost = measured utility, up to summation
    // order (separate accumulators).
    EXPECT_NEAR(re.revenue_dollars - re.energy_dollars - re.total_search_cost,
                re.cumulative_utility, 1e-6);
}

// A moving tariff forces a replan on the block boundary even with perfectly
// steady workloads, and journals both the change and the econ context.
TEST(EconEquivalence, TariffChangeTriggersReplanAndJournals) {
    const auto scn = moving_scenario();
    const auto costs = cost::cost_table::paper_defaults();

    obs::memory_sink journal;
    controller_options opts;
    opts.sink = &journal;
    opts.econ.enabled = true;
    // Price triples at t=300 s; steady rates keep the workload bands quiet.
    opts.econ.tariff.price = econ::step_series({{0.0, 0.01}, {300.0, 0.03}});
    mistral_strategy strat(scn.model, costs, opts);

    auto cfg = scn.initial;
    std::vector<std::string> triggers;
    for (seconds t = 0.0; t < 600.0; t += 120.0) {
        const auto out = strat.decide({t, {40.0, 40.0}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = apply(scn.model, cfg, a);
    }
    for (const auto& e : journal.events()) {
        if (e.type == "decision") triggers.push_back(e.find("trigger")->text);
    }
    ASSERT_EQ(triggers.size(), 5u);
    EXPECT_EQ(triggers[0], "first");
    // t=360 is the first step on the expensive block.
    EXPECT_EQ(triggers[3], "tariff");

    ASSERT_EQ(journal.count("tariff_change"), 1u);
    for (const auto& e : journal.events()) {
        if (e.type != "tariff_change") continue;
        EXPECT_DOUBLE_EQ(e.find("price")->num, 0.03);
        EXPECT_DOUBLE_EQ(e.find("prev_price")->num, 0.01);
    }
    // Every invoked econ decision journals its pricing context.
    EXPECT_GE(journal.count("econ_decision"), 2u);
    EXPECT_DOUBLE_EQ(strat.controller().utility().econ_now().power_price, 0.03);
}

// A stepped power-cap schedule tracks into the searches' terminal gate:
// normal cap, emergency cap, back to normal.
TEST(EconEquivalence, PowerCapScheduleTracksTheSchedule) {
    const auto scn = moving_scenario();
    const auto costs = cost::cost_table::paper_defaults();

    controller_options opts;
    opts.econ.enabled = true;
    opts.econ.power_cap_schedule = wl::stepped_power_cap(2000.0, 700.0, 240.0, 240.0);
    mistral_strategy strat(scn.model, costs, opts);

    auto cfg = scn.initial;
    auto cap_at = [&](seconds t, req_per_sec rate) {
        const auto out = strat.decide({t, {rate, rate}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = apply(scn.model, cfg, a);
        return strat.controller().search().options().power_cap;
    };
    EXPECT_DOUBLE_EQ(cap_at(0.0, 40.0), 2000.0);
    EXPECT_DOUBLE_EQ(cap_at(120.0, 40.0), 2000.0);
    EXPECT_DOUBLE_EQ(cap_at(240.0, 45.0), 700.0);   // emergency window
    EXPECT_DOUBLE_EQ(cap_at(360.0, 45.0), 700.0);
    EXPECT_DOUBLE_EQ(cap_at(480.0, 50.0), 2000.0);  // recovered
}

}  // namespace
}  // namespace mistral::core
