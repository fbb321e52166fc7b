// The identity-lens proof: a single-pod global_coordinator must be
// *byte-identical* to the flat mistral_strategy — same invocations, same
// actions, same modeled delays, same accrued utility. This is what licenses
// "the two-level scheme is a special case of pod_controller +
// global_coordinator": the sharding machinery costs nothing when there is
// one shard.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "workload/generators.h"

namespace mistral::core {
namespace {

scenario small_scenario() {
    scenario_options opts;
    opts.host_count = 4;
    opts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 1.5 * 3600.0;
    gen.seed = 7;
    auto w0 = wl::world_cup_trace(gen, 0).scaled_to_range(0.0, 90.0);
    auto w1 = wl::world_cup_trace(gen, 1).scaled_to_range(0.0, 90.0);
    opts.traces = {w0.renamed("A"), w1.renamed("B")};
    return make_rubis_scenario(opts);
}

TEST(PodEquivalence, SinglePodMatchesFlatControllerSingleThread) {
    const auto scn = small_scenario();
    const auto costs = cost::cost_table::paper_defaults();

    global_coordinator pods(scn.model, costs, uniform_partition(scn.model, 1));
    mistral_strategy flat(scn.model, costs);

    const auto rp = run_scenario(scn, pods);
    const auto rf = run_scenario(scn, flat);

    // Exact floating-point equality, not tolerances: the identity lens hands
    // the flat controller's own inputs through untouched, so every derived
    // number must match to the last bit.
    EXPECT_EQ(rp.cumulative_utility, rf.cumulative_utility);
    EXPECT_EQ(rp.mean_power, rf.mean_power);
    EXPECT_EQ(rp.invocations, rf.invocations);
    EXPECT_EQ(rp.total_actions, rf.total_actions);
    EXPECT_EQ(rp.search_duration.mean(), rf.search_duration.mean());
    EXPECT_EQ(rp.search_duration.max(), rf.search_duration.max());
    EXPECT_EQ(rp.violation_fraction, rf.violation_fraction);
}

// The per-decision trace, compared action-for-action: stronger than the
// aggregate run comparison because it catches compensating differences.
TEST(PodEquivalence, DecisionTraceIsIdenticalStepByStep) {
    const auto scn = small_scenario();
    const auto costs = cost::cost_table::paper_defaults();
    global_coordinator pods(scn.model, costs,
                            uniform_partition(scn.model, 1));
    mistral_strategy flat(scn.model, costs);

    auto cfg_p = scn.initial;
    auto cfg_f = scn.initial;
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0, 85.0, 30.0, 12.0}) {
        const auto op = pods.decide({t, {rate, rate * 0.8}, cfg_p, 1.0});
        const auto of = flat.decide({t, {rate, rate * 0.8}, cfg_f, 1.0});
        ASSERT_EQ(op.invoked, of.invoked) << "t=" << t;
        ASSERT_EQ(op.actions, of.actions) << "t=" << t;
        EXPECT_EQ(op.decision_delay, of.decision_delay);
        EXPECT_EQ(op.decision_power_cost, of.decision_power_cost);
        EXPECT_EQ(op.stats.expansions, of.stats.expansions);
        EXPECT_EQ(op.stats.generated, of.stats.generated);
        for (const auto& a : op.actions) {
            cfg_p = apply(scn.model, cfg_p, a);
            cfg_f = apply(scn.model, cfg_f, a);
        }
        t += 120.0;
    }
}

// Pod threads (coordinator_options::parallel_pods) are the only threads the
// controller spawns. Stepping four pods concurrently must decide exactly as
// stepping them in pod-id order: same plans, same modeled delay bits, same
// redistributed budgets. Runs under the `sanitize` label, so the tsan job
// race-checks the pod threads.
TEST(PodEquivalence, ParallelPodsMatchSequentialPods) {
    scenario_options so;
    so.host_count = 16;
    so.app_count = 4;
    const auto scn = make_rubis_scenario(so);
    const auto costs = cost::cost_table::paper_defaults();
    const auto parts = uniform_partition(scn.model, 4);
    coordinator_options sequential_opts;  // no sink: nothing forces sequence
    sequential_opts.power_budget = 1600.0;
    coordinator_options parallel_opts = sequential_opts;
    parallel_opts.parallel_pods = true;
    global_coordinator sequential(scn.model, costs, parts, {}, sequential_opts);
    global_coordinator parallel(scn.model, costs, parts, {}, parallel_opts);

    auto cfg = scn.initial;
    std::size_t invoked = 0;
    for (int i = 0; i < 10; ++i) {
        const seconds t = i * 120.0;
        const std::vector<req_per_sec> rates(4, 40.0 + 15.0 * (i % 4));
        const auto os = sequential.decide({t, rates, cfg, 1.0});
        const auto op = parallel.decide({t, rates, cfg, 1.0});
        ASSERT_EQ(op.invoked, os.invoked) << "interval " << i;
        ASSERT_EQ(op.actions, os.actions) << "interval " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(op.decision_delay),
                  std::bit_cast<std::uint64_t>(os.decision_delay))
            << "interval " << i;
        ASSERT_EQ(parallel.budgets().size(), 4u);
        EXPECT_EQ(parallel.budgets(), sequential.budgets()) << "interval " << i;
        invoked += os.invoked ? 1 : 0;
        for (const auto& a : os.actions) cfg = apply(scn.model, cfg, a);
    }
    EXPECT_GE(invoked, 2u);
}

}  // namespace
}  // namespace mistral::core
