// The identity-lens proof: a single-pod global_coordinator must be
// *byte-identical* to the flat mistral_strategy — same invocations, same
// actions, same modeled delays, same accrued utility. This is what licenses
// "the two-level scheme is a special case of pod_controller +
// global_coordinator": the sharding machinery costs nothing when there is
// one shard.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "obs/journal.h"
#include "obs/metrics.h"
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

// A journal observes the sharded coordinator without steering it: four
// pods under a budget decide the same plans, modeled delay bits and pod
// budgets with a journaling, metered sink as with none. Runs under the
// `sanitize` label, so the asan job memory-checks the journaled pod path.
TEST(PodEquivalence, JournalDoesNotPerturbShardedPods) {
    scenario_options so;
    so.host_count = 16;
    so.app_count = 4;
    const auto scn = make_rubis_scenario(so);
    const auto costs = cost::cost_table::paper_defaults();
    const auto parts = uniform_partition(scn.model, 4);
    coordinator_options opts;
    opts.power_budget = 1600.0;
    obs::metrics_registry registry;
    obs::memory_sink journal(&registry);
    controller_builder journaled_builder;
    journaled_builder.sink(&journal);
    global_coordinator plain(scn.model, costs, parts, {}, opts);
    global_coordinator journaled(scn.model, costs, parts, journaled_builder, opts);

    auto cfg = scn.initial;
    std::size_t invoked = 0;
    constexpr int intervals = 10;
    for (int i = 0; i < intervals; ++i) {
        const seconds t = i * 120.0;
        const std::vector<req_per_sec> rates(4, 40.0 + 15.0 * (i % 4));
        const auto op = plain.decide({t, rates, cfg, 1.0});
        const auto oj = journaled.decide({t, rates, cfg, 1.0});
        ASSERT_EQ(oj.invoked, op.invoked) << "interval " << i;
        ASSERT_EQ(oj.actions, op.actions) << "interval " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(oj.decision_delay),
                  std::bit_cast<std::uint64_t>(op.decision_delay))
            << "interval " << i;
        ASSERT_EQ(journaled.budgets().size(), 4u);
        EXPECT_EQ(journaled.budgets(), plain.budgets()) << "interval " << i;
        invoked += op.invoked ? 1 : 0;
        for (const auto& a : op.actions) cfg = apply(scn.model, cfg, a);
    }
    EXPECT_GE(invoked, 2u);

    // One pod_decision line per pod per interval, and the pods' decision
    // counters agree with the invoked ones among them.
    ASSERT_EQ(journal.count("pod_decision"), std::size_t{4 * intervals});
    std::int64_t journaled_invocations = 0;
    for (const auto& e : journal.events()) {
        if (e.type == "pod_decision" && e.find("invoked")->boolean) {
            ++journaled_invocations;
        }
    }
    std::int64_t counted = 0;
    for (int pod = 0; pod < 4; ++pod) {
        counted += registry.counter_value("mistral_pod_" + std::to_string(pod) +
                                          "_decisions_total");
    }
    EXPECT_GT(counted, 0);
    EXPECT_EQ(counted, journaled_invocations);
}

}  // namespace
}  // namespace mistral::core
