// Observability invariants over a full fault-injected run.
//
// Two properties make the obs subsystem trustworthy:
//
//  1. Attaching a sink must not perturb a single decision or measurement —
//     a run with a memory sink and metrics registry wired through every hook
//     is bit-identical to the null-sink run (the ISSUE's byte-identity
//     acceptance, proven at the strongest level: the numbers themselves).
//  2. The journal is the run's accounting, not a lossy log: interval records
//     sum to the final cumulative utility, decision records match the
//     controller's invocation count and wasted-adaptation ledger, search
//     profiles' per-depth attributions sum back to their own totals, and the
//     metrics registry agrees with the journal it was filled alongside.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "cost/table.h"
#include "obs/json.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace mistral {
namespace {

core::scenario faulty_scenario(obs::sink* sink) {
    wl::generator_options gen;
    gen.duration = 3000.0;
    gen.noise = 0.02;
    core::scenario_options opts;
    opts.host_count = 3;
    opts.app_count = 1;
    opts.traces = {wl::flash_crowd_trace("crowd", 15.0, 70.0,
                                         /*crowd_at=*/600.0, /*ramp=*/300.0,
                                         /*hold=*/900.0, gen)};
    opts.testbed.faults = sim::fault_options::uniform(/*fail=*/0.25,
                                                      /*straggle=*/0.2);
    opts.testbed.faults.host_crashes.push_back(
        {.at = 900.0, .host = 2, .recover_after = 600.0});
    opts.sink = sink;
    return core::make_rubis_scenario(opts);
}

struct instrumented_run {
    core::run_result result;
    core::reconcile_stats ledger;
};

instrumented_run run_with(obs::sink* sink) {
    auto scn = faulty_scenario(sink);
    core::controller_options copts;
    copts.sink = sink;
    core::mistral_strategy strat(scn.model, cost::cost_table::paper_defaults(),
                                 copts);
    instrumented_run out{core::run_scenario(scn, strat),
                         strat.controller().reconciliation()};
    return out;
}

bool bits_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Observability, AttachedSinkDoesNotPerturbTheRun) {
    const instrumented_run plain = run_with(nullptr);

    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    const instrumented_run observed = run_with(&sink);

    EXPECT_TRUE(bits_equal(plain.result.cumulative_utility,
                           observed.result.cumulative_utility));
    EXPECT_TRUE(bits_equal(plain.result.mean_power, observed.result.mean_power));
    EXPECT_EQ(plain.result.total_actions, observed.result.total_actions);
    EXPECT_EQ(plain.result.total_failed_actions,
              observed.result.total_failed_actions);
    EXPECT_EQ(plain.result.invocations, observed.result.invocations);
    EXPECT_TRUE(bits_equal(plain.result.total_wasted_seconds,
                           observed.result.total_wasted_seconds));
    EXPECT_EQ(plain.ledger.failed_actions, observed.ledger.failed_actions);
    EXPECT_EQ(plain.ledger.fault_replans, observed.ledger.fault_replans);
    EXPECT_EQ(plain.ledger.repairs, observed.ledger.repairs);

    // Every series, every sample, bit-for-bit.
    for (const auto& s : plain.result.series.all()) {
        const auto* o = observed.result.series.find(s.name());
        ASSERT_NE(o, nullptr) << s.name();
        ASSERT_EQ(s.size(), o->size()) << s.name();
        for (std::size_t i = 0; i < s.size(); ++i) {
            EXPECT_TRUE(bits_equal(s.samples()[i].value, o->samples()[i].value))
                << s.name() << "[" << i << "]";
        }
    }
    EXPECT_GT(sink.events().size(), 0u);
}

TEST(Observability, JournalReconcilesWithRunAccounting) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    const instrumented_run run = run_with(&sink);

    double utility_sum = 0.0;
    double last_cum = 0.0;
    std::size_t invoked = 0;
    std::size_t repairs = 0;
    double last_wasted_seconds = 0.0;
    double last_wasted_dollars = 0.0;
    std::int64_t journal_expansions = 0;
    for (const auto& e : sink.events()) {
        if (e.type == "interval") {
            utility_sum += e.find("utility")->num;
            last_cum = e.find("cum_utility")->num;
        } else if (e.type == "decision") {
            if (e.find("invoked")->boolean) ++invoked;
            if (e.find("repair")->boolean) ++repairs;
            last_wasted_seconds = e.find("wasted_seconds")->num;
            last_wasted_dollars = e.find("wasted_dollars")->num;
        } else if (e.type == "search") {
            journal_expansions += e.find("expansions")->integer;
        }
    }

    EXPECT_NEAR(utility_sum, run.result.cumulative_utility, 1e-9);
    EXPECT_NEAR(last_cum, run.result.cumulative_utility, 1e-9);
    EXPECT_EQ(invoked, run.result.invocations);
    EXPECT_NEAR(last_wasted_seconds, run.ledger.wasted_adaptation_time, 1e-9);
    EXPECT_NEAR(last_wasted_dollars, run.ledger.wasted_transient_cost, 1e-9);
    EXPECT_EQ(static_cast<std::int64_t>(repairs), run.ledger.repairs);
    // Repairs bypass the optimizer, so search profiles cover exactly the
    // non-repair invocations.
    EXPECT_EQ(sink.count("search"), run.result.invocations - repairs);
    // This schedule injects faults, and the journal must show them.
    EXPECT_GT(sink.count("action_fail"), 0u);
    EXPECT_EQ(sink.count("host_crash"), 1u);
    EXPECT_EQ(sink.count("host_recover"), 1u);

    // The metrics registry was filled alongside the journal; they agree.
    EXPECT_EQ(registry.counter_value("mistral_search_expansions_total"),
              journal_expansions);
    EXPECT_EQ(registry.counter_value("mistral_controller_decisions_total"),
              static_cast<std::int64_t>(run.result.invocations));
    EXPECT_EQ(registry.counter_value("mistral_controller_repairs_total"),
              static_cast<std::int64_t>(repairs));
    EXPECT_EQ(registry.counter_value("mistral_testbed_host_crashes_total"), 1);
    EXPECT_EQ(
        registry.counter_value("mistral_testbed_actions_failed_total"),
        static_cast<std::int64_t>(run.result.total_failed_actions));
    EXPECT_NEAR(registry.gauge_value("mistral_controller_wasted_adaptation_seconds"),
                run.ledger.wasted_adaptation_time, 1e-9);
}

TEST(Observability, SearchProfilesAreInternallyConsistent) {
    obs::memory_sink sink;
    (void)run_with(&sink);

    std::size_t searches = 0;
    for (const auto& e : sink.events()) {
        if (e.type != "search") continue;
        ++searches;
        const auto* depth_exp = e.find("depth_expansions");
        const auto* depth_time = e.find("depth_meter_time");
        ASSERT_NE(depth_exp, nullptr);
        ASSERT_NE(depth_time, nullptr);
        ASSERT_EQ(depth_exp->numbers.size(), depth_time->numbers.size());
        double expanded = 0.0;
        double attributed = 0.0;
        for (const double n : depth_exp->numbers) expanded += n;
        for (const double t : depth_time->numbers) attributed += t;
        // Per-depth expansion counts sum back to the profile's own total...
        EXPECT_EQ(expanded, static_cast<double>(e.find("expansions")->integer));
        // ...and under the deterministic model-clock meter every charged
        // second is attributed to some depth.
        EXPECT_NEAR(attributed, e.find("duration")->num, 1e-9);
        EXPECT_EQ(e.find("meter")->text, "model_clock");
    }
    EXPECT_GT(searches, 0u);
}

TEST(Observability, JournalLinesRoundTripAsStrings) {
    obs::memory_sink sink;
    (void)run_with(&sink);
    ASSERT_GT(sink.events().size(), 0u);
    for (const auto& e : sink.events()) {
        const std::string line = obs::to_json_line(e);
        EXPECT_EQ(obs::json::value::parse(line).dump(), line);
    }
}

}  // namespace
}  // namespace mistral
