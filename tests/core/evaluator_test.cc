#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "apps/rubis.h"
#include "cluster/action.h"
#include "cluster/translate.h"
#include "common/rng.h"
#include "core/search.h"
#include "core/search_meter.h"
#include "lqn/solver.h"

namespace mistral::core {
namespace {

struct fixture : ::testing::Test {
    cluster::cluster_model model = [] {
        std::vector<apps::application_spec> specs;
        specs.push_back(apps::rubis_browsing("R0"));
        specs.push_back(apps::rubis_browsing("R1"));
        return cluster::cluster_model(cluster::uniform_hosts(4), std::move(specs));
    }();

    cluster::configuration base(fraction cap = 0.4) const {
        cluster::configuration c(model.vm_count(), model.host_count());
        for (std::size_t h = 0; h < 4; ++h) {
            c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
        }
        for (std::size_t a = 0; a < 2; ++a) {
            const app_id app{static_cast<std::int32_t>(a)};
            for (std::size_t t = 0; t < 3; ++t) {
                c.deploy(model.tier_vms(app, t)[0],
                         host_id{static_cast<std::int32_t>(2 * a + t % 2)}, cap);
            }
        }
        return c;
    }
};

using EvaluatorTest = fixture;

// The whole-configuration reference the delta path replaces: one lqn::solve
// over every app at once, priced by the same power model.
struct whole_solve {
    std::vector<seconds> response_times;
    watts power = 0.0;
};

whole_solve solve_whole(const cluster::cluster_model& model,
                        const cluster::configuration& c,
                        const std::vector<req_per_sec>& rates) {
    const auto solved =
        lqn::solve(cluster::to_lqn(model, c, rates), model.host_count());
    whole_solve out;
    for (const auto& app : solved.apps) {
        out.response_times.push_back(app.mean_response_time);
    }
    out.power = cluster::predicted_power(model, c, solved.host_utilization);
    return out;
}

// ---- rate binding ----------------------------------------------------------

// Sub-solves are keyed on each rate's exact bit pattern: equal rates share
// every sub-solve, and any bit-level move re-keys the app it touches (the
// fixture's apps sit on disjoint hosts, so the other app still hits).
TEST_F(EvaluatorTest, BeginDecisionKeysSubSolvesOnExactRateBits) {
    serial_evaluator ev(model, utility_model{});
    ev.begin_decision({10.0, 20.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 2u);
    ev.begin_decision({10.0, 20.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 2u);
    ev.begin_decision({10.0 + 1e-12, 20.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 3u);
    EXPECT_EQ(ev.stats().app_cache_hits, 3u);
}

TEST_F(EvaluatorTest, OptionsAreValidated) {
    EXPECT_THROW(app_solve_cache(0), invariant_error);
}

TEST_F(EvaluatorTest, EvaluateRequiresBoundDecision) {
    serial_evaluator ev(model, utility_model{});
    EXPECT_THROW((void)ev.evaluate(base()), invariant_error);
}

// ---- batch semantics -------------------------------------------------------

// The batch carries a duplicate entry: it is evaluated again, in place, and
// comes back bit-identical to its sequential twin.
TEST_F(EvaluatorTest, BatchMatchesSequentialAndDedupes) {
    serial_evaluator batched(model, utility_model{});
    serial_evaluator sequential(model, utility_model{});
    batched.begin_decision({40.0, 40.0});
    sequential.begin_decision({40.0, 40.0});

    const std::vector<cluster::configuration> batch = {base(0.4), base(0.5),
                                                       base(0.4), base(0.6)};
    const auto b = batched.evaluate_batch(batch);
    ASSERT_EQ(b.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto s = sequential.evaluate(batch[i]);
        EXPECT_EQ(b[i].rate, s.rate) << i;
        EXPECT_EQ(b[i].power, s.power) << i;
        EXPECT_EQ(b[i].response_times, s.response_times) << i;
    }
    EXPECT_EQ(b[0].rate, b[2].rate);
    EXPECT_EQ(b[0].response_times, b[2].response_times);
    EXPECT_EQ(batched.stats().cache_misses, sequential.stats().cache_misses);
    EXPECT_EQ(batched.stats().app_solves, sequential.stats().app_solves);
    EXPECT_EQ(batched.parallelism(), 1u);
}

TEST_F(EvaluatorTest, IsolatedBatchMatchesSequential) {
    serial_evaluator batched(model, utility_model{});
    serial_evaluator sequential(model, utility_model{});
    batched.begin_decision({40.0, 40.0});
    sequential.begin_decision({40.0, 40.0});

    std::vector<app_sizing> sizings;
    for (const fraction cap : {0.5, 0.6}) {
        app_sizing s(2);
        for (auto& app : s) app.assign(3, {1, cap});
        sizings.push_back(std::move(s));
    }
    const auto one = sequential.evaluate_isolated(sizings[0]);
    const auto two = sequential.evaluate_isolated(sizings[1]);
    const auto batch = batched.evaluate_isolated_batch(sizings);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].perf_rate, one.perf_rate);
    EXPECT_EQ(batch[0].response_times, one.response_times);
    EXPECT_EQ(batch[1].perf_rate, two.perf_rate);
    EXPECT_EQ(batch[1].response_times, two.response_times);
    // Both forms price the same number of solves.
    EXPECT_EQ(batched.stats().evaluations, sequential.stats().evaluations);
}

// The search drafts an expansion's children through parallel_for.
TEST_F(EvaluatorTest, ParallelForRunsEveryIndexExactlyOnce) {
    serial_evaluator ev(model, utility_model{});
    for (const std::size_t count : {0u, 1u, 3u, 257u}) {
        std::vector<std::size_t> order;
        ev.parallel_for(count, [&](std::size_t i) { order.push_back(i); });
        ASSERT_EQ(order.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(order[i], i) << "count " << count;
        }
    }
}

TEST_F(EvaluatorTest, ParallelForPropagatesExceptions) {
    serial_evaluator ev(model, utility_model{});
    EXPECT_THROW(ev.parallel_for(64,
                                 [&](std::size_t i) {
                                     if (i == 13) throw std::runtime_error("boom");
                                 }),
                 std::runtime_error);
    // The evaluator stays usable after a throwing job.
    std::vector<int> touched(8, 0);
    ev.parallel_for(8, [&](std::size_t i) { ++touched[i]; });
    for (const int t : touched) EXPECT_EQ(t, 1);
}

// ---- delta evaluation ------------------------------------------------------

// Delta evaluation must be invisible in the numbers: response times, power
// and the steady rate built from them bit-match the whole-configuration solve.
TEST_F(EvaluatorTest, DeltaEvaluationIsBitIdenticalToFull) {
    const utility_model utility;
    const std::vector<req_per_sec> rates = {40.0, 40.0};
    serial_evaluator delta(model, utility);
    delta.begin_decision(rates);

    std::vector<cluster::configuration> configs = {base(0.3), base(0.4), base(0.6)};
    {
        // A neighbor differing in one app only — the reuse case.
        auto c = base(0.4);
        c.set_cap(model.tier_vms(app_id{0}, 0)[0], 0.5);
        configs.push_back(c);
        // And a migration within the same app.
        auto d = base(0.4);
        d.deploy(model.tier_vms(app_id{1}, 2)[0], host_id{3}, 0.4);
        configs.push_back(d);
    }
    for (const auto& c : configs) {
        const auto a = delta.evaluate(c);
        const auto w = solve_whole(model, c, rates);
        EXPECT_EQ(a.response_times, w.response_times);
        EXPECT_EQ(a.power, w.power);
        EXPECT_EQ(a.power_rate, utility.power_rate(w.power));
        EXPECT_EQ(a.rate, utility.steady_rate(rates, w.response_times,
                                              delta.targets(), w.power));
        EXPECT_EQ(a.candidate, is_candidate(model, c));
    }
    // Reuse actually happened: the one-app neighbors re-solved only the
    // touched app, where whole solves pay app_count per configuration.
    EXPECT_LT(delta.stats().app_solves,
              delta.stats().cache_misses * model.app_count());
    EXPECT_GT(delta.stats().app_cache_hits, 0u);
}

// The oracle property: along random action walks — powered-off hosts,
// failed hosts, parent revisits — and across rate vectors the evaluator keeps
// returning to, every evaluation bit-matches one whole-configuration
// lqn::solve, while the sub-solve cache pays for strictly fewer sub-solves.
TEST(EvaluatorOracle, DeltaEvaluationMatchesWholeSolveOnRandomWalks) {
    std::vector<apps::application_spec> specs;
    for (int a = 0; a < 3; ++a) {
        specs.push_back(apps::rubis_browsing("R" + std::to_string(a)));
    }
    const cluster::cluster_model model(cluster::uniform_hosts(6), std::move(specs));
    // Hosts 0–3 run the apps; 4 and 5 start dark.
    cluster::configuration start(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 4; ++h) start.set_host_power(host_id{h}, true);
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            start.deploy(model.tier_vms(app, t)[0],
                         host_id{static_cast<std::int32_t>((a + t) % 4)}, 0.4);
        }
    }
    ASSERT_TRUE(structurally_valid(model, start));

    const std::vector<std::vector<req_per_sec>> levels = {
        {40.0, 40.0, 40.0}, {55.0, 30.0, 70.0}, {20.0, 65.0, 45.0}};
    serial_evaluator ev(model, utility_model{});
    rng gen(20240611);
    std::size_t evaluated = 0, with_dark_host = 0, with_failed_host = 0;
    for (int walk = 0; walk < 4; ++walk) {
        auto c = start;
        for (int step = 0; step < 60; ++step) {
            const auto parent = c;
            const host_id h{static_cast<std::int32_t>(
                gen.uniform_index(model.host_count()))};
            if (gen.uniform() < 0.15 && c.vm_count_on(h) == 0) {
                // Fence an empty host, or heal a fenced one (it stays dark).
                c.set_host_failed(h, !c.host_failed(h));
            } else {
                const auto acts = enumerate_actions(model, c);
                ASSERT_FALSE(acts.empty());
                c = apply(model, c, acts[gen.uniform_index(acts.size())]);
            }
            ASSERT_TRUE(structurally_valid(model, c));
            with_failed_host += c.any_host_failed() ? 1 : 0;
            with_dark_host += c.active_host_count() < model.host_count() ? 1 : 0;

            // The workload cycles through the levels every five steps, so
            // later windows return to rates the app cache has seen.
            const auto& rates = levels[(walk * 60 + step) / 5 % levels.size()];
            ev.begin_decision(rates);
            // The child, then its parent again — an A*-style revisit whose
            // sub-solves the cache serves whenever the rates did not move in
            // between.
            for (const cluster::configuration& config : {c, parent}) {
                const auto got = ev.evaluate(config);
                const auto want = solve_whole(model, config, rates);
                ASSERT_EQ(got.response_times, want.response_times)
                    << "walk " << walk << " step " << step;
                ASSERT_EQ(got.power, want.power)
                    << "walk " << walk << " step " << step;
                ++evaluated;
            }
        }
    }
    EXPECT_GE(evaluated, 200u);
    EXPECT_GT(with_dark_host, 0u);
    EXPECT_GT(with_failed_host, 0u);
    const auto& st = ev.stats();
    EXPECT_GT(st.app_cache_hits, 0u);  // sub-solve reuse was exercised
    EXPECT_LT(st.app_solves, st.cache_misses * model.app_count());
}

// The fixture places the two apps on disjoint hosts, so perturbing one app
// leaves the other's resource signature untouched.
TEST_F(EvaluatorTest, NeighborEvaluationResolvesOnlyTouchedApps) {
    serial_evaluator ev(model, utility_model{});
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 2u);  // cold: both apps solved

    auto neighbor = base();
    neighbor.set_cap(model.tier_vms(app_id{0}, 0)[0], 0.5);
    (void)ev.evaluate(neighbor);
    EXPECT_EQ(ev.stats().app_solves, 3u);  // only app 0 re-solved
    EXPECT_EQ(ev.stats().app_cache_hits, 1u);
    EXPECT_EQ(ev.stats().app_cache_misses, 3u);
}

// Sub-solves persist across decisions: when the workload returns to a level
// seen before, the app cache still holds that level's sub-solves.
TEST_F(EvaluatorTest, AppCachePersistsAcrossDecisions) {
    serial_evaluator ev(model, utility_model{});
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    ev.begin_decision({50.0, 50.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 4u);

    ev.begin_decision({40.0, 40.0});  // back to the first level
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().cache_misses, 3u);  // three steady evaluations…
    EXPECT_EQ(ev.stats().app_solves, 4u);    // …but no new sub-solves
    EXPECT_EQ(ev.stats().app_cache_hits, 2u);

    ev.reset_memo();
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 2u);  // reset_memo cleared the app cache
}

TEST_F(EvaluatorTest, BeginDecisionRejectsNegativeAndNaNRates) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    serial_evaluator ev(model, utility_model{});
    EXPECT_THROW(ev.begin_decision({-1.0, 40.0}), invariant_error);
    EXPECT_THROW(ev.begin_decision({40.0, -0.5}), invariant_error);
    EXPECT_THROW(
        ev.begin_decision({std::numeric_limits<double>::quiet_NaN(), 40.0}),
        invariant_error);
    EXPECT_THROW(ev.begin_decision({inf, 40.0}), invariant_error);
    EXPECT_THROW(ev.begin_decision({40.0, -inf}), invariant_error);
    // Zero is a legitimate rate (an idle application).
    EXPECT_NO_THROW(ev.begin_decision({0.0, 40.0}));
    EXPECT_NO_THROW(ev.begin_decision({0.0, 0.0}));
}

// ---- search -----------------------------------------------------------------

// The search reports the engine's per-decision sub-solve accounting.
TEST_F(EvaluatorTest, SearchStatsExposeCacheCounters) {
    adaptation_search search(model, utility_model{},
                             cost::cost_table::paper_defaults(), {});
    model_clock_meter meter;
    const auto r = search.find(base(), {40.0, 40.0}, 600.0, 0.0, meter);
    EXPECT_GT(r.stats.eval_app_solves, 0u);
    EXPECT_GT(r.stats.eval_app_cache_hits, 0u);
    EXPECT_EQ(r.stats.eval_app_cache_misses, r.stats.eval_app_solves);
    const auto& es = search.evaluator().stats();
    EXPECT_EQ(r.stats.eval_app_solves, es.app_solves);
    EXPECT_EQ(r.stats.eval_app_cache_hits, es.app_cache_hits);
}

}  // namespace
}  // namespace mistral::core
