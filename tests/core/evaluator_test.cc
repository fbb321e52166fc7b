#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "apps/rubis.h"
#include "cluster/action.h"
#include "cluster/translate.h"
#include "common/rng.h"
#include "core/perf_pwr.h"
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

// The isolated view the Perf-Pwr gradient scores, as one joint lqn::solve
// over the whole sizing with every replica alone on a synthetic host: the
// reference the evaluator's per-app table replaces.
isolated_perf isolated_joint(const cluster::cluster_model& model,
                             const utility_model& utility,
                             const lqn::model_options& lqn,
                             const std::vector<req_per_sec>& rates,
                             const std::vector<seconds>& targets,
                             const app_sizing& s) {
    std::vector<lqn::app_deployment> deps;
    std::size_t fake_host = 0;
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        lqn::app_deployment dep;
        dep.spec = &model.app(app_id{static_cast<std::int32_t>(a)});
        dep.rate = rates[a];
        dep.tiers.resize(dep.spec->tier_count());
        for (std::size_t t = 0; t < dep.spec->tier_count(); ++t) {
            for (int r = 0; r < s[a][t].replicas; ++r) {
                dep.tiers[t].replicas.push_back({fake_host++, s[a][t].cap});
            }
        }
        deps.push_back(std::move(dep));
    }
    const auto solved = lqn::solve(deps, fake_host, lqn);
    isolated_perf out;
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const seconds rt = solved.apps[a].mean_response_time;
        out.response_times.push_back(rt);
        out.perf_rate += utility.perf_rate(rates[a], rt, targets[a]);
        if (rt > targets[a]) out.meets_all_targets = false;
    }
    return out;
}

// An engine that scores sizings through isolated_joint and forwards
// everything else to a serial_evaluator: the Perf-Pwr optimizer run over it
// is the optimizer-level oracle.
class joint_isolated_evaluator final : public utility_evaluator {
public:
    joint_isolated_evaluator(const cluster::cluster_model& model,
                             utility_model utility, lqn::model_options lqn = {})
        : model_(&model), utility_(utility), lqn_(lqn), inner_(model, utility, lqn) {}

    void begin_decision(const std::vector<req_per_sec>& rates) override {
        inner_.begin_decision(rates);
        rates_ = rates;
    }
    [[nodiscard]] const std::vector<seconds>& targets() const override {
        return inner_.targets();
    }
    [[nodiscard]] steady_utility evaluate(const cluster::configuration& c) override {
        return inner_.evaluate(c);
    }
    [[nodiscard]] std::vector<steady_utility> evaluate_batch(
        const std::vector<cluster::configuration>& configs) override {
        return inner_.evaluate_batch(configs);
    }
    [[nodiscard]] isolated_perf evaluate_isolated(const app_sizing& s) override {
        return isolated_joint(*model_, utility_, lqn_, rates_, inner_.targets(), s);
    }
    [[nodiscard]] std::vector<isolated_perf> evaluate_isolated_batch(
        const std::vector<app_sizing>& sizings) override {
        std::vector<isolated_perf> out;
        for (const auto& s : sizings) out.push_back(evaluate_isolated(s));
        return out;
    }
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)>& fn) override {
        inner_.parallel_for(count, fn);
    }
    [[nodiscard]] std::size_t parallelism() const override { return 1; }
    void reset_memo() override { inner_.reset_memo(); }
    [[nodiscard]] const evaluation_stats& stats() const override {
        return inner_.stats();
    }

private:
    const cluster::cluster_model* model_;
    utility_model utility_;
    lqn::model_options lqn_;
    std::vector<req_per_sec> rates_;
    serial_evaluator inner_;
};

// Four applications of two shapes (three- and two-tier) on eight hosts.
cluster::cluster_model mixed_model() {
    std::vector<apps::application_spec> specs;
    specs.push_back(apps::rubis_browsing("R0"));
    specs.push_back(apps::two_tier_demo("D1"));
    specs.push_back(apps::rubis_browsing("R2"));
    specs.push_back(apps::two_tier_demo("D3"));
    return cluster::cluster_model(cluster::uniform_hosts(8), std::move(specs));
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

// The sub-solve cache is bounded without per-hit bookkeeping: an insert that
// finds it full clears it first.
TEST_F(EvaluatorTest, AppSolveCacheClearsWhenFull) {
    const auto sig = [](std::uint64_t w) { return app_signature{{w}}; };
    const auto result = [](seconds rt) {
        lqn::app_result r;
        r.mean_response_time = rt;
        return r;
    };
    app_solve_cache cache(2);
    cache.insert(sig(1), result(0.1));
    cache.insert(sig(2), result(0.2));
    ASSERT_NE(cache.find(sig(1)), nullptr);
    EXPECT_EQ(cache.find(sig(1))->mean_response_time, 0.1);
    EXPECT_EQ(cache.find(sig(2))->mean_response_time, 0.2);
    cache.insert(sig(3), result(0.3));
    EXPECT_EQ(cache.find(sig(1)), nullptr);
    EXPECT_EQ(cache.find(sig(2)), nullptr);
    ASSERT_NE(cache.find(sig(3)), nullptr);
    EXPECT_EQ(cache.find(sig(3))->mean_response_time, 0.3);
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

// ---- reused workspaces -------------------------------------------------------

// The engine refills its deployments, host loads, signature probe and
// per-app result slots on every steady evaluation, and its one-app
// deployment, host loads and result on every isolated solve. One engine
// driven through evaluations and isolated batches whose shapes change
// between calls — replicas added and removed, batches growing and
// shrinking, rates re-bound — returns, bit for bit, what a fresh engine
// returns for each call.
TEST(EvaluatorWorkspace, ReusedEngineMatchesFreshEngines) {
    const auto model = mixed_model();
    const utility_model utility;
    cluster::configuration c(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 8; ++h) c.set_host_power(host_id{h}, true);
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            c.deploy(model.tier_vms(app, t)[0],
                     host_id{static_cast<std::int32_t>(2 * a + t % 2)}, 0.4);
        }
    }
    ASSERT_TRUE(structurally_valid(model, c));

    rng gen(20261020);
    auto random_sizing = [&] {
        app_sizing s(model.app_count());
        for (std::size_t a = 0; a < model.app_count(); ++a) {
            for (const auto& tier :
                 model.app(app_id{static_cast<std::int32_t>(a)}).tiers()) {
                s[a].push_back(
                    {tier.min_replicas +
                         static_cast<int>(gen.uniform_index(static_cast<std::uint64_t>(
                             tier.max_replicas - tier.min_replicas + 1))),
                     std::round(1000.0 * gen.uniform(tier.min_cpu_cap, tier.max_cpu_cap)) /
                         1000.0});
            }
        }
        return s;
    };
    // batch[0] with one (app, tier) changed, as a gradient candidate is.
    auto neighbour = [&](const app_sizing& base) {
        auto s = base;
        const auto a = gen.uniform_index(model.app_count());
        const auto t = gen.uniform_index(s[a].size());
        const auto& tier = model.app(app_id{static_cast<std::int32_t>(a)}).tiers()[t];
        if (gen.uniform() < 0.5 && s[a][t].cap - 0.1 >= tier.min_cpu_cap) {
            s[a][t].cap -= 0.1;
        } else {
            s[a][t].replicas = s[a][t].replicas > tier.min_replicas
                                   ? s[a][t].replicas - 1
                                   : tier.max_replicas;
        }
        return s;
    };

    const std::vector<std::vector<req_per_sec>> levels = {
        {40.0, 40.0, 40.0, 40.0}, {85.0, 20.0, 60.0, 95.0}, {10.0, 70.0, 35.0, 5.0}};
    serial_evaluator reused(model, utility);
    std::size_t replica_changes = 0, grew = 0, shrank = 0, last_batch = 0;
    for (int step = 0; step < 80; ++step) {
        SCOPED_TRACE(step);
        const auto& rates = levels[static_cast<std::size_t>(step) / 7 % levels.size()];
        reused.begin_decision(rates);
        auto fresh = [&] {
            auto ev = std::make_unique<serial_evaluator>(model, utility);
            ev->begin_decision(rates);
            return ev;
        };

        const auto acts = enumerate_actions(model, c);
        const auto& act = acts[gen.uniform_index(acts.size())];
        const auto kind = kind_of(act);
        replica_changes += kind == cluster::action_kind::add_replica ||
                                   kind == cluster::action_kind::remove_replica
                               ? 1
                               : 0;
        c = apply(model, c, act);
        const auto got = reused.evaluate(c);
        const auto want = fresh()->evaluate(c);
        ASSERT_EQ(got.response_times, want.response_times);
        ASSERT_EQ(got.rate, want.rate);
        ASSERT_EQ(got.perf_rate, want.perf_rate);
        ASSERT_EQ(got.power_rate, want.power_rate);
        ASSERT_EQ(got.power, want.power);
        ASSERT_EQ(got.candidate, want.candidate);
        ASSERT_EQ(got.meets_targets, want.meets_targets);

        std::vector<app_sizing> batch = {random_sizing()};
        const auto n = 1 + gen.uniform_index(9);
        while (batch.size() < n) {
            batch.push_back(gen.uniform() < 0.3 ? random_sizing() : neighbour(batch[0]));
        }
        grew += batch.size() > last_batch ? 1 : 0;
        shrank += batch.size() < last_batch ? 1 : 0;
        last_batch = batch.size();
        const auto scored = reused.evaluate_isolated_batch(batch);
        ASSERT_EQ(scored.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const auto one = fresh()->evaluate_isolated(batch[i]);
            ASSERT_EQ(scored[i].response_times, one.response_times) << i;
            ASSERT_EQ(scored[i].perf_rate, one.perf_rate) << i;
            ASSERT_EQ(scored[i].meets_all_targets, one.meets_all_targets) << i;
        }
    }
    EXPECT_GT(replica_changes, 0u);
    EXPECT_GT(grew, 0u);
    EXPECT_GT(shrank, 0u);
}

// ---- the isolated view -------------------------------------------------------

// Each replica of the isolated view sits alone on a synthetic host, so the
// evaluator solves it one application at a time through a per-decision
// table keyed on exact bits. Over random sizings — caps on the 1e-3 grid,
// caps reached from the tier maximum by repeated `cap -= cpu_step` as the
// gradient reaches them, and one-ulp neighbours of both — with booked caps
// inflating hosts or not, and across decisions with changed rates, every
// evaluation bit-matches the joint solve of the whole sizing.
TEST(EvaluatorOracle, IsolatedViewMatchesJointSolvePerApp) {
    const auto model = mixed_model();
    const utility_model utility;
    const fraction step = model.limits().cpu_step;
    rng gen(20261018);
    std::size_t off_grid = 0, ulp_pairs_apart = 0, evaluated = 0;

    auto random_sizing = [&] {
        app_sizing s(model.app_count());
        for (std::size_t a = 0; a < model.app_count(); ++a) {
            for (const auto& tier :
                 model.app(app_id{static_cast<std::int32_t>(a)}).tiers()) {
                tier_sizing t;
                t.replicas = tier.min_replicas +
                             static_cast<int>(gen.uniform_index(static_cast<std::uint64_t>(
                                 tier.max_replicas - tier.min_replicas + 1)));
                if (gen.uniform() < 0.5) {
                    t.cap = tier.max_cpu_cap;
                    for (auto k = gen.uniform_index(7);
                         k > 0 && t.cap - step >= tier.min_cpu_cap - 1e-9; --k) {
                        t.cap -= step;
                    }
                } else {
                    t.cap = std::round(1000.0 * gen.uniform(tier.min_cpu_cap,
                                                            tier.max_cpu_cap)) /
                            1000.0;
                }
                off_grid += t.cap != std::round(t.cap * 1000.0) / 1000.0 ? 1 : 0;
                s[a].push_back(t);
            }
        }
        return s;
    };

    const std::vector<std::vector<req_per_sec>> levels = {
        {40.0, 40.0, 40.0, 40.0}, {85.0, 20.0, 60.0, 95.0}, {10.0, 70.0, 35.0, 5.0}};
    // 0.8 is the default reservable share; at 0.35 the booked caps inflate
    // every replica capped above it.
    for (const double reserved : {0.8, 0.35}) {
        lqn::model_options lqn;
        lqn.reserved_cap_fraction = reserved;
        serial_evaluator ev(model, utility, lqn);
        for (const auto& rates : levels) {
            ev.begin_decision(rates);
            auto check = [&](const app_sizing& s) {
                const auto got = ev.evaluate_isolated(s);
                const auto want = isolated_joint(model, utility, lqn, rates, ev.targets(), s);
                ASSERT_EQ(got.response_times, want.response_times);
                ASSERT_EQ(got.perf_rate, want.perf_rate);
                ASSERT_EQ(got.meets_all_targets, want.meets_all_targets);
                ++evaluated;
            };
            for (int i = 0; i < 60; ++i) {
                const auto s = random_sizing();
                ASSERT_NO_FATAL_FAILURE(check(s));
                // A one-ulp neighbour: a distinct double, so a distinct key.
                auto u = s;
                const auto a = gen.uniform_index(model.app_count());
                auto& tier = u[a][gen.uniform_index(u[a].size())];
                tier.cap = std::nextafter(tier.cap, 0.0);
                ASSERT_NO_FATAL_FAILURE(check(u));
                const auto sj = isolated_joint(model, utility, lqn, rates, ev.targets(), s);
                const auto uj = isolated_joint(model, utility, lqn, rates, ev.targets(), u);
                ulp_pairs_apart += sj.response_times[a] != uj.response_times[a] ? 1 : 0;
            }
        }
    }
    EXPECT_EQ(evaluated, 2u * 3u * 120u);
    // Both hazards a coarser key would alias were exercised.
    EXPECT_GT(off_grid, 0u);
    EXPECT_GT(ulp_pairs_apart, 0u);
}

// What the per-app table costs: a decision's first sizing solves every app,
// a repeat solves none, and a sizing that changes one (app, tier) solves
// exactly that app. begin_decision starts the table over.
TEST(EvaluatorOracle, IsolatedViewSolvesOnlyTheChangedApp) {
    const auto model = mixed_model();
    serial_evaluator ev(model, utility_model{});
    app_sizing start(model.app_count());
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        for (const auto& tier : model.app(app_id{static_cast<std::int32_t>(a)}).tiers()) {
            start[a].push_back({tier.max_replicas, tier.max_cpu_cap});
        }
    }
    for (const auto& rates : std::vector<std::vector<req_per_sec>>{
             {40.0, 40.0, 40.0, 40.0}, {60.0, 25.0, 40.0, 80.0}}) {
        ev.begin_decision(rates);
        const auto solves = [&] { return ev.stats().isolated_solves; };
        const auto before = solves();
        (void)ev.evaluate_isolated(start);
        EXPECT_EQ(solves() - before, model.app_count());
        (void)ev.evaluate_isolated(start);
        EXPECT_EQ(solves() - before, model.app_count());

        auto cap_step = start;
        cap_step[2][1].cap -= model.limits().cpu_step;
        (void)ev.evaluate_isolated(cap_step);
        EXPECT_EQ(solves() - before, model.app_count() + 1);
        auto one_ulp = start;
        one_ulp[1][0].cap = std::nextafter(one_ulp[1][0].cap, 0.0);
        (void)ev.evaluate_isolated(one_ulp);
        EXPECT_EQ(solves() - before, model.app_count() + 2);
        auto fewer = start;
        fewer[3][1].replicas -= 1;
        (void)ev.evaluate_isolated_batch({fewer, cap_step, start});
        EXPECT_EQ(solves() - before, model.app_count() + 3);
    }
    // Every sizing is counted, solved or not.
    EXPECT_EQ(ev.stats().evaluations, 2u * 7u);
    EXPECT_EQ(ev.stats().app_solves, 0u);  // the steady path's counter
}

// The optimizer-level oracle: perf_pwr_optimizer over the per-app engine
// returns, bit for bit, what it returns over an engine that scores every
// sizing through the joint solve — for both variants, several workloads, and
// references with and without a failed host.
TEST(EvaluatorOracle, PerfPwrOptimizerMatchesJointIsolatedSolve) {
    const auto model = mixed_model();
    const utility_model utility;
    const perf_pwr_optimizer seed(model, utility);
    const auto packed = seed.optimize({50.0, 50.0, 50.0, 50.0});
    ASSERT_TRUE(packed.feasible);
    auto failed = packed.ideal;
    failed.set_host_failed(host_id{0}, true);
    auto failed_idle = packed.ideal;
    failed_idle.set_host_failed(host_id{7}, true);
    const std::vector<const cluster::configuration*> references = {
        nullptr, &packed.ideal, &failed, &failed_idle};

    std::size_t feasible = 0;
    for (const auto& rates : std::vector<std::vector<req_per_sec>>{
             {40.0, 40.0, 40.0, 40.0},
             {90.0, 15.0, 70.0, 100.0},
             {5.0, 60.0, 25.0, 10.0}}) {
        for (const auto* ref : references) {
            const perf_pwr_optimizer per_app(model, utility, {},
                                             make_evaluator(model, utility));
            const perf_pwr_optimizer joint(
                model, utility, {},
                std::make_shared<joint_isolated_evaluator>(model, utility));
            for (const bool targets : {false, true}) {
                const auto got = targets ? per_app.optimize_meeting_targets(rates, ref)
                                         : per_app.optimize(rates, ref);
                const auto want = targets ? joint.optimize_meeting_targets(rates, ref)
                                          : joint.optimize(rates, ref);
                ASSERT_EQ(got.feasible, want.feasible);
                EXPECT_TRUE(got.ideal == want.ideal);
                EXPECT_EQ(got.utility_rate, want.utility_rate);
                EXPECT_EQ(got.perf_rate, want.perf_rate);
                EXPECT_EQ(got.power_rate, want.power_rate);
                EXPECT_EQ(got.power, want.power);
                EXPECT_EQ(got.response_times, want.response_times);
                EXPECT_EQ(got.hosts_used, want.hosts_used);
                feasible += got.feasible ? 1 : 0;
            }
        }
    }
    EXPECT_GT(feasible, 0u);
}

// ---- child candidacy ----------------------------------------------------------

// The search checks each child of a structurally valid parent with
// is_candidate_child, which re-checks only what the action touched. Along
// random walks — CPU-overbooked intermediates, dark and fenced hosts, hosts
// whose memory binds before their VM slots — it agrees with is_candidate
// on every applicable action.
TEST(EvaluatorOracle, ChildCandidacyMatchesIsCandidateOnRandomWalks) {
    // 300 MB database replicas on 900 MB hosts (700 MB after Dom-0): memory
    // fills before the four VM slots do.
    auto db_heavy = [](std::string name) {
        const auto base = apps::rubis_browsing("base");
        auto tiers = base.tiers();
        tiers[2].memory_mb = 300.0;
        return apps::application_spec(std::move(name), std::move(tiers),
                                      base.transactions(), 0.400);
    };
    std::vector<apps::application_spec> specs;
    specs.push_back(db_heavy("R0"));
    specs.push_back(apps::two_tier_demo("D1"));
    specs.push_back(db_heavy("R2"));
    const cluster::cluster_model model(cluster::uniform_hosts(6, 900.0),
                                       std::move(specs));
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

    rng gen(20261019);
    std::size_t checked = 0, candidates = 0, overbooked_parents = 0, fenced = 0;
    for (int walk = 0; walk < 6; ++walk) {
        auto c = start;
        for (int step = 0; step < 80; ++step) {
            ASSERT_TRUE(structurally_valid(model, c));
            overbooked_parents += is_candidate(model, c) ? 0 : 1;
            fenced += c.any_host_failed() ? 1 : 0;
            const auto acts = enumerate_actions(model, c);
            ASSERT_FALSE(acts.empty());
            for (const auto& a : acts) {
                const auto child = apply(model, c, a);
                const bool want = is_candidate(model, child);
                ASSERT_EQ(is_candidate_child(model, c, child, a), want)
                    << to_string(model, a) << " walk " << walk << " step " << step;
                ++checked;
                candidates += want ? 1 : 0;
            }
            const host_id h{static_cast<std::int32_t>(
                gen.uniform_index(model.host_count()))};
            if (gen.uniform() < 0.1 && c.vm_count_on(h) == 0) {
                c.set_host_failed(h, !c.host_failed(h));
            } else {
                auto next = apply(model, c, acts[gen.uniform_index(acts.size())]);
                if (structurally_valid(model, next)) c = std::move(next);
            }
        }
    }
    EXPECT_GE(checked, 5000u);
    EXPECT_GT(candidates, 0u);
    EXPECT_LT(candidates, checked);  // packing rejected some children
    EXPECT_GT(overbooked_parents, 0u);
    EXPECT_GT(fenced, 0u);
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
