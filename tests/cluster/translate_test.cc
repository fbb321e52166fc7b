#include "cluster/translate.h"

#include <gtest/gtest.h>

#include "apps/rubis.h"
#include "common/check.h"

namespace mistral::cluster {
namespace {

struct fixture : ::testing::Test {
    cluster_model model = [] {
        std::vector<apps::application_spec> specs;
        specs.push_back(apps::rubis_browsing("R0"));
        return cluster_model(uniform_hosts(3), std::move(specs));
    }();
    configuration config{model.vm_count(), model.host_count()};

    void SetUp() override {
        config.set_host_power(host_id{0}, true);
        config.set_host_power(host_id{1}, true);
        config.deploy(model.tier_vms(app_id{0}, 0)[0], host_id{0}, 0.3);
        config.deploy(model.tier_vms(app_id{0}, 1)[0], host_id{0}, 0.4);
        config.deploy(model.tier_vms(app_id{0}, 2)[0], host_id{1}, 0.5);
    }
};

using TranslateTest = fixture;

TEST_F(TranslateTest, BuildsOneDeploymentPerApp) {
    const auto deps = to_lqn(model, config, {40.0});
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0].spec->name(), "R0");
    EXPECT_DOUBLE_EQ(deps[0].rate, 40.0);
    ASSERT_EQ(deps[0].tiers.size(), 3u);
    EXPECT_EQ(deps[0].tiers[0].replicas[0].host, 0u);
    EXPECT_DOUBLE_EQ(deps[0].tiers[2].replicas[0].cpu_cap, 0.5);
}

TEST_F(TranslateTest, SkipsDormantReplicas) {
    const auto deps = to_lqn(model, config, {40.0});
    EXPECT_EQ(deps[0].tiers[1].replicas.size(), 1u);
    EXPECT_EQ(deps[0].tiers[2].replicas.size(), 1u);
}

TEST_F(TranslateTest, ThrowsWhenTierUndeployed) {
    config.undeploy(model.tier_vms(app_id{0}, 2)[0]);
    EXPECT_THROW(to_lqn(model, config, {40.0}), invariant_error);
}

TEST_F(TranslateTest, ThrowsOnRateCountMismatch) {
    EXPECT_THROW(to_lqn(model, config, {40.0, 50.0}), invariant_error);
}

TEST_F(TranslateTest, PowerSumsOnlyPoweredHosts) {
    const std::vector<fraction> utils = {0.5, 0.5, 0.5};
    const watts p = predicted_power(model, config, utils);
    const watts one = model.hosts()[0].power.power(0.5);
    EXPECT_NEAR(p, 2.0 * one, 1e-9);  // host2 is off
}

TEST_F(TranslateTest, PoweredEmptyHostDrawsIdle) {
    config.set_host_power(host_id{2}, true);
    const std::vector<fraction> utils = {0.0, 0.0, 0.0};
    const watts p = predicted_power(model, config, utils);
    EXPECT_NEAR(p, 3.0 * model.hosts()[0].power.idle, 1e-9);
}

TEST_F(TranslateTest, PredictCombinesSolverAndPower) {
    const auto pred = predict(model, config, {40.0});
    EXPECT_GT(pred.perf.apps[0].mean_response_time, 0.0);
    EXPECT_GT(pred.power, 2.0 * model.hosts()[0].power.idle);
    // Consistency: power equals the power model applied to the solver's
    // host utilizations.
    EXPECT_NEAR(pred.power,
                predicted_power(model, config, pred.perf.host_utilization), 1e-9);
}

// The buffer form refills a deployment vector that held other shapes — more
// or fewer apps, replicas on other hosts, an extra replica in a tier — with
// exactly what the value form builds.
TEST(TranslateReuse, ToLqnIntoReusedBufferMatchesValueForm) {
    std::vector<apps::application_spec> specs;
    specs.push_back(apps::rubis_browsing("R0"));
    specs.push_back(apps::two_tier_demo("D1"));
    const cluster_model model(uniform_hosts(4), std::move(specs));
    configuration lean(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 4; ++h) lean.set_host_power(host_id{h}, true);
    for (std::size_t a = 0; a < 2; ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            lean.deploy(model.tier_vms(app, t)[0],
                        host_id{static_cast<std::int32_t>(2 * a + t % 2)}, 0.4);
        }
    }
    auto wide = lean;  // a second replica in every replicated tier
    for (std::size_t a = 0; a < 2; ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            if (model.tier_vms(app, t).size() > 1) {
                wide.deploy(model.tier_vms(app, t)[1], host_id{3}, 0.3);
            }
        }
    }

    // Start from a buffer of another model's shape: three apps.
    std::vector<lqn::app_deployment> buffer(3);
    buffer[2].tiers.resize(5);
    for (const auto* c : {&wide, &lean, &wide, &wide, &lean}) {
        for (const auto& rates : {std::vector<req_per_sec>{40.0, 20.0},
                                  std::vector<req_per_sec>{75.0, 5.0}}) {
            to_lqn(model, *c, rates, buffer);
            const auto want = to_lqn(model, *c, rates);
            ASSERT_EQ(buffer.size(), want.size());
            for (std::size_t a = 0; a < want.size(); ++a) {
                EXPECT_EQ(buffer[a].spec, want[a].spec);
                EXPECT_EQ(buffer[a].rate, want[a].rate);
                ASSERT_EQ(buffer[a].tiers.size(), want[a].tiers.size());
                for (std::size_t t = 0; t < want[a].tiers.size(); ++t) {
                    const auto& got = buffer[a].tiers[t].replicas;
                    const auto& exp = want[a].tiers[t].replicas;
                    ASSERT_EQ(got.size(), exp.size()) << a << "/" << t;
                    for (std::size_t r = 0; r < exp.size(); ++r) {
                        EXPECT_EQ(got[r].host, exp[r].host);
                        EXPECT_EQ(got[r].cpu_cap, exp[r].cpu_cap);
                    }
                }
            }
        }
    }
}

TEST_F(TranslateTest, MorePowerAtHigherRate) {
    const auto lo = predict(model, config, {10.0});
    const auto hi = predict(model, config, {60.0});
    EXPECT_GT(hi.power, lo.power);
}

}  // namespace
}  // namespace mistral::cluster
