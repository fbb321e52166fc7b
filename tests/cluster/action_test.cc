#include "cluster/action.h"

#include <gtest/gtest.h>

#include "apps/rubis.h"
#include "common/check.h"
#include "common/rng.h"

namespace mistral::cluster {
namespace {

struct fixture : ::testing::Test {
    cluster_model model = [] {
        std::vector<apps::application_spec> specs;
        specs.push_back(apps::rubis_browsing("R0"));
        specs.push_back(apps::rubis_browsing("R1"));
        return cluster_model(uniform_hosts(4), std::move(specs));
    }();
    configuration config{model.vm_count(), model.host_count()};

    void SetUp() override {
        for (std::size_t h = 0; h < 3; ++h) {
            config.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
        }
        // App 0 on host0/host1, app 1 on host1/host2; host3 stays off.
        config.deploy(web0(), host_id{0}, 0.4);
        config.deploy(app0(), host_id{0}, 0.4);
        config.deploy(db0(), host_id{1}, 0.4);
        config.deploy(model.tier_vms(app_id{1}, 0)[0], host_id{1}, 0.4);
        config.deploy(model.tier_vms(app_id{1}, 1)[0], host_id{2}, 0.4);
        config.deploy(model.tier_vms(app_id{1}, 2)[0], host_id{2}, 0.4);
    }

    vm_id web0() const { return model.tier_vms(app_id{0}, 0)[0]; }
    vm_id app0() const { return model.tier_vms(app_id{0}, 1)[0]; }
    vm_id db0() const { return model.tier_vms(app_id{0}, 2)[0]; }
    vm_id db1() const { return model.tier_vms(app_id{0}, 2)[1]; }
};

using ActionTest = fixture;

TEST_F(ActionTest, KindOfCoversAllVariants) {
    EXPECT_EQ(kind_of(increase_cpu{web0()}), action_kind::increase_cpu);
    EXPECT_EQ(kind_of(decrease_cpu{web0()}), action_kind::decrease_cpu);
    EXPECT_EQ(kind_of(add_replica{db1(), host_id{0}, 0.2}), action_kind::add_replica);
    EXPECT_EQ(kind_of(remove_replica{db0()}), action_kind::remove_replica);
    EXPECT_EQ(kind_of(migrate{db0(), host_id{0}}), action_kind::migrate);
    EXPECT_EQ(kind_of(power_on{host_id{3}}), action_kind::power_on);
    EXPECT_EQ(kind_of(power_off{host_id{3}}), action_kind::power_off);
}

TEST_F(ActionTest, IncreaseCpuStepsByModelStep) {
    const auto next = apply(model, config, increase_cpu{web0()});
    EXPECT_NEAR(next.placement(web0())->cpu_cap, 0.5, 1e-9);
}

TEST_F(ActionTest, IncreaseBlockedAtTierMax) {
    config.set_cap(web0(), 0.8);
    std::string why;
    EXPECT_FALSE(applicable(model, config, increase_cpu{web0()}, &why));
    EXPECT_NE(why.find("maximum"), std::string::npos);
}

TEST_F(ActionTest, DecreaseBlockedAtTierMin) {
    config.set_cap(web0(), 0.2);
    EXPECT_FALSE(applicable(model, config, decrease_cpu{web0()}));
}

TEST_F(ActionTest, IncreaseMayOverbookHost) {
    // host0 already at 0.8; the increase is legal and yields an intermediate.
    const auto next = apply(model, config, increase_cpu{web0()});
    EXPECT_TRUE(structurally_valid(model, next));
    EXPECT_FALSE(is_candidate(model, next));
}

TEST_F(ActionTest, AddReplicaDeploysDormantVm) {
    const auto next = apply(model, config, add_replica{db1(), host_id{1}, 0.2});
    EXPECT_TRUE(next.deployed(db1()));
    EXPECT_EQ(next.placement(db1())->host, host_id{1});
}

TEST_F(ActionTest, AddReplicaRejectsDeployedVm) {
    EXPECT_FALSE(applicable(model, config, add_replica{db0(), host_id{1}, 0.2}));
}

TEST_F(ActionTest, AddReplicaRejectsPoweredOffTarget) {
    std::string why;
    EXPECT_FALSE(applicable(model, config, add_replica{db1(), host_id{3}, 0.2}, &why));
    EXPECT_NE(why.find("powered off"), std::string::npos);
}

TEST_F(ActionTest, RemoveReplicaRespectsMinimumReplication) {
    // db tier has a single replica: removing it would break the application.
    EXPECT_FALSE(applicable(model, config, remove_replica{db0()}));
    // With a second replica deployed, removal becomes legal.
    auto with_two = apply(model, config, add_replica{db1(), host_id{1}, 0.2});
    EXPECT_TRUE(applicable(model, with_two, remove_replica{db1()}));
    const auto next = apply(model, with_two, remove_replica{db1()});
    EXPECT_FALSE(next.deployed(db1()));
}

TEST_F(ActionTest, MigrateMovesKeepingCap) {
    const auto next = apply(model, config, migrate{db0(), host_id{2}});
    EXPECT_EQ(next.placement(db0())->host, host_id{2});
    EXPECT_NEAR(next.placement(db0())->cpu_cap, 0.4, 1e-9);
}

TEST_F(ActionTest, MigrateToSameHostRejected) {
    EXPECT_FALSE(applicable(model, config, migrate{db0(), host_id{1}}));
}

TEST_F(ActionTest, MigrateRespectsSlotLimit) {
    // Fill host1 to 4 VMs, then a 5th migration must be refused.
    auto c = config;
    c = apply(model, c, add_replica{db1(), host_id{1}, 0.2});
    c = apply(model, c, add_replica{model.tier_vms(app_id{1}, 2)[1], host_id{1}, 0.2});
    ASSERT_EQ(c.vms_on(host_id{1}).size(), 4u);
    std::string why;
    EXPECT_FALSE(applicable(model, c, migrate{web0(), host_id{1}}, &why));
    EXPECT_NE(why.find("slots"), std::string::npos);
}

TEST_F(ActionTest, PowerOnOffRoundTrip) {
    auto on = apply(model, config, power_on{host_id{3}});
    EXPECT_TRUE(on.host_on(host_id{3}));
    const auto off = apply(model, on, power_off{host_id{3}});
    EXPECT_FALSE(off.host_on(host_id{3}));
}

TEST_F(ActionTest, PowerOffRefusedWhileHosting) {
    std::string why;
    EXPECT_FALSE(applicable(model, config, power_off{host_id{0}}, &why));
    EXPECT_NE(why.find("VMs"), std::string::npos);
}

TEST_F(ActionTest, ApplyThrowsOnInapplicable) {
    EXPECT_THROW(apply(model, config, power_on{host_id{0}}), invariant_error);
}

TEST_F(ActionTest, ApplyIsPure) {
    const auto before = config;
    (void)apply(model, config, increase_cpu{web0()});
    EXPECT_EQ(config, before);
}

TEST_F(ActionTest, ToStringIsDescriptive) {
    EXPECT_EQ(to_string(model, migrate{db0(), host_id{2}}),
              "migrate vm3(R0/db0) -> host2");
    EXPECT_EQ(to_string(model, power_on{host_id{3}}), "power_on host3");
}

TEST_F(ActionTest, EnumerateOnlyProducesApplicableActions) {
    for (const auto& a : enumerate_actions(model, config)) {
        std::string why;
        EXPECT_TRUE(applicable(model, config, a, &why))
            << to_string(model, a) << ": " << why;
    }
}

TEST_F(ActionTest, EnumerateResultsApplyToValidConfigurations) {
    for (const auto& a : enumerate_actions(model, config)) {
        const auto next = apply(model, config, a);
        std::string why;
        EXPECT_TRUE(structurally_valid(model, next, &why))
            << to_string(model, a) << ": " << why;
        EXPECT_NE(next, config) << to_string(model, a);
    }
}

TEST_F(ActionTest, EnumerateRespectsMenu) {
    action_menu tuning_only{.cpu_tuning = true,
                            .replication = false,
                            .migration = false,
                            .host_power = false};
    for (const auto& a : enumerate_actions(model, config, tuning_only)) {
        const auto k = kind_of(a);
        EXPECT_TRUE(k == action_kind::increase_cpu || k == action_kind::decrease_cpu)
            << to_string(model, a);
    }
}

TEST_F(ActionTest, EnumerateAppliesSymmetryReduction) {
    // Only one dormant replica per tier offered, only one power_on.
    int power_ons = 0;
    int db1_adds = 0, db2_adds = 0;
    for (const auto& a : enumerate_actions(model, config)) {
        if (kind_of(a) == action_kind::power_on) ++power_ons;
        if (const auto* add = std::get_if<add_replica>(&a)) {
            if (add->vm == db1()) ++db1_adds;
            if (add->vm == model.tier_vms(app_id{0}, 2)[1]) ++db2_adds;
        }
    }
    EXPECT_EQ(power_ons, 1);
    EXPECT_GT(db1_adds, 0);
}

// The buffer form replaces whatever the vector held — here the previous
// step's actions, longer or shorter — with exactly the value form's
// actions, in its order, along a seeded walk under every menu.
TEST_F(ActionTest, EnumerateIntoReusedBufferMatchesValueForm) {
    const std::vector<action_menu> menus = {
        {}, {.cpu_tuning = true, .replication = false, .migration = false,
             .host_power = false},
        {.cpu_tuning = false, .replication = true, .migration = true,
         .host_power = true}};
    rng gen(424242);
    std::vector<action> buffer = {power_on{host_id{3}}, migrate{web0(), host_id{2}}};
    auto c = config;
    std::size_t grew = 0, shrank = 0;
    for (int step = 0; step < 60; ++step) {
        for (const auto& menu : menus) {
            const auto before = buffer.size();
            enumerate_actions(model, c, menu, buffer);
            const auto want = enumerate_actions(model, c, menu);
            ASSERT_EQ(buffer, want) << "step " << step;
            grew += buffer.size() > before ? 1 : 0;
            shrank += buffer.size() < before ? 1 : 0;
        }
        const auto acts = enumerate_actions(model, c);
        c = apply(model, c, acts[gen.uniform_index(acts.size())]);
    }
    EXPECT_GT(grew, 0u);
    EXPECT_GT(shrank, 0u);
}

}  // namespace
}  // namespace mistral::cluster
