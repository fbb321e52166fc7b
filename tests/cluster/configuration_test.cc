#include "cluster/configuration.h"

#include <gtest/gtest.h>

#include "apps/rubis.h"
#include "common/check.h"

namespace mistral::cluster {
namespace {

cluster_model make_model() {
    std::vector<apps::application_spec> specs;
    specs.push_back(apps::rubis_browsing("R0"));
    specs.push_back(apps::rubis_browsing("R1"));
    return cluster_model(uniform_hosts(4), std::move(specs));
}

// Minimal valid configuration: both apps' min replicas at 40 % on hosts 0..1
// and 2..3 respectively.
configuration base_config(const cluster_model& m) {
    configuration c(m.vm_count(), m.host_count());
    for (std::size_t h = 0; h < 4; ++h) {
        c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
    }
    for (std::size_t a = 0; a < 2; ++a) {
        for (std::size_t t = 0; t < 3; ++t) {
            c.deploy(m.tier_vms(app_id{static_cast<std::int32_t>(a)}, t)[0],
                     host_id{static_cast<std::int32_t>(2 * a + t % 2)}, 0.4);
        }
    }
    return c;
}

TEST(Configuration, DeployUndeployRoundTrip) {
    const auto m = make_model();
    configuration c(m.vm_count(), m.host_count());
    c.set_host_power(host_id{0}, true);
    const auto vm = m.tier_vms(app_id{0}, 0)[0];
    EXPECT_FALSE(c.deployed(vm));
    c.deploy(vm, host_id{0}, 0.4);
    ASSERT_TRUE(c.deployed(vm));
    EXPECT_EQ(c.placement(vm)->host, host_id{0});
    EXPECT_DOUBLE_EQ(c.placement(vm)->cpu_cap, 0.4);
    c.undeploy(vm);
    EXPECT_FALSE(c.deployed(vm));
}

TEST(Configuration, CapsAreQuantizedForExactEquality) {
    const auto m = make_model();
    configuration c(m.vm_count(), m.host_count());
    c.set_host_power(host_id{0}, true);
    const auto vm = m.tier_vms(app_id{0}, 0)[0];
    c.deploy(vm, host_id{0}, 0.1 + 0.2);  // 0.30000000000000004
    EXPECT_DOUBLE_EQ(c.placement(vm)->cpu_cap, 0.3);
}

TEST(Configuration, AccountingQueries) {
    const auto m = make_model();
    const auto c = base_config(m);
    EXPECT_EQ(c.active_host_count(), 4u);
    EXPECT_EQ(c.deployed_vm_count(), 6u);
    EXPECT_EQ(c.vms_on(host_id{0}).size(), 2u);
    EXPECT_NEAR(c.cap_sum(host_id{0}), 0.8, 1e-9);
    EXPECT_NEAR(c.memory_sum(m, host_id{0}), 400.0, 1e-9);
}

TEST(Configuration, EqualityAndHashAgree) {
    const auto m = make_model();
    const auto a = base_config(m);
    auto b = base_config(m);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    b.set_cap(m.tier_vms(app_id{0}, 0)[0], 0.5);
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(Configuration, HashSensitiveToHostPower) {
    const auto m = make_model();
    const auto a = base_config(m);
    auto b = a;
    // Powering an empty host changes identity even with same placements.
    b.set_host_power(host_id{3}, false);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(Configuration, SetCapOnDormantThrows) {
    const auto m = make_model();
    configuration c(m.vm_count(), m.host_count());
    EXPECT_THROW(c.set_cap(m.tier_vms(app_id{0}, 0)[0], 0.4), invariant_error);
}

TEST(Configuration, StructurallyValidAcceptsBase) {
    const auto m = make_model();
    std::string why;
    EXPECT_TRUE(structurally_valid(m, base_config(m), &why)) << why;
    EXPECT_TRUE(is_candidate(m, base_config(m), &why)) << why;
}

TEST(Configuration, VmOnPoweredOffHostIsInvalid) {
    const auto m = make_model();
    auto c = base_config(m);
    // Move everything off host 3, then forcibly host a VM on a powered-off one.
    c.set_host_power(host_id{3}, false);
    std::string why;
    const bool ok = structurally_valid(m, c, &why);
    // host3 held R1 VMs in base_config; moving power off invalidates.
    EXPECT_FALSE(ok);
    EXPECT_NE(why.find("powered-off"), std::string::npos);
}

TEST(Configuration, MissingTierReplicaIsInvalid) {
    const auto m = make_model();
    auto c = base_config(m);
    c.undeploy(m.tier_vms(app_id{0}, 2)[0]);
    std::string why;
    EXPECT_FALSE(structurally_valid(m, c, &why));
    EXPECT_NE(why.find("minimum replication"), std::string::npos);
}

// structurally_valid sums per-host memory on the stack for up to 64 hosts
// and on the heap beyond; at either size it must catch the one overcommitted
// host, here the last.
TEST(Configuration, MemoryOvercommitIsInvalidAtAnyClusterSize) {
    for (const std::size_t hosts : {4u, 80u}) {
        std::vector<apps::application_spec> specs;
        specs.push_back(apps::rubis_browsing("R0"));
        // 700 MB hosts keep 500 MB after Dom-0: two 200 MB replicas fit.
        const cluster_model m(uniform_hosts(hosts, 700.0), std::move(specs));
        const host_id last{static_cast<std::int32_t>(hosts - 1)};
        const host_id other{static_cast<std::int32_t>(hosts - 2)};
        configuration c(m.vm_count(), m.host_count());
        c.set_host_power(last, true);
        c.set_host_power(other, true);
        c.deploy(m.tier_vms(app_id{0}, 0)[0], last, 0.2);
        c.deploy(m.tier_vms(app_id{0}, 1)[0], last, 0.2);
        c.deploy(m.tier_vms(app_id{0}, 2)[0], other, 0.2);
        std::string why;
        EXPECT_TRUE(structurally_valid(m, c, &why)) << hosts << " hosts: " << why;
        c.deploy(m.tier_vms(app_id{0}, 2)[0], last, 0.2);
        EXPECT_FALSE(structurally_valid(m, c, &why)) << hosts << " hosts";
        EXPECT_NE(why.find("memory overcommitted on " + m.hosts()[last.index()].name),
                  std::string::npos)
            << why;
    }
}

TEST(Configuration, CapOutsideTierWindowIsInvalid) {
    const auto m = make_model();
    auto c = base_config(m);
    c.set_cap(m.tier_vms(app_id{0}, 0)[0], 0.9);  // above the 0.8 tier max
    EXPECT_FALSE(structurally_valid(m, c));
}

TEST(Configuration, OverbookedHostIsIntermediateNotInvalid) {
    const auto m = make_model();
    auto c = base_config(m);
    // Push host0's cap sum to 1.0: structurally fine, not a candidate.
    for (vm_id vm : c.vms_on(host_id{0})) c.set_cap(vm, 0.5);
    std::string why;
    EXPECT_TRUE(structurally_valid(m, c, &why)) << why;
    EXPECT_FALSE(is_candidate(m, c, &why));
    EXPECT_NE(why.find("overbooked"), std::string::npos);
}

TEST(Configuration, TooManyVmsPerHostInvalid) {
    const auto m = make_model();
    configuration c(m.vm_count(), m.host_count());
    c.set_host_power(host_id{0}, true);
    int placed = 0;
    for (const auto& desc : m.vms()) {
        if (placed == 5) break;
        c.deploy(desc.vm, host_id{0}, 0.2);
        ++placed;
    }
    EXPECT_FALSE(structurally_valid(m, c));
}

TEST(Configuration, DescribeMentionsHostsAndVms) {
    const auto m = make_model();
    const auto text = base_config(m).describe(m);
    EXPECT_NE(text.find("host0[on]"), std::string::npos);
    EXPECT_NE(text.find("R0/web0@40%"), std::string::npos);
}

TEST(Distances, IdenticalConfigsAreZero) {
    const auto m = make_model();
    const auto c = base_config(m);
    EXPECT_DOUBLE_EQ(cap_distance(m, c, c, c), 0.0);
    EXPECT_DOUBLE_EQ(placement_distance(m, c, c), 0.0);
}

TEST(Distances, CapDistanceGrowsWithCapGap) {
    const auto m = make_model();
    const auto c = base_config(m);
    auto near = c;
    near.set_cap(m.tier_vms(app_id{0}, 0)[0], 0.5);
    auto far = c;
    far.set_cap(m.tier_vms(app_id{0}, 0)[0], 0.8);
    EXPECT_GT(cap_distance(m, far, c, c), cap_distance(m, near, c, c));
}

TEST(Distances, PlacementDistanceCountsMoves) {
    const auto m = make_model();
    const auto c = base_config(m);
    auto moved = c;
    const auto vm = m.tier_vms(app_id{0}, 0)[0];
    moved.deploy(vm, host_id{3}, 0.4);
    // One of ten inventory VMs changed host.
    EXPECT_NEAR(placement_distance(m, c, moved), 0.1, 1e-9);
}

TEST(Distances, BiggerIdealVmWeighsMore) {
    const auto m = make_model();
    auto ideal = base_config(m);
    const auto big = m.tier_vms(app_id{0}, 2)[0];   // db
    const auto small = m.tier_vms(app_id{0}, 0)[0];  // web
    ideal.set_cap(big, 0.8);
    ideal.set_cap(small, 0.2);
    // Same absolute cap change on the big VM moves the distance more.
    auto d_big = base_config(m);
    d_big.set_cap(big, 0.6);
    auto d_small = base_config(m);
    d_small.set_cap(small, 0.6);
    EXPECT_GT(cap_distance(m, d_big, base_config(m), ideal),
              cap_distance(m, d_small, base_config(m), ideal));
}

}  // namespace
}  // namespace mistral::cluster
