// Action round-trip properties.
//
// The fault injector relies on two contracts of the action algebra: an
// applicable action always produces a structurally valid configuration (so a
// *completed* action can never corrupt the testbed), and inverse pairs
// (add/remove, power on/off) restore the per-host aggregates exactly (so a
// failed action, which applies nothing, leaves the configuration equal to
// its pre-action state by construction).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <variant>
#include <vector>

#include "apps/rubis.h"
#include "cluster/action.h"
#include "cluster/configuration.h"
#include "common/check.h"
#include "common/rng.h"

namespace mistral {
namespace {

cluster::cluster_model make_model(std::size_t hosts, std::size_t apps) {
    std::vector<apps::application_spec> specs;
    for (std::size_t a = 0; a < apps; ++a) {
        specs.push_back(apps::rubis_browsing("R" + std::to_string(a)));
    }
    return cluster::cluster_model(cluster::uniform_hosts(hosts), std::move(specs));
}

cluster::configuration base_config(const cluster::cluster_model& model) {
    cluster::configuration c(model.vm_count(), model.host_count());
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
    }
    const std::size_t per_app =
        std::max<std::size_t>(1, model.host_count() / model.app_count());
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            const std::size_t h = (a * per_app + t % per_app) % model.host_count();
            c.deploy(model.tier_vms(app, t)[0],
                     host_id{static_cast<std::int32_t>(h)}, 0.4);
        }
    }
    return c;
}

// Brute-force per-host aggregates from the placements alone; the incremental
// counters must agree after any action sequence.
void assert_aggregates_consistent(const cluster::cluster_model& model,
                                  const cluster::configuration& c,
                                  const std::string& context) {
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        double cap = 0.0;
        std::size_t count = 0;
        double memory = 0.0;
        for (const auto& desc : model.vms()) {
            const auto& p = c.placement(desc.vm);
            if (!p || p->host != host) continue;
            cap += p->cpu_cap;
            ++count;
            memory += desc.memory_mb;
        }
        ASSERT_NEAR(c.cap_sum(host), cap, 1e-9) << context << " host " << h;
        ASSERT_EQ(c.vm_count_on(host), count) << context << " host " << h;
        ASSERT_NEAR(c.memory_sum(model, host), memory, 1e-9)
            << context << " host " << h;
    }
}

// Every action kind must be exercised, and for each enumerated (hence
// applicable) action, apply() must land on a structurally valid
// configuration: legality implies validity, per kind.
TEST(ActionRoundTrip, ApplicableImpliesValidApplyForEveryKind) {
    const auto model = make_model(4, 2);
    std::array<bool, 7> kind_seen{};
    const auto cover = [&](const cluster::configuration& config) {
        const auto actions = enumerate_actions(model, config);
        for (const auto& a : actions) {
            ASSERT_TRUE(applicable(model, config, a));
            const auto next = apply(model, config, a);
            std::string why;
            ASSERT_TRUE(structurally_valid(model, next, &why))
                << to_string(model, a) << ": " << why;
            kind_seen[static_cast<std::size_t>(kind_of(a))] = true;
        }
    };
    rng r(404);
    for (int walk = 0; walk < 12; ++walk) {
        auto config = base_config(model);
        for (int step = 0; step < 30; ++step) {
            cover(config);
            const auto actions = enumerate_actions(model, config);
            ASSERT_FALSE(actions.empty());
            config = apply(model, config, actions[r.uniform_index(actions.size())]);
        }
    }
    // The power-cycle kinds are only offered from states the random walk may
    // never visit (an empty host, an off host); cover them deterministically
    // on a one-app model whose fourth host starts empty.
    const auto spare_model = make_model(4, 1);
    const auto cover_spare = [&](const cluster::configuration& config) {
        for (const auto& a : enumerate_actions(spare_model, config)) {
            ASSERT_TRUE(applicable(spare_model, config, a));
            std::string why;
            ASSERT_TRUE(structurally_valid(spare_model,
                                           apply(spare_model, config, a), &why))
                << to_string(spare_model, a) << ": " << why;
            kind_seen[static_cast<std::size_t>(kind_of(a))] = true;
        }
    };
    auto spare_config = base_config(spare_model);
    ASSERT_EQ(spare_config.vm_count_on(host_id{3}), 0u);
    cover_spare(spare_config);  // host 3 empty and on: power_off offered
    spare_config.set_host_power(host_id{3}, false);
    cover_spare(spare_config);  // host 3 off: power_on offered
    for (std::size_t k = 0; k < kind_seen.size(); ++k) {
        EXPECT_TRUE(kind_seen[k]) << "action kind " << k << " never enumerated";
    }
}

// add_replica then remove_replica of the same VM restores the configuration
// exactly (value equality, hash, and per-host aggregates).
TEST(ActionRoundTrip, AddRemovePairRestoresConfiguration) {
    const auto model = make_model(4, 2);
    rng r(405);
    auto config = base_config(model);
    int round_trips = 0;
    for (int step = 0; step < 60; ++step) {
        const auto actions = enumerate_actions(model, config);
        for (const auto& a : actions) {
            const auto* add = std::get_if<cluster::add_replica>(&a);
            if (!add) continue;
            const auto added = apply(model, config, a);
            const cluster::action remove = cluster::remove_replica{add->vm};
            if (!applicable(model, added, remove)) continue;  // at tier minimum
            const auto back = apply(model, added, remove);
            ASSERT_EQ(back, config);
            ASSERT_EQ(back.hash(), config.hash());
            assert_aggregates_consistent(model, back, "after add/remove");
            ++round_trips;
        }
        config = apply(model, config, actions[r.uniform_index(actions.size())]);
    }
    EXPECT_GT(round_trips, 0);
}

// power_on then power_off of the same host restores the configuration.
TEST(ActionRoundTrip, PowerCyclePairRestoresConfiguration) {
    const auto model = make_model(4, 1);
    auto config = base_config(model);
    // Free up a host so there is something to power-cycle.
    const host_id spare{3};
    ASSERT_EQ(config.vm_count_on(spare), 0u);
    config.set_host_power(spare, false);

    const cluster::action on = cluster::power_on{spare};
    ASSERT_TRUE(applicable(model, config, on));
    const auto powered = apply(model, config, on);
    const cluster::action off = cluster::power_off{spare};
    ASSERT_TRUE(applicable(model, powered, off));
    const auto back = apply(model, powered, off);
    EXPECT_EQ(back, config);
    EXPECT_EQ(back.hash(), config.hash());
}

// Fuzzed sequences: the incremental per-host aggregates never drift from a
// from-scratch recomputation, and failure marks keep power_on off the menu.
TEST(ActionRoundTrip, FuzzedSequencesKeepAggregatesExact) {
    const auto model = make_model(4, 2);
    rng r(406);
    for (int walk = 0; walk < 6; ++walk) {
        auto config = base_config(model);
        for (int step = 0; step < 50; ++step) {
            const auto actions = enumerate_actions(model, config);
            config = apply(model, config, actions[r.uniform_index(actions.size())]);
            assert_aggregates_consistent(model, config,
                                         "walk " + std::to_string(walk));
        }
    }
}

// apply_into writes apply's result into a caller-owned configuration. Along
// seeded walks (with fenced hosts), every enumerated action must give the
// same configuration and hash through apply_into as through apply, whether
// `out` starts empty, holds a configuration of another cluster shape or the
// previous action's result, or is the source itself (applied in place).
// Every action kind must be covered.
TEST(ApplyInto, MatchesApplyAlongRandomWalks) {
    const auto model = make_model(8, 3);
    const auto other = make_model(6, 2);
    rng r(20261019);
    std::array<bool, 7> kind_seen{};
    std::size_t checked = 0;
    cluster::configuration reused = base_config(other);
    for (int walk = 0; walk < 4; ++walk) {
        auto config = base_config(model);
        // Hosts 6 and 7 host nothing; start them dark.
        config.set_host_power(host_id{6}, false);
        config.set_host_power(host_id{7}, false);
        for (int step = 0; step < 40; ++step) {
            const host_id h{static_cast<std::int32_t>(r.uniform_index(model.host_count()))};
            if (r.uniform() < 0.1 && config.vm_count_on(h) == 0) {
                config.set_host_failed(h, !config.host_failed(h));
            }
            const auto actions = enumerate_actions(model, config);
            ASSERT_FALSE(actions.empty());
            for (const auto& a : actions) {
                const auto want = apply(model, config, a);
                cluster::configuration fresh;
                apply_into(model, config, a, fresh);
                apply_into(model, config, a, reused);
                auto in_place = config;
                apply_into(model, in_place, a, in_place);
                for (const auto* got : {&fresh, &reused, &in_place}) {
                    ASSERT_EQ(*got, want) << to_string(model, a);
                    ASSERT_EQ(got->hash(), want.hash()) << to_string(model, a);
                    ASSERT_TRUE(got->verify_hash()) << to_string(model, a);
                }
                kind_seen[static_cast<std::size_t>(kind_of(a))] = true;
                ++checked;
            }
            config = apply(model, config, actions[r.uniform_index(actions.size())]);
        }
    }
    EXPECT_GT(checked, 1000u);
    for (std::size_t k = 0; k < kind_seen.size(); ++k) {
        EXPECT_TRUE(kind_seen[k]) << to_string(static_cast<cluster::action_kind>(k));
    }
}

// An inapplicable action throws as apply does, and `out` keeps what it held.
TEST(ApplyInto, InapplicableActionThrowsAndLeavesOutUntouched) {
    const auto model = make_model(4, 2);
    const auto config = base_config(model);
    auto out = apply(model, config, cluster::increase_cpu{model.tier_vms(app_id{0}, 0)[0]});
    const auto before = out;
    EXPECT_THROW(apply_into(model, config, cluster::power_on{host_id{0}}, out),
                 invariant_error);
    EXPECT_THROW(apply(model, config, cluster::power_on{host_id{0}}), invariant_error);
    EXPECT_EQ(out, before);
    EXPECT_EQ(out.hash(), before.hash());
}

// A failed host is fenced: power_on is inapplicable and never enumerated,
// and a different powered-off host still gets the power_on offer.
TEST(ActionRoundTrip, FailedHostIsFencedFromPowerOn) {
    const auto model = make_model(4, 1);
    auto config = base_config(model);
    const host_id failed{3};
    ASSERT_EQ(config.vm_count_on(failed), 0u);
    config.set_host_failed(failed, true);
    EXPECT_FALSE(config.host_on(failed));

    std::string why;
    EXPECT_FALSE(applicable(model, config, cluster::power_on{failed}, &why));
    EXPECT_EQ(why, "host failed");

    // Another host powered off deliberately must still be offered.
    const host_id off{2};
    for (vm_id vm : config.vms_on(off)) {
        // Migrate its VMs away so it can be shut down.
        for (std::size_t h = 0; h < model.host_count(); ++h) {
            const host_id target{static_cast<std::int32_t>(h)};
            if (target == off || target == failed) continue;
            const cluster::action m = cluster::migrate{vm, target};
            if (applicable(model, config, m)) {
                config = apply(model, config, m);
                break;
            }
        }
    }
    if (config.vm_count_on(off) == 0) {
        config.set_host_power(off, false);
        bool offered = false;
        for (const auto& a : enumerate_actions(model, config)) {
            if (const auto* p = std::get_if<cluster::power_on>(&a)) {
                EXPECT_EQ(p->host, off);
                EXPECT_NE(p->host, failed);
                offered = true;
            }
        }
        EXPECT_TRUE(offered);
    }
}

}  // namespace
}  // namespace mistral
