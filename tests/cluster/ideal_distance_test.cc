// The search's pruning distance, scored without building the child.
//
// adaptation_search ranks every child of a pruning expansion by
// child_distance, which substitutes the one placement an action changes into
// the parent's per-VM terms. Along random walks — replica adds and removes,
// CPU steps up to both tier edges, host power cycles and a failed host — it
// is bit-equal, on every applicable action, to the reference
// cap_distance + placement_distance on the built child, against an ideal
// that leaves some VMs dormant. Runs under the `sanitize` CTest label.
#include "cluster/action.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "apps/rubis.h"
#include "common/rng.h"

namespace mistral::cluster {
namespace {

double reference(const cluster_model& model, const configuration& c,
                 const configuration& ideal) {
    return cap_distance(model, c, ideal, ideal) + placement_distance(model, c, ideal);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(IdealDistance, ChildDistanceMatchesReferenceOnRandomWalks) {
    std::vector<apps::application_spec> specs;
    specs.push_back(apps::rubis_browsing("R0"));
    specs.push_back(apps::two_tier_demo("D1"));
    specs.push_back(apps::rubis_browsing("R2"));
    const cluster_model model(uniform_hosts(6), std::move(specs));

    // Every tier's first replica deployed, caps off the 0.1 grid; the second
    // app and database replicas stay dormant in the ideal.
    configuration ideal(model.vm_count(), model.host_count());
    configuration start(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 5; ++h) ideal.set_host_power(host_id{h}, true);
    for (std::int32_t h = 0; h < 4; ++h) start.set_host_power(host_id{h}, true);
    std::size_t dormant_in_ideal = model.vm_count();
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            const vm_id vm = model.tier_vms(app, t)[0];
            ideal.deploy(vm, host_id{static_cast<std::int32_t>((2 * a + t) % 5)},
                         0.25 + 0.05 * static_cast<double>(t));
            start.deploy(vm, host_id{static_cast<std::int32_t>((a + t) % 4)}, 0.4);
            --dormant_in_ideal;
        }
    }
    ASSERT_GT(dormant_in_ideal, 0u);
    ASSERT_TRUE(structurally_valid(model, start));

    ideal_distance d(model, ideal);
    rng gen(20261020);
    std::vector<std::size_t> kinds(7, 0);
    std::size_t checked = 0, to_max = 0, to_min = 0, failed_parents = 0;
    for (int walk = 0; walk < 6; ++walk) {
        auto c = start;
        for (int step = 0; step < 80; ++step) {
            ASSERT_TRUE(structurally_valid(model, c));
            failed_parents += c.any_host_failed() ? 1 : 0;
            d.set_parent(c);
            ASSERT_EQ(bits(d.of_parent()), bits(reference(model, c, ideal)))
                << "walk " << walk << " step " << step;
            const auto acts = enumerate_actions(model, c);
            ASSERT_FALSE(acts.empty());
            for (const auto& a : acts) {
                const auto child = apply(model, c, a);
                ASSERT_EQ(bits(child_distance(model, c, a, d)),
                          bits(reference(model, child, ideal)))
                    << to_string(model, a) << " walk " << walk << " step " << step;
                ++checked;
                ++kinds[static_cast<std::size_t>(kind_of(a))];
                if (const auto* x = std::get_if<increase_cpu>(&a)) {
                    to_max += child.placement(x->vm)->cpu_cap ==
                              model.tier_spec_of(x->vm).max_cpu_cap;
                } else if (const auto* y = std::get_if<decrease_cpu>(&a)) {
                    to_min += child.placement(y->vm)->cpu_cap ==
                              model.tier_spec_of(y->vm).min_cpu_cap;
                }
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
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        EXPECT_GT(kinds[k], 0u) << to_string(static_cast<action_kind>(k));
    }
    EXPECT_GT(to_max, 0u);
    EXPECT_GT(to_min, 0u);
    EXPECT_GT(failed_parents, 0u);
}

}  // namespace
}  // namespace mistral::cluster
