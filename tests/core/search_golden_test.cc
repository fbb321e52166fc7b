// Golden decisions of adaptation_search::find.
//
// Each case searches from a configuration reached by a seeded random walk of
// enumerate_actions + apply steps over a RUBiS scenario, under the model
// clock, so the result is deterministic. The plan, the expansion and child
// counts, the pruning flag and the expected utility are pinned: a change to
// how the search drafts, prunes, stores or deduplicates vertices must leave
// every one of them as it is. A budget of 0 puts the self-aware search into
// pruning mode at its first expansion; 1e6 leaves it to the delay threshold.
//
// When a change means to move a decision, the failure message prints the
// case's replacement row.
#include "core/search.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"

namespace mistral::core {
namespace {

enum class restriction { none, failed_host, host_scope, app_hosts, power_cap };

struct golden_case {
    std::size_t hosts = 0;
    std::size_t apps = 0;
    std::uint64_t seed = 0;  // walk and rates
    int walk_steps = 0;
    seconds cw = 0.0;
    dollars budget = 0.0;
    bool self_aware = true;
    restriction limit = restriction::none;
};

struct golden_result {
    std::vector<std::string> plan;
    std::size_t expansions = 0;
    std::size_t generated = 0;
    bool pruned = false;
    double expected_utility = 0.0;
};

const std::vector<golden_case>& cases() {
    using enum restriction;
    static const std::vector<golden_case> all = {
        // 8 hosts / 4 apps: self-aware only.
        {8, 4, 101, 0, 600.0, 0.0, true, none},
        {8, 4, 102, 0, 600.0, 1e6, true, none},
        {8, 4, 103, 4, 120.0, 0.0, true, none},
        {8, 4, 104, 4, 120.0, 1e6, true, none},
        {8, 4, 105, 8, 600.0, 0.0, true, none},
        {8, 4, 106, 8, 600.0, 1e6, true, none},
        {8, 4, 107, 12, 120.0, 0.0, true, none},
        {8, 4, 108, 12, 600.0, 1e6, true, none},
        {8, 4, 109, 16, 120.0, 1e6, true, none},
        {8, 4, 110, 6, 600.0, 0.0, true, failed_host},
        {8, 4, 111, 6, 600.0, 1e6, true, host_scope},
        {8, 4, 112, 6, 120.0, 0.0, true, app_hosts},
        // 4 hosts / 2 apps: self-aware and naive.
        {4, 2, 201, 0, 600.0, 0.0, true, none},
        {4, 2, 202, 0, 600.0, 1e6, false, none},
        {4, 2, 203, 3, 120.0, 0.0, true, none},
        {4, 2, 204, 3, 120.0, 1e6, false, none},
        {4, 2, 205, 6, 600.0, 1e6, true, none},
        {4, 2, 206, 6, 600.0, 0.0, false, none},
        {4, 2, 207, 9, 120.0, 1e6, true, none},
        {4, 2, 208, 9, 600.0, 0.0, true, none},
        {4, 2, 209, 12, 120.0, 1e6, false, none},
        {4, 2, 210, 5, 600.0, 1e6, true, power_cap},
        {4, 2, 211, 5, 120.0, 0.0, true, power_cap},
        {4, 2, 212, 7, 600.0, 0.0, true, failed_host},
    };
    return all;
}

// Pinned at the commit before the search stopped drafting pruned children
// and storing configurations for unexpanded vertices; one row per case.
const std::vector<golden_result>& goldens() {
    static const std::vector<golden_result> all = {
        {{"increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm16(RUBiS-4/app0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "migrate vm0(RUBiS-1/web0) -> host2",
          "migrate vm1(RUBiS-1/app0) -> host4",
          "migrate vm3(RUBiS-1/db0) -> host5",
          "migrate vm5(RUBiS-2/web0) -> host5",
          "migrate vm10(RUBiS-3/web0) -> host7",
          "migrate vm15(RUBiS-4/web0) -> host3",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm13(RUBiS-3/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "power_off host0",
          "power_off host1"},
         176, 30122, true, 9.8483151636684596},
        {{"increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm11(RUBiS-3/app0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm16(RUBiS-4/app0)",
          "decrease_cpu vm16(RUBiS-4/app0)",
          "migrate vm15(RUBiS-4/web0) -> host3",
          "migrate vm16(RUBiS-4/app0) -> host5",
          "migrate vm18(RUBiS-4/db0) -> host1",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm13(RUBiS-3/db0)",
          "increase_cpu vm13(RUBiS-3/db0)",
          "power_off host6",
          "power_off host7"},
         176, 30120, true, 30.3555122908407},
        {{"increase_cpu vm16(RUBiS-4/app0)",
          "remove_replica vm7(RUBiS-2/app1)",
          "remove_replica vm19(RUBiS-4/db1)",
          "decrease_cpu vm13(RUBiS-3/db0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm11(RUBiS-3/app0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "migrate vm0(RUBiS-1/web0) -> host3",
          "migrate vm1(RUBiS-1/app0) -> host3",
          "migrate vm3(RUBiS-1/db0) -> host4",
          "migrate vm5(RUBiS-2/web0) -> host4",
          "migrate vm10(RUBiS-3/web0) -> host6",
          "migrate vm11(RUBiS-3/app0) -> host0",
          "migrate vm15(RUBiS-4/web0) -> host7",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "power_off host1",
          "power_off host2",
          "power_off host5"},
         36, 6119, true, 0.24775397033483579},
        {{"increase_cpu vm13(RUBiS-3/db0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm8(RUBiS-2/db0)",
          "decrease_cpu vm8(RUBiS-2/db0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm11(RUBiS-3/app0)",
          "migrate vm0(RUBiS-1/web0) -> host4",
          "migrate vm3(RUBiS-1/db0) -> host4",
          "migrate vm8(RUBiS-2/db0) -> host3",
          "migrate vm10(RUBiS-3/web0) -> host3",
          "migrate vm11(RUBiS-3/app0) -> host0",
          "migrate vm15(RUBiS-4/web0) -> host0",
          "increase_cpu vm16(RUBiS-4/app0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm15(RUBiS-4/web0)",
          "power_off host1",
          "power_off host2",
          "power_off host5"},
         36, 6115, true, -0.05036736042471307},
        {{"increase_cpu vm1(RUBiS-1/app0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "remove_replica vm12(RUBiS-3/app1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "migrate vm15(RUBiS-4/web0) -> host0",
          "migrate vm16(RUBiS-4/app0) -> host5",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm13(RUBiS-3/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "power_off host7"},
         175, 30109, true, 26.110213890645589},
        {{"increase_cpu vm16(RUBiS-4/app0)",
          "remove_replica vm7(RUBiS-2/app1)",
          "remove_replica vm9(RUBiS-2/db1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm8(RUBiS-2/db0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm11(RUBiS-3/app0)",
          "decrease_cpu vm11(RUBiS-3/app0)",
          "decrease_cpu vm13(RUBiS-3/db0)",
          "decrease_cpu vm13(RUBiS-3/db0)",
          "decrease_cpu vm13(RUBiS-3/db0)",
          "migrate vm6(RUBiS-2/app0) -> host1",
          "migrate vm8(RUBiS-2/db0) -> host7",
          "migrate vm10(RUBiS-3/web0) -> host2",
          "migrate vm11(RUBiS-3/app0) -> host2",
          "migrate vm13(RUBiS-3/db0) -> host2",
          "increase_cpu vm1(RUBiS-1/app0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "power_off host3",
          "power_off host4",
          "power_off host5"},
         173, 30133, true, 11.830025785501952},
        {{"remove_replica vm7(RUBiS-2/app1)",
          "remove_replica vm9(RUBiS-2/db1)",
          "remove_replica vm12(RUBiS-3/app1)",
          "remove_replica vm14(RUBiS-3/db1)",
          "remove_replica vm17(RUBiS-4/app1)",
          "remove_replica vm19(RUBiS-4/db1)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm11(RUBiS-3/app0)",
          "decrease_cpu vm11(RUBiS-3/app0)",
          "decrease_cpu vm13(RUBiS-3/db0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm16(RUBiS-4/app0)",
          "decrease_cpu vm16(RUBiS-4/app0)",
          "migrate vm0(RUBiS-1/web0) -> host0",
          "migrate vm10(RUBiS-3/web0) -> host3",
          "migrate vm11(RUBiS-3/app0) -> host3",
          "migrate vm13(RUBiS-3/db0) -> host1",
          "migrate vm15(RUBiS-4/web0) -> host6",
          "migrate vm16(RUBiS-4/app0) -> host6",
          "increase_cpu vm1(RUBiS-1/app0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "power_off host4",
          "power_off host5",
          "power_off host7"},
         38, 6026, true, -2.413960208160066},
        {{"increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm13(RUBiS-3/db0)",
          "remove_replica vm4(RUBiS-1/db1)",
          "remove_replica vm9(RUBiS-2/db1)",
          "remove_replica vm12(RUBiS-3/app1)",
          "remove_replica vm16(RUBiS-4/app0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm18(RUBiS-4/db0)",
          "migrate vm1(RUBiS-1/app0) -> host1",
          "migrate vm5(RUBiS-2/web0) -> host1",
          "migrate vm10(RUBiS-3/web0) -> host3",
          "migrate vm15(RUBiS-4/web0) -> host5",
          "migrate vm18(RUBiS-4/db0) -> host4",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm1(RUBiS-1/app0)",
          "power_off host6",
          "power_off host7"},
         189, 30122, true, -0.59223133419009066},
        {{"increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm16(RUBiS-4/app0)",
          "increase_cpu vm16(RUBiS-4/app0)",
          "remove_replica vm2(RUBiS-1/app1)",
          "remove_replica vm7(RUBiS-2/app1)",
          "remove_replica vm9(RUBiS-2/db1)",
          "remove_replica vm12(RUBiS-3/app1)",
          "remove_replica vm17(RUBiS-4/app1)",
          "remove_replica vm19(RUBiS-4/db1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm11(RUBiS-3/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm13(RUBiS-3/db0)",
          "migrate vm1(RUBiS-1/app0) -> host3",
          "migrate vm3(RUBiS-1/db0) -> host4",
          "migrate vm5(RUBiS-2/web0) -> host5",
          "migrate vm10(RUBiS-3/web0) -> host6",
          "migrate vm13(RUBiS-3/db0) -> host5",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm15(RUBiS-4/web0)",
          "increase_cpu vm15(RUBiS-4/web0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "power_off host0",
          "power_off host2"},
         47, 6015, true, -2.2927015100966903},
        {{"increase_cpu vm1(RUBiS-1/app0)",
          "remove_replica vm19(RUBiS-4/db1)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm8(RUBiS-2/db0)",
          "decrease_cpu vm8(RUBiS-2/db0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "migrate vm0(RUBiS-1/web0) -> host2",
          "migrate vm5(RUBiS-2/web0) -> host0",
          "migrate vm8(RUBiS-2/db0) -> host1",
          "migrate vm10(RUBiS-3/web0) -> host5",
          "migrate vm15(RUBiS-4/web0) -> host5",
          "migrate vm16(RUBiS-4/app0) -> host2",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm13(RUBiS-3/db0)",
          "increase_cpu vm13(RUBiS-3/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm16(RUBiS-4/app0)",
          "power_off host3"},
         197, 30014, true, 10.603938010957773},
        {{},
         4000, 239130, true, 0},
        {{"increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "increase_cpu vm18(RUBiS-4/db0)",
          "remove_replica vm14(RUBiS-3/db1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm10(RUBiS-3/web0)",
          "decrease_cpu vm15(RUBiS-4/web0)",
          "migrate vm1(RUBiS-1/app0) -> host1",
          "migrate vm3(RUBiS-1/db0) -> host1",
          "migrate vm5(RUBiS-2/web0) -> host5",
          "migrate vm10(RUBiS-3/web0) -> host5",
          "migrate vm11(RUBiS-3/app0) -> host4",
          "migrate vm15(RUBiS-4/web0) -> host7",
          "migrate vm16(RUBiS-4/app0) -> host0",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm16(RUBiS-4/app0)",
          "increase_cpu vm16(RUBiS-4/app0)"},
         62, 6057, true, -2.9681442206368271},
        {{"increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "migrate vm1(RUBiS-1/app0) -> host0",
          "migrate vm3(RUBiS-1/db0) -> host2",
          "migrate vm5(RUBiS-2/web0) -> host0",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "power_off host1"},
         657, 30037, true, 5.3922699161847074},
        {{"increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)"},
         475, 21816, false, 21.100890602777358},
        {{"increase_cpu vm6(RUBiS-2/app0)",
          "remove_replica vm2(RUBiS-1/app1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "migrate vm5(RUBiS-2/web0) -> host0",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "power_off host1"},
         127, 6036, true, 1.1595737722376804},
        {{"remove_replica vm2(RUBiS-1/app1)",
          "remove_replica vm4(RUBiS-1/db1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm8(RUBiS-2/db0)",
          "decrease_cpu vm8(RUBiS-2/db0)",
          "migrate vm6(RUBiS-2/app0) -> host1",
          "migrate vm8(RUBiS-2/db0) -> host1",
          "power_off host2",
          "power_off host3"},
         4000, 168279, false, 0.22529265165855455},
        {{"increase_cpu vm8(RUBiS-2/db0)",
          "remove_replica vm2(RUBiS-1/app1)",
          "remove_replica vm7(RUBiS-2/app1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "migrate vm1(RUBiS-1/app0) -> host0",
          "migrate vm5(RUBiS-2/web0) -> host3",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "power_off host2"},
         627, 30042, true, 9.0688995458401198},
        {{"increase_cpu vm9(RUBiS-2/db1)",
          "increase_cpu vm9(RUBiS-2/db1)",
          "remove_replica vm7(RUBiS-2/app1)",
          "remove_replica vm8(RUBiS-2/db0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm3(RUBiS-1/db0)",
          "power_off host1"},
         4000, 172603, false, 16.941425358757261},
        {{"increase_cpu vm6(RUBiS-2/app0)",
          "remove_replica vm9(RUBiS-2/db1)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "migrate vm0(RUBiS-1/web0) -> host1",
          "migrate vm3(RUBiS-1/db0) -> host3",
          "power_off host0",
          "power_off host2"},
         127, 6034, true, -0.066627248607218054},
        {{"remove_replica vm7(RUBiS-2/app1)",
          "migrate vm0(RUBiS-1/web0) -> host1",
          "migrate vm5(RUBiS-2/web0) -> host1",
          "migrate vm6(RUBiS-2/app0) -> host2",
          "remove_replica vm4(RUBiS-1/db1)",
          "migrate vm8(RUBiS-2/db0) -> host2",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "remove_replica vm2(RUBiS-1/app1)",
          "power_off host3",
          "power_off host0",
          "decrease_cpu vm8(RUBiS-2/db0)",
          "decrease_cpu vm8(RUBiS-2/db0)"},
         412, 17614, true, 6.08549250058525},
        {{"increase_cpu vm3(RUBiS-1/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "remove_replica vm2(RUBiS-1/app1)",
          "remove_replica vm7(RUBiS-2/app1)",
          "remove_replica vm9(RUBiS-2/db1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "decrease_cpu vm6(RUBiS-2/app0)",
          "migrate vm5(RUBiS-2/web0) -> host0",
          "migrate vm6(RUBiS-2/app0) -> host1",
          "increase_cpu vm1(RUBiS-1/app0)",
          "increase_cpu vm1(RUBiS-1/app0)",
          "power_off host2"},
         4000, 174853, false, 0.075561001018927723},
        {{"remove_replica vm1(RUBiS-1/app0)",
          "remove_replica vm4(RUBiS-1/db1)",
          "remove_replica vm7(RUBiS-2/app1)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm3(RUBiS-1/db0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "migrate vm5(RUBiS-2/web0) -> host0",
          "power_off host1",
          "power_off host2"},
         692, 30035, true, 3.0000913292961071},
        {{},
         4000, 175750, true, 0},
        {{"decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm5(RUBiS-2/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm0(RUBiS-1/web0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "decrease_cpu vm1(RUBiS-1/app0)",
          "migrate vm0(RUBiS-1/web0) -> host1",
          "migrate vm1(RUBiS-1/app0) -> host2",
          "migrate vm3(RUBiS-1/db0) -> host2",
          "migrate vm6(RUBiS-2/app0) -> host1",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm8(RUBiS-2/db0)",
          "increase_cpu vm6(RUBiS-2/app0)",
          "increase_cpu vm6(RUBiS-2/app0)"},
         1012, 30021, true, -6.1915270629455552},
    };
    return all;
}

struct built_case {
    core::scenario scn;
    cluster::configuration start;
    std::vector<req_per_sec> rates;
    search_options options;
};

built_case build(const golden_case& gc) {
    scenario_options so;
    so.host_count = gc.hosts;
    so.app_count = gc.apps;
    built_case out{make_rubis_scenario(so), {}, {}, {}};
    const auto& model = out.scn.model;
    rng gen(gc.seed);
    auto c = out.scn.initial;
    if (gc.limit == restriction::failed_host) {
        // Empty the last host through the first applicable migrations, then
        // fence it: the walk and the search must route around it.
        const host_id last{static_cast<std::int32_t>(model.host_count() - 1)};
        for (const vm_id vm : c.vms_on(last)) {
            for (std::size_t h = 0; h + 1 < model.host_count(); ++h) {
                const cluster::action a =
                    cluster::migrate{vm, host_id{static_cast<std::int32_t>(h)}};
                if (applicable(model, c, a)) {
                    c = apply(model, c, a);
                    break;
                }
            }
        }
        c.set_host_failed(last, true);
    }
    for (int step = 0; step < gc.walk_steps; ++step) {
        const auto acts = enumerate_actions(model, c);
        c = apply(model, c, acts[gen.uniform_index(acts.size())]);
    }
    out.start = std::move(c);
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        out.rates.push_back(gen.uniform(5.0, 100.0));
    }
    out.options.self_aware = gc.self_aware;
    switch (gc.limit) {
        case restriction::host_scope:
            out.options.host_scope.assign(model.host_count(), false);
            for (std::size_t h = 0; h < model.host_count() / 2; ++h) {
                out.options.host_scope[h] = true;
            }
            break;
        case restriction::app_hosts:
            // Each app's pool: its own host pair and the next one.
            out.options.app_hosts.assign(model.app_count(),
                                         std::vector<bool>(model.host_count(), false));
            for (std::size_t a = 0; a < model.app_count(); ++a) {
                for (std::size_t k = 0; k < 4; ++k) {
                    out.options.app_hosts[a][(2 * a + k) % model.host_count()] = true;
                }
            }
            break;
        case restriction::power_cap:
            out.options.power_cap = 70.0 * static_cast<double>(model.host_count());
            break;
        default:
            break;
    }
    return out;
}

golden_result run(const built_case& bc, const golden_case& gc) {
    const adaptation_search search(bc.scn.model, utility_model{},
                                   cost::cost_table::paper_defaults(), bc.options);
    model_clock_meter meter;
    const auto r = search.find(bc.start, bc.rates, gc.cw, gc.budget, meter);
    golden_result out;
    for (const auto& a : r.actions) out.plan.push_back(to_string(bc.scn.model, a));
    out.expansions = r.stats.expansions;
    out.generated = r.stats.generated;
    out.pruned = r.stats.pruned;
    out.expected_utility = r.expected_utility;
    return out;
}

// The case's row in the goldens() table's syntax.
std::string row(const golden_result& r) {
    std::string s = "        {{";
    for (std::size_t i = 0; i < r.plan.size(); ++i) {
        s += (i == 0 ? "\"" : ",\n          \"") + r.plan[i] + "\"";
    }
    char tail[128];
    std::snprintf(tail, sizeof tail, "},\n         %zu, %zu, %s, %.17g},",
                  r.expansions, r.generated, r.pruned ? "true" : "false",
                  r.expected_utility);
    return s + tail;
}

TEST(SearchGoldenTable, OneRowPerCaseAndAThirdOfThemPrune) {
    ASSERT_EQ(goldens().size(), cases().size());
    std::size_t pruned = 0;
    for (const auto& g : goldens()) pruned += g.pruned ? 1 : 0;
    // Pruning is the path the golden rows exist to hold still.
    EXPECT_GE(3 * pruned, cases().size());
}

class SearchGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SearchGolden, DecisionMatchesItsGoldenRow) {
    const std::size_t i = GetParam();
    const auto bc = build(cases()[i]);
    ASSERT_TRUE(cluster::structurally_valid(bc.scn.model, bc.start));
    const auto got = run(bc, cases()[i]);
    ASSERT_LT(i, goldens().size()) << "no golden row; this case decided\n" << row(got);
    const auto& want = goldens()[i];
    const bool same =
        got.plan == want.plan && got.expansions == want.expansions &&
        got.generated == want.generated && got.pruned == want.pruned &&
        std::abs(got.expected_utility - want.expected_utility) <=
            1e-12 * std::abs(want.expected_utility);
    EXPECT_TRUE(same) << "this case decided\n" << row(got);
}

INSTANTIATE_TEST_SUITE_P(Cases, SearchGolden,
                         ::testing::Range<std::size_t>(0, cases().size()));

}  // namespace
}  // namespace mistral::core
