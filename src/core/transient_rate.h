// Transient accounting shared by the A* search (search.cc) and the lookahead
// planner's plan scoring (lookahead.cc): the utility accrual rate while one
// adaptation action executes, predicted from the cost table's deltas.
// Internal to src/core; header-only so the search's per-child call inlines.
// Each caller clamps and accumulates the rate itself: the two accumulations
// associate differently in floating point, and each is pinned bit-for-bit.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/evaluator.h"
#include "core/utility.h"
#include "cost/table.h"

namespace mistral::core::detail {

// VM the action touches; invalid id for host power actions.
inline vm_id touched_vm(const cluster::action& a) {
    return std::visit(
        [](const auto& x) -> vm_id {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::power_on> ||
                          std::is_same_v<T, cluster::power_off>) {
                return vm_id{};
            } else {
                return x.vm;
            }
        },
        a);
}

// Hosts whose applications feel the action's transient: at most two, held
// inline so the search's per-child call allocates nothing. Power cycling
// affects no running application (Section V-B).
struct host_set {
    std::array<host_id, 2> hosts{};
    std::size_t size = 0;
};

inline host_set affected_hosts(const cluster::configuration& config,
                               const cluster::action& a) {
    host_set out;
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::migrate>) {
                out = {{config.placement(x.vm)->host, x.to}, 2};
            } else if constexpr (std::is_same_v<T, cluster::add_replica>) {
                out = {{x.to}, 1};
            } else if constexpr (std::is_same_v<T, cluster::remove_replica> ||
                                 std::is_same_v<T, cluster::increase_cpu> ||
                                 std::is_same_v<T, cluster::decrease_cpu>) {
                out = {{config.placement(x.vm)->host}, 1};
            }
        },
        a);
    return out;
}

// app × host occupancy bitmap of a configuration: occ[s·H + h] is nonzero
// iff application s has a deployed VM on host h. The search computes it once
// per expansion, into one buffer per find(), so the colocation test in
// transient_rate is O(|touched|) instead of a VM-inventory scan per (child,
// app).
inline void occupancy(const cluster::cluster_model& model,
                      const cluster::configuration& c, std::vector<std::uint8_t>& occ) {
    const std::size_t host_count = model.host_count();
    occ.assign(model.app_count() * host_count, 0);
    for (const auto& desc : model.vms()) {
        const auto& p = c.placement(desc.vm);
        if (p) occ[desc.app.index() * host_count + p->host.index()] = 1;
    }
}
inline std::vector<std::uint8_t> occupancy(const cluster::cluster_model& model,
                                           const cluster::configuration& c) {
    std::vector<std::uint8_t> occ;
    occupancy(model, c, occ);
    return occ;
}

// Accrual rate ($/s) while `a` executes in configuration `c`: the power term
// at the transient's extra draw, then each application's performance term,
// in app order. The touched VM's application pays delta_rt_target; any other
// application with a VM on an affected host pays delta_rt_colocated. `ce` is
// c's steady evaluation, `occ` = occupancy(model, c), and `targets` the
// planning targets the rates were bound with.
inline double transient_rate(const cluster::cluster_model& model,
                             const utility_model& utility,
                             const std::vector<req_per_sec>& rates,
                             const std::vector<seconds>& targets,
                             const cluster::configuration& c,
                             const std::vector<std::uint8_t>& occ,
                             const steady_utility& ce, const cluster::action& a,
                             const cost::cost_entry& entry) {
    const std::size_t host_count = model.host_count();
    const vm_id vm = touched_vm(a);
    const auto touched = affected_hosts(c, a);
    double rate = utility.power_rate(std::max(0.0, ce.power + entry.delta_power));
    for (std::size_t s = 0; s < model.app_count(); ++s) {
        seconds rt = ce.response_times[s];
        if (vm.valid() && model.vm(vm).app.index() == s) {
            rt += entry.delta_rt_target;
        } else if (touched.size != 0) {
            bool colocated = false;
            for (std::size_t i = 0; i < touched.size; ++i) {
                if (occ[s * host_count + touched.hosts[i].index()] != 0) {
                    colocated = true;
                    break;
                }
            }
            if (colocated) rt += entry.delta_rt_colocated;
        }
        rate += utility.perf_rate(rates[s], rt, targets[s]);
    }
    return rate;
}

}  // namespace mistral::core::detail
