#include "cluster/action.h"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>

#include "common/check.h"
#include "common/inline_buffer.h"

namespace mistral::cluster {

const char* to_string(action_kind kind) {
    switch (kind) {
        case action_kind::increase_cpu: return "increase_cpu";
        case action_kind::decrease_cpu: return "decrease_cpu";
        case action_kind::add_replica: return "add_replica";
        case action_kind::remove_replica: return "remove_replica";
        case action_kind::migrate: return "migrate";
        case action_kind::power_on: return "power_on";
        case action_kind::power_off: return "power_off";
    }
    return "unknown";
}

action_kind kind_of(const action& a) {
    return std::visit(
        [](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, increase_cpu>) return action_kind::increase_cpu;
            else if constexpr (std::is_same_v<T, decrease_cpu>) return action_kind::decrease_cpu;
            else if constexpr (std::is_same_v<T, add_replica>) return action_kind::add_replica;
            else if constexpr (std::is_same_v<T, remove_replica>) return action_kind::remove_replica;
            else if constexpr (std::is_same_v<T, migrate>) return action_kind::migrate;
            else if constexpr (std::is_same_v<T, power_on>) return action_kind::power_on;
            else return action_kind::power_off;
        },
        a);
}

namespace {

std::string vm_label(const cluster_model& model, vm_id vm) {
    const auto& desc = model.vm(vm);
    const auto& app = model.app(desc.app);
    std::ostringstream os;
    os << vm << "(" << app.name() << "/" << app.tiers()[desc.tier].name
       << desc.replica_index << ")";
    return os.str();
}

// Count of deployed replicas in the (app, tier) that owns `vm`.
int deployed_replicas(const cluster_model& model, const configuration& config,
                      vm_id vm) {
    const auto& desc = model.vm(vm);
    int n = 0;
    for (vm_id peer : model.tier_vms(desc.app, desc.tier)) {
        n += config.deployed(peer) ? 1 : 0;
    }
    return n;
}

// Per-host memory already committed, when the caller has precomputed it for
// a whole batch of checks (enumerate_actions); nullptr recomputes on demand.
using host_memory = std::span<const double>;

bool host_has_room(const cluster_model& model, const configuration& config,
                   host_id host, double extra_memory_mb,
                   const host_memory* memory, std::string* why) {
    if (config.host_failed(host)) {
        if (why) *why = "target host failed";
        return false;
    }
    if (!config.host_on(host)) {
        if (why) *why = "target host is powered off";
        return false;
    }
    if (static_cast<int>(config.vm_count_on(host)) + 1 >
        model.limits().max_vms_per_host) {
        if (why) *why = "target host VM slots full";
        return false;
    }
    const double used = memory ? (*memory)[host.index()]
                               : config.memory_sum(model, host);
    const double available = model.hosts()[host.index()].memory_mb -
                             model.limits().dom0_memory_mb - used;
    if (extra_memory_mb > available + 1e-9) {
        if (why) *why = "target host memory full";
        return false;
    }
    return true;
}

}  // namespace

std::string to_string(const cluster_model& model, const action& a) {
    std::ostringstream os;
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, increase_cpu>) {
                os << "increase_cpu " << vm_label(model, x.vm);
            } else if constexpr (std::is_same_v<T, decrease_cpu>) {
                os << "decrease_cpu " << vm_label(model, x.vm);
            } else if constexpr (std::is_same_v<T, add_replica>) {
                os << "add_replica " << vm_label(model, x.vm) << " -> "
                   << model.hosts()[x.to.index()].name << " @"
                   << static_cast<int>(x.cpu_cap * 100) << "%";
            } else if constexpr (std::is_same_v<T, remove_replica>) {
                os << "remove_replica " << vm_label(model, x.vm);
            } else if constexpr (std::is_same_v<T, migrate>) {
                os << "migrate " << vm_label(model, x.vm) << " -> "
                   << model.hosts()[x.to.index()].name;
            } else if constexpr (std::is_same_v<T, power_on>) {
                os << "power_on " << model.hosts()[x.host.index()].name;
            } else {
                os << "power_off " << model.hosts()[x.host.index()].name;
            }
        },
        a);
    return os.str();
}

namespace {

bool applicable_impl(const cluster_model& model, const configuration& config,
                     const action& a, const host_memory* memory,
                     std::string* why) {
    const auto step = model.limits().cpu_step;
    return std::visit(
        [&](const auto& x) -> bool {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, increase_cpu>) {
                const auto& p = config.placement(x.vm);
                if (!p) { if (why) *why = "VM is dormant"; return false; }
                const auto& tier = model.tier_spec_of(x.vm);
                if (p->cpu_cap + step > tier.max_cpu_cap + 1e-9) {
                    if (why) *why = "cap already at tier maximum";
                    return false;
                }
                return true;
            } else if constexpr (std::is_same_v<T, decrease_cpu>) {
                const auto& p = config.placement(x.vm);
                if (!p) { if (why) *why = "VM is dormant"; return false; }
                const auto& tier = model.tier_spec_of(x.vm);
                if (p->cpu_cap - step < tier.min_cpu_cap - 1e-9) {
                    if (why) *why = "cap already at tier minimum";
                    return false;
                }
                return true;
            } else if constexpr (std::is_same_v<T, add_replica>) {
                if (config.deployed(x.vm)) {
                    if (why) *why = "replica already deployed";
                    return false;
                }
                const auto& tier = model.tier_spec_of(x.vm);
                if (x.cpu_cap < tier.min_cpu_cap - 1e-9 ||
                    x.cpu_cap > tier.max_cpu_cap + 1e-9) {
                    if (why) *why = "cap outside tier window";
                    return false;
                }
                return host_has_room(model, config, x.to,
                                     model.vm(x.vm).memory_mb, memory, why);
            } else if constexpr (std::is_same_v<T, remove_replica>) {
                if (!config.deployed(x.vm)) {
                    if (why) *why = "VM is dormant";
                    return false;
                }
                const auto& tier = model.tier_spec_of(x.vm);
                if (deployed_replicas(model, config, x.vm) - 1 < tier.min_replicas) {
                    if (why) *why = "tier at minimum replication";
                    return false;
                }
                return true;
            } else if constexpr (std::is_same_v<T, migrate>) {
                const auto& p = config.placement(x.vm);
                if (!p) { if (why) *why = "VM is dormant"; return false; }
                if (p->host == x.to) {
                    if (why) *why = "already on target host";
                    return false;
                }
                return host_has_room(model, config, x.to,
                                     model.vm(x.vm).memory_mb, memory, why);
            } else if constexpr (std::is_same_v<T, power_on>) {
                if (config.host_failed(x.host)) {
                    if (why) *why = "host failed";
                    return false;
                }
                if (config.host_on(x.host)) {
                    if (why) *why = "host already on";
                    return false;
                }
                return true;
            } else {
                if (!config.host_on(x.host)) {
                    if (why) *why = "host already off";
                    return false;
                }
                if (config.vm_count_on(x.host) != 0) {
                    if (why) *why = "host still has VMs";
                    return false;
                }
                return true;
            }
        },
        a);
}

}  // namespace

bool applicable(const cluster_model& model, const configuration& config,
                const action& a, std::string* why) {
    return applicable_impl(model, config, a, nullptr, why);
}

configuration apply(const cluster_model& model, const configuration& config,
                    const action& a) {
    configuration next;
    apply_into(model, config, a, next);
    return next;
}

void apply_into(const cluster_model& model, const configuration& config,
                const action& a, configuration& out) {
    std::string why;
    MISTRAL_CHECK_MSG(applicable(model, config, a, &why),
                      "inapplicable action " << to_string(model, a) << ": " << why);
    // Each branch reads what it needs from `config` before mutating `out`,
    // so the two may be one object.
    if (&out != &config) out = config;
    const auto step = model.limits().cpu_step;
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, increase_cpu>) {
                out.set_cap(x.vm, config.placement(x.vm)->cpu_cap + step);
            } else if constexpr (std::is_same_v<T, decrease_cpu>) {
                out.set_cap(x.vm, config.placement(x.vm)->cpu_cap - step);
            } else if constexpr (std::is_same_v<T, add_replica>) {
                out.deploy(x.vm, x.to, x.cpu_cap);
            } else if constexpr (std::is_same_v<T, remove_replica>) {
                out.undeploy(x.vm);
            } else if constexpr (std::is_same_v<T, migrate>) {
                out.deploy(x.vm, x.to, config.placement(x.vm)->cpu_cap);
            } else if constexpr (std::is_same_v<T, power_on>) {
                out.set_host_power(x.host, true);
            } else {
                out.set_host_power(x.host, false);
            }
        },
        a);
#ifndef NDEBUG
    // Debug-build invariant: the incremental Zobrist hash must equal a full
    // recompute after every edge expansion (the sanitize-labeled randomized
    // hash test exercises the same property in release builds).
    MISTRAL_CHECK_MSG(out.verify_hash(),
                      "incremental hash diverged applying " << to_string(model, a));
#endif
}

bool is_candidate_child(const cluster_model& model, const configuration& parent,
                        const configuration& child, const action& a) {
    const auto& limits = model.limits();
    // What `a` touched: at most one VM and two hosts. Everything else is as
    // in the valid parent.
    vm_id vm;
    std::array<host_id, 2> hosts;
    std::size_t host_n = 0;
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, power_on> || std::is_same_v<T, power_off>) {
                hosts[host_n++] = x.host;
            } else {
                vm = x.vm;
                if constexpr (std::is_same_v<T, migrate> ||
                              std::is_same_v<T, remove_replica>) {
                    hosts[host_n++] = parent.placement(x.vm)->host;
                }
                if constexpr (std::is_same_v<T, migrate> ||
                              std::is_same_v<T, add_replica>) {
                    hosts[host_n++] = x.to;
                }
            }
        },
        a);
    // structurally_valid's comparisons, on the touched hosts only.
    for (std::size_t i = 0; i < host_n; ++i) {
        const host_id h = hosts[i];
        if (child.host_failed(h) && child.host_on(h)) return false;
        if (!child.host_on(h) && child.vm_count_on(h) != 0) return false;
        if (static_cast<int>(child.vm_count_on(h)) > limits.max_vms_per_host) {
            return false;
        }
        const double available =
            model.hosts()[h.index()].memory_mb - limits.dom0_memory_mb;
        if (child.memory_sum(model, h) > available + 1e-9) return false;
    }
    if (vm.valid()) {
        const auto& tier = model.tier_spec_of(vm);
        if (const auto& p = child.placement(vm)) {
            if (p->cpu_cap < tier.min_cpu_cap - 1e-9 ||
                p->cpu_cap > tier.max_cpu_cap + 1e-9) {
                return false;
            }
        }
        if (deployed_replicas(model, child, vm) < tier.min_replicas) return false;
    }
    // The packing constraint, as is_candidate checks it.
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        if (child.cap_sum(host_id{static_cast<std::int32_t>(h)}) >
            limits.host_cpu_cap + 1e-9) {
            return false;
        }
    }
    return true;
}

double child_distance(const cluster_model& model, const configuration& parent,
                      const action& a, const ideal_distance& d) {
    const auto step = model.limits().cpu_step;
    return std::visit(
        [&](const auto& x) -> double {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, increase_cpu>) {
                const auto& p = *parent.placement(x.vm);
                return d.of_child(x.vm, vm_placement{p.host, round_cap(p.cpu_cap + step)});
            } else if constexpr (std::is_same_v<T, decrease_cpu>) {
                const auto& p = *parent.placement(x.vm);
                return d.of_child(x.vm, vm_placement{p.host, round_cap(p.cpu_cap - step)});
            } else if constexpr (std::is_same_v<T, add_replica>) {
                return d.of_child(x.vm, vm_placement{x.to, round_cap(x.cpu_cap)});
            } else if constexpr (std::is_same_v<T, remove_replica>) {
                return d.of_child(x.vm, std::nullopt);
            } else if constexpr (std::is_same_v<T, migrate>) {
                const auto& p = *parent.placement(x.vm);
                return d.of_child(x.vm, vm_placement{x.to, round_cap(p.cpu_cap)});
            } else {
                return d.of_parent();
            }
        },
        a);
}

void enumerate_actions(const cluster_model& model, const configuration& config,
                       const action_menu& menu, std::vector<action>& out) {
    out.clear();
    // One memory pass up front; every migrate/add_replica probe below would
    // otherwise rescan the whole VM inventory per target host. Clusters of up
    // to 64 hosts sum on the stack.
    inline_buffer<double, 64> sums(model.host_count(), 0.0);
    for (const auto& desc : model.vms()) {
        const auto& p = config.placement(desc.vm);
        if (p) sums[p->host.index()] += desc.memory_mb;
    }
    const host_memory memory = sums.span();
    auto offer = [&](action a) {
        if (applicable_impl(model, config, a, &memory, nullptr)) {
            out.push_back(std::move(a));
        }
    };

    for (const auto& desc : model.vms()) {
        if (!config.deployed(desc.vm)) continue;
        if (menu.cpu_tuning) {
            offer(increase_cpu{desc.vm});
            offer(decrease_cpu{desc.vm});
        }
        if (menu.migration) {
            for (std::size_t h = 0; h < model.host_count(); ++h) {
                offer(migrate{desc.vm, host_id{static_cast<std::int32_t>(h)}});
            }
        }
    }

    if (menu.replication) {
        for (std::size_t a = 0; a < model.app_count(); ++a) {
            const app_id app{static_cast<std::int32_t>(a)};
            for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
                const auto& tier_vm_list = model.tier_vms(app, t);
                // Lowest-index dormant replica (replicas are interchangeable).
                for (vm_id vm : tier_vm_list) {
                    if (config.deployed(vm)) continue;
                    const auto cap = model.app(app).tiers()[t].min_cpu_cap;
                    for (std::size_t h = 0; h < model.host_count(); ++h) {
                        offer(add_replica{vm, host_id{static_cast<std::int32_t>(h)}, cap});
                    }
                    break;
                }
                // Highest-index deployed replica.
                for (auto it = tier_vm_list.rbegin(); it != tier_vm_list.rend(); ++it) {
                    if (!config.deployed(*it)) continue;
                    offer(remove_replica{*it});
                    break;
                }
            }
        }
    }

    if (menu.host_power) {
        bool offered_on = false;
        for (std::size_t h = 0; h < model.host_count(); ++h) {
            const host_id host{static_cast<std::int32_t>(h)};
            if (!config.host_on(host)) {
                // One powered-off host is as good as another — but a failed
                // host cannot boot, so it must not consume the one offer.
                if (!offered_on && !config.host_failed(host)) {
                    offer(power_on{host});
                    offered_on = true;
                }
            } else {
                offer(power_off{host});
            }
        }
    }
}

std::vector<action> enumerate_actions(const cluster_model& model,
                                      const configuration& config,
                                      const action_menu& menu) {
    std::vector<action> out;
    enumerate_actions(model, config, menu, out);
    return out;
}

}  // namespace mistral::cluster
