// Adaptation actions.
//
// Section III-C: "we consider six adaptation actions: increase/decrease a
// VM's CPU capacity by a fixed amount, addition/removal of a VM,
// live-migration of a VM between hosts, and shutting down/restarting
// physical hosts. Addition of a VM replica is implemented by migrating a
// dormant VM from a pool of VMs to the target host and activating it."
//
// Actions are a closed variant; `apply` is a pure function from
// configuration to configuration so the optimizer can expand search-graph
// edges without mutating shared state.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "cluster/configuration.h"
#include "cluster/model.h"

namespace mistral::cluster {

enum class action_kind {
    increase_cpu,
    decrease_cpu,
    add_replica,
    remove_replica,
    migrate,
    power_on,
    power_off,
};

[[nodiscard]] const char* to_string(action_kind kind);

struct increase_cpu {
    vm_id vm;
    friend bool operator==(const increase_cpu&, const increase_cpu&) = default;
};
struct decrease_cpu {
    vm_id vm;
    friend bool operator==(const decrease_cpu&, const decrease_cpu&) = default;
};
// Activates a dormant replica VM on `to` with cap `cpu_cap` (migration from
// the cold-store pool).
struct add_replica {
    vm_id vm;
    host_id to;
    fraction cpu_cap = 0.2;
    friend bool operator==(const add_replica&, const add_replica&) = default;
};
// Deactivates a deployed replica (migration back to the pool).
struct remove_replica {
    vm_id vm;
    friend bool operator==(const remove_replica&, const remove_replica&) = default;
};
struct migrate {
    vm_id vm;
    host_id to;
    friend bool operator==(const migrate&, const migrate&) = default;
};
struct power_on {
    host_id host;
    friend bool operator==(const power_on&, const power_on&) = default;
};
struct power_off {
    host_id host;
    friend bool operator==(const power_off&, const power_off&) = default;
};

using action = std::variant<increase_cpu, decrease_cpu, add_replica, remove_replica,
                            migrate, power_on, power_off>;

[[nodiscard]] action_kind kind_of(const action& a);

// "migrate vm3(RUBiS-1/db0) -> host2" style description.
[[nodiscard]] std::string to_string(const cluster_model& model, const action& a);

// True when `a` can legally fire from `config`; fills *why otherwise. Legal
// means the action's own preconditions hold and the result is structurally
// valid — the result may still be an *intermediate* (CPU-overbooked)
// configuration, which the search resolves with follow-up actions.
bool applicable(const cluster_model& model, const configuration& config,
                const action& a, std::string* why = nullptr);

// Applies `a` to `config`. Throws invariant_error when !applicable.
[[nodiscard]] configuration apply(const cluster_model& model,
                                  const configuration& config, const action& a);

// apply into a caller-owned configuration: `out` becomes apply(model,
// config, a), reusing its buffers, so drafting many children into one
// scratch configuration allocates nothing after the first. `out` may alias
// `config` (the action is then applied in place). Throws invariant_error
// when !applicable, leaving `out` untouched.
void apply_into(const cluster_model& model, const configuration& config,
                const action& a, configuration& out);

// is_candidate(model, child) for child = apply(model, parent, a), given a
// structurally valid parent: re-checks only what `a` changed — the touched
// VM's cap window, the touched hosts' power, slot and memory limits, the
// touched tier's replica minimum — plus the packing constraint on every
// host. The search drafts each child of a valid parent through this.
[[nodiscard]] bool is_candidate_child(const cluster_model& model,
                                      const configuration& parent,
                                      const configuration& child, const action& a);

// d's distance of apply(model, parent, a), for an applicable `a` and after
// d.set_parent(parent), without building the child: the one VM `a` resizes,
// places, retires or moves takes its new placement, with the cap rounded as
// apply's mutators round it; a host-power action places nothing, so its
// child scores as the parent. The search ranks a pruning expansion's
// children through this.
[[nodiscard]] double child_distance(const cluster_model& model,
                                    const configuration& parent, const action& a,
                                    const ideal_distance& d);

// Which actions the optimizer may consider; levels of the controller
// hierarchy restrict this set (Section II-C).
struct action_menu {
    bool cpu_tuning = true;
    bool replication = true;
    bool migration = true;
    bool host_power = true;
};

// All applicable actions from `config`, filtered by `menu`. Symmetry
// reductions: only the lowest-index dormant replica of a tier is offered for
// add_replica and only the highest-index deployed one for remove_replica;
// only the first powered-off host is offered for power_on (hosts are
// interchangeable). The buffer form replaces `out`'s contents with the same
// actions in the same order, reusing its capacity, so the search enumerates
// every expansion into one vector.
void enumerate_actions(const cluster_model& model, const configuration& config,
                       const action_menu& menu, std::vector<action>& out);
std::vector<action> enumerate_actions(const cluster_model& model,
                                      const configuration& config,
                                      const action_menu& menu = {});

}  // namespace mistral::cluster
