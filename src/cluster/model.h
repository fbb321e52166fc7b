// Static description of the managed cluster.
//
// A `cluster_model` is everything that does not change at runtime: the
// physical hosts (capacity, memory, power model), the applications, and the
// full VM inventory. Following Section II-A, every tier replica that *could*
// exist has a VM in the inventory up to the tier's max replication level;
// replicas beyond the deployed set live dormant in the cold-store pool and
// are added by migrating them in (Section III-C).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "apps/application.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "power/model.h"

namespace mistral::cluster {

struct host_spec {
    std::string name;
    fraction cpu_capacity = 1.0;       // physical CPU (1.0 = one saturated core)
    double memory_mb = 1000.0;         // paper: 1 GB hosts
    pwr::host_power_model power{};
};

// One VM slot in the inventory: a specific replica of a specific tier.
struct vm_descriptor {
    vm_id vm;
    app_id app;
    std::size_t tier = 0;
    int replica_index = 0;     // 0-based; index 0 replicas are mandatory
    double memory_mb = 200.0;  // fixed footprint (Section V-A)
};

struct cluster_limits {
    int max_vms_per_host = 4;        // paper: "a limit of up to 4 VMs per host"
    fraction host_cpu_cap = 0.8;     // total VM CPU per host; rest is Dom-0
    double dom0_memory_mb = 200.0;   // memory reserved for the hypervisor
    fraction cpu_step = 0.10;        // the "fixed amount" of CPU cap actions
};

class cluster_model {
public:
    cluster_model(std::vector<host_spec> hosts,
                  std::vector<apps::application_spec> applications,
                  cluster_limits limits = {});

    [[nodiscard]] const std::vector<host_spec>& hosts() const { return hosts_; }
    [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
    [[nodiscard]] const std::vector<apps::application_spec>& applications() const {
        return apps_;
    }
    [[nodiscard]] std::size_t app_count() const { return apps_.size(); }
    [[nodiscard]] const cluster_limits& limits() const { return limits_; }

    // The full VM inventory (deployable replicas of every tier).
    [[nodiscard]] const std::vector<vm_descriptor>& vms() const { return vms_; }
    [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
    // The lookups below are inline: the search's child drafting and
    // candidacy checks call them per VM of every generated child.
    [[nodiscard]] const vm_descriptor& vm(vm_id id) const {
        MISTRAL_CHECK(id.valid() && id.index() < vms_.size());
        return vms_[id.index()];
    }

    // VMs belonging to (app, tier), ordered by replica index.
    [[nodiscard]] const std::vector<vm_id>& tier_vms(app_id app, std::size_t tier) const {
        MISTRAL_CHECK(app.valid() && app.index() < tier_vms_.size());
        MISTRAL_CHECK(tier < tier_vms_[app.index()].size());
        return tier_vms_[app.index()][tier];
    }

    [[nodiscard]] const apps::application_spec& app(app_id id) const {
        MISTRAL_CHECK(id.valid() && id.index() < apps_.size());
        return apps_[id.index()];
    }
    [[nodiscard]] const apps::tier_spec& tier_spec_of(vm_id id) const {
        const auto& desc = vm(id);
        return app(desc.app).tiers()[desc.tier];
    }

private:
    std::vector<host_spec> hosts_;
    std::vector<apps::application_spec> apps_;
    cluster_limits limits_;
    std::vector<vm_descriptor> vms_;
    // tier_vms_[app][tier] -> vm ids
    std::vector<std::vector<std::vector<vm_id>>> tier_vms_;
};

// Builds `count` identical hosts named host0..host{n-1} with the default
// power model (the paper's commodity Pentium-4 class).
std::vector<host_spec> uniform_hosts(std::size_t count, double memory_mb = 1000.0);

}  // namespace mistral::cluster
