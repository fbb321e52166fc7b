#include "cluster/model.h"

#include "common/check.h"

namespace mistral::cluster {

cluster_model::cluster_model(std::vector<host_spec> hosts,
                             std::vector<apps::application_spec> applications,
                             cluster_limits limits)
    : hosts_(std::move(hosts)), apps_(std::move(applications)), limits_(limits) {
    MISTRAL_CHECK(!hosts_.empty());
    MISTRAL_CHECK(!apps_.empty());
    MISTRAL_CHECK(limits_.max_vms_per_host >= 1);
    MISTRAL_CHECK(limits_.host_cpu_cap > 0.0 && limits_.host_cpu_cap <= 1.0);
    MISTRAL_CHECK(limits_.cpu_step > 0.0 && limits_.cpu_step < 1.0);

    tier_vms_.resize(apps_.size());
    std::int32_t next = 0;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
        tier_vms_[a].resize(apps_[a].tier_count());
        for (std::size_t t = 0; t < apps_[a].tier_count(); ++t) {
            const auto& tier = apps_[a].tiers()[t];
            for (int r = 0; r < tier.max_replicas; ++r) {
                vm_descriptor vm;
                vm.vm = vm_id{next++};
                vm.app = app_id{static_cast<std::int32_t>(a)};
                vm.tier = t;
                vm.replica_index = r;
                vm.memory_mb = tier.memory_mb;
                tier_vms_[a][t].push_back(vm.vm);
                vms_.push_back(vm);
            }
        }
    }
}

std::vector<host_spec> uniform_hosts(std::size_t count, double memory_mb) {
    MISTRAL_CHECK(count > 0);
    std::vector<host_spec> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        host_spec h;
        h.name = "host" + std::to_string(i);
        h.memory_mb = memory_mb;
        out.push_back(h);
    }
    return out;
}

}  // namespace mistral::cluster
