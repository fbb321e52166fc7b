#include "cluster/view.h"

#include <algorithm>

#include "common/check.h"

namespace mistral::cluster {

namespace {

std::vector<std::size_t> sorted_unique(std::vector<std::size_t> xs,
                                       std::size_t bound, const char* what) {
    std::sort(xs.begin(), xs.end());
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
    MISTRAL_CHECK_MSG(!xs.empty(), what);
    MISTRAL_CHECK_MSG(xs.back() < bound, what);
    return xs;
}

}  // namespace

cluster_view::cluster_view(const cluster_model& parent)
    : parent_(&parent), identity_(true) {
    host_to_parent_.resize(parent.host_count());
    app_to_parent_.resize(parent.app_count());
    vm_to_parent_.resize(parent.vm_count());
    for (std::size_t i = 0; i < host_to_parent_.size(); ++i) host_to_parent_[i] = i;
    for (std::size_t i = 0; i < app_to_parent_.size(); ++i) app_to_parent_[i] = i;
    for (std::size_t i = 0; i < vm_to_parent_.size(); ++i) vm_to_parent_[i] = i;
    host_to_local_.resize(parent.host_count());
    app_to_local_.resize(parent.app_count());
    vm_to_local_.resize(parent.vm_count());
    for (std::size_t i = 0; i < host_to_local_.size(); ++i)
        host_to_local_[i] = static_cast<std::int32_t>(i);
    for (std::size_t i = 0; i < app_to_local_.size(); ++i)
        app_to_local_[i] = static_cast<std::int32_t>(i);
    for (std::size_t i = 0; i < vm_to_local_.size(); ++i)
        vm_to_local_[i] = static_cast<std::int32_t>(i);
}

cluster_view::cluster_view(const cluster_model& parent,
                           std::vector<std::size_t> hosts,
                           std::vector<std::size_t> apps)
    : parent_(&parent),
      host_to_parent_(sorted_unique(std::move(hosts), parent.host_count(),
                                    "view hosts must be a non-empty subset")),
      app_to_parent_(sorted_unique(std::move(apps), parent.app_count(),
                                   "view apps must be a non-empty subset")) {
    std::vector<host_spec> local_hosts;
    local_hosts.reserve(host_to_parent_.size());
    for (const std::size_t h : host_to_parent_)
        local_hosts.push_back(parent.hosts()[h]);
    std::vector<apps::application_spec> local_apps;
    local_apps.reserve(app_to_parent_.size());
    for (const std::size_t a : app_to_parent_)
        local_apps.push_back(parent.applications()[a]);
    local_ = std::make_shared<cluster_model>(std::move(local_hosts),
                                             std::move(local_apps),
                                             parent.limits());

    host_to_local_.assign(parent.host_count(), -1);
    for (std::size_t i = 0; i < host_to_parent_.size(); ++i)
        host_to_local_[host_to_parent_[i]] = static_cast<std::int32_t>(i);
    app_to_local_.assign(parent.app_count(), -1);
    for (std::size_t i = 0; i < app_to_parent_.size(); ++i)
        app_to_local_[app_to_parent_[i]] = static_cast<std::int32_t>(i);

    // The local model builds its VM inventory in (app, tier, replica) order,
    // exactly the order this loop walks the parent's inventory restricted to
    // the view apps — so local vm ids come out sequential and the map is a
    // plain zip of the two inventories.
    vm_to_local_.assign(parent.vm_count(), -1);
    vm_to_parent_.reserve(local_->vm_count());
    for (std::size_t i = 0; i < app_to_parent_.size(); ++i) {
        const app_id pa{static_cast<std::int32_t>(app_to_parent_[i])};
        const auto& spec = parent.applications()[app_to_parent_[i]];
        for (std::size_t t = 0; t < spec.tier_count(); ++t) {
            for (const vm_id pv : parent.tier_vms(pa, t)) {
                vm_to_local_[pv.index()] =
                    static_cast<std::int32_t>(vm_to_parent_.size());
                vm_to_parent_.push_back(pv.index());
            }
        }
    }
    MISTRAL_CHECK(vm_to_parent_.size() == local_->vm_count());
    for (std::size_t lv = 0; lv < vm_to_parent_.size(); ++lv) {
        const auto& ld = local_->vm(vm_id{static_cast<std::int32_t>(lv)});
        const auto& pd = parent.vm(vm_id{static_cast<std::int32_t>(vm_to_parent_[lv])});
        MISTRAL_CHECK(ld.tier == pd.tier && ld.replica_index == pd.replica_index);
        MISTRAL_CHECK(app_to_parent_[ld.app.index()] == pd.app.index());
    }
}

host_id cluster_view::to_parent_host(host_id local) const {
    MISTRAL_CHECK(local.valid() && local.index() < host_to_parent_.size());
    return host_id{static_cast<std::int32_t>(host_to_parent_[local.index()])};
}

host_id cluster_view::to_local_host(host_id parent) const {
    if (!parent.valid() || parent.index() >= host_to_local_.size()) return host_id{};
    return host_id{host_to_local_[parent.index()]};
}

app_id cluster_view::to_local_app(app_id parent) const {
    if (!parent.valid() || parent.index() >= app_to_local_.size()) return app_id{};
    return app_id{app_to_local_[parent.index()]};
}

vm_id cluster_view::to_parent_vm(vm_id local) const {
    MISTRAL_CHECK(local.valid() && local.index() < vm_to_parent_.size());
    return vm_id{static_cast<std::int32_t>(vm_to_parent_[local.index()])};
}

vm_id cluster_view::to_local_vm(vm_id parent) const {
    if (!parent.valid() || parent.index() >= vm_to_local_.size()) return vm_id{};
    return vm_id{vm_to_local_[parent.index()]};
}

bool cluster_view::contains(const configuration& global, std::string* why) const {
    MISTRAL_CHECK(global.vm_count() == parent_->vm_count());
    MISTRAL_CHECK(global.host_count() == parent_->host_count());
    for (const std::size_t pv : vm_to_parent_) {
        const vm_id vm{static_cast<std::int32_t>(pv)};
        const auto& p = global.placement(vm);
        if (!p) continue;
        if (!to_local_host(p->host).valid()) {
            if (why) {
                *why = "view vm " + std::to_string(pv) + " is deployed on host " +
                       std::to_string(p->host.value) + " outside the view";
            }
            return false;
        }
    }
    return true;
}

configuration cluster_view::project(const configuration& global) const {
    if (identity_) return global;
    std::string why;
    MISTRAL_CHECK_MSG(contains(global, &why), why.c_str());
    configuration local(local_->vm_count(), local_->host_count());
    for (std::size_t lh = 0; lh < host_to_parent_.size(); ++lh) {
        const host_id ph{static_cast<std::int32_t>(host_to_parent_[lh])};
        const host_id h{static_cast<std::int32_t>(lh)};
        if (global.host_on(ph)) local.set_host_power(h, true);
        if (global.host_failed(ph)) local.set_host_failed(h, true);
    }
    for (std::size_t lv = 0; lv < vm_to_parent_.size(); ++lv) {
        const vm_id pv{static_cast<std::int32_t>(vm_to_parent_[lv])};
        const auto& p = global.placement(pv);
        if (!p) continue;
        local.deploy(vm_id{static_cast<std::int32_t>(lv)}, to_local_host(p->host),
                     p->cpu_cap);
    }
    return local;
}

void cluster_view::lift_into(const configuration& local, configuration& global) const {
    MISTRAL_CHECK(global.vm_count() == parent_->vm_count());
    MISTRAL_CHECK(global.host_count() == parent_->host_count());
    if (identity_) {
        global = local;
        return;
    }
    MISTRAL_CHECK(local.vm_count() == local_->vm_count());
    MISTRAL_CHECK(local.host_count() == local_->host_count());
    // Undeploy first: a VM moving between view hosts must not transiently
    // double-count against the target host's aggregates.
    for (std::size_t lv = 0; lv < vm_to_parent_.size(); ++lv) {
        const vm_id pv{static_cast<std::int32_t>(vm_to_parent_[lv])};
        if (global.deployed(pv)) global.undeploy(pv);
    }
    for (std::size_t lh = 0; lh < host_to_parent_.size(); ++lh) {
        const host_id lhid{static_cast<std::int32_t>(lh)};
        const host_id ph{static_cast<std::int32_t>(host_to_parent_[lh])};
        if (global.host_failed(ph) != local.host_failed(lhid))
            global.set_host_failed(ph, local.host_failed(lhid));
        if (global.host_on(ph) != local.host_on(lhid))
            global.set_host_power(ph, local.host_on(lhid));
    }
    for (std::size_t lv = 0; lv < vm_to_parent_.size(); ++lv) {
        const vm_id lvid{static_cast<std::int32_t>(lv)};
        const auto& p = local.placement(lvid);
        if (!p) continue;
        global.deploy(to_parent_vm(lvid), to_parent_host(p->host), p->cpu_cap);
    }
}

action cluster_view::lift_action(const action& local) const {
    return std::visit(
        [this](const auto& a) -> action {
            using T = std::decay_t<decltype(a)>;
            if constexpr (std::is_same_v<T, increase_cpu> ||
                          std::is_same_v<T, decrease_cpu> ||
                          std::is_same_v<T, remove_replica>) {
                return T{to_parent_vm(a.vm)};
            } else if constexpr (std::is_same_v<T, add_replica>) {
                return add_replica{to_parent_vm(a.vm), to_parent_host(a.to),
                                   a.cpu_cap};
            } else if constexpr (std::is_same_v<T, migrate>) {
                return migrate{to_parent_vm(a.vm), to_parent_host(a.to)};
            } else {
                return T{to_parent_host(a.host)};
            }
        },
        local);
}

std::optional<action> cluster_view::project_action(const action& parent) const {
    return std::visit(
        [this](const auto& a) -> std::optional<action> {
            using T = std::decay_t<decltype(a)>;
            if constexpr (std::is_same_v<T, increase_cpu> ||
                          std::is_same_v<T, decrease_cpu> ||
                          std::is_same_v<T, remove_replica>) {
                const vm_id lv = to_local_vm(a.vm);
                if (!lv.valid()) return std::nullopt;
                return action{T{lv}};
            } else if constexpr (std::is_same_v<T, add_replica>) {
                const vm_id lv = to_local_vm(a.vm);
                const host_id lh = to_local_host(a.to);
                if (!lv.valid() || !lh.valid()) return std::nullopt;
                return action{add_replica{lv, lh, a.cpu_cap}};
            } else if constexpr (std::is_same_v<T, migrate>) {
                const vm_id lv = to_local_vm(a.vm);
                const host_id lh = to_local_host(a.to);
                if (!lv.valid() || !lh.valid()) return std::nullopt;
                return action{migrate{lv, lh}};
            } else {
                const host_id lh = to_local_host(a.host);
                if (!lh.valid()) return std::nullopt;
                return action{T{lh}};
            }
        },
        parent);
}

}  // namespace mistral::cluster
