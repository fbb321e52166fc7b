// A host-subset lens over (cluster_model, configuration).
//
// Pod-sharded control (DESIGN.md §13) partitions the cluster into pods, each
// running its own self-aware controller over a *view*: the sub-cluster made
// of the pod's hosts and the applications assigned to it. A view owns a real
// `cluster_model` for that sub-cluster and the index maps between parent and
// local entity ids, so everything downstream — the A* search, the evaluation
// engine with its sub-solve cache, the planner, structural repair — runs
// unchanged on the local model. Local configurations are ordinary
// `cluster::configuration` values: the incremental Zobrist hash and the O(1)
// per-host aggregates hold per view by construction, not by re-derivation.
//
// The whole-cluster view is the *identity lens*: `local()` aliases the parent
// model itself (no copy), every id maps to itself, and projections return
// bit-identical values — which is what makes a single-pod controller
// provably byte-identical to the flat controller (pod_equivalence_test.cc).
//
// Invariant a view relies on (the pod coordinator maintains it): every
// deployed VM of a view application sits on a view host. `contains()` checks
// it; `project()` requires it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "common/ids.h"
#include "common/units.h"

namespace mistral::cluster {

class cluster_view {
public:
    // The identity lens: all hosts, all applications; local() is the parent.
    explicit cluster_view(const cluster_model& parent);

    // Sub-cluster lens over `hosts` and `apps` (parent indices; deduplicated
    // and sorted). Builds the local model from the parent's host and
    // application specs under the same cluster limits.
    cluster_view(const cluster_model& parent, std::vector<std::size_t> hosts,
                 std::vector<std::size_t> apps);

    [[nodiscard]] const cluster_model& parent() const { return *parent_; }
    [[nodiscard]] const cluster_model& local() const {
        return identity_ ? *parent_ : *local_;
    }
    [[nodiscard]] bool identity() const { return identity_; }

    [[nodiscard]] std::size_t host_count() const { return host_to_parent_.size(); }
    [[nodiscard]] std::size_t app_count() const { return app_to_parent_.size(); }
    [[nodiscard]] std::size_t vm_count() const { return vm_to_parent_.size(); }
    // Parent host indices of this view, sorted ascending.
    [[nodiscard]] const std::vector<std::size_t>& hosts() const {
        return host_to_parent_;
    }
    // Parent app indices of this view, sorted ascending.
    [[nodiscard]] const std::vector<std::size_t>& apps() const {
        return app_to_parent_;
    }

    // Id maps. to_local_* return an invalid id for entities outside the view.
    [[nodiscard]] host_id to_parent_host(host_id local) const;
    [[nodiscard]] host_id to_local_host(host_id parent) const;
    [[nodiscard]] app_id to_parent_app(app_id local) const;
    [[nodiscard]] app_id to_local_app(app_id parent) const;
    [[nodiscard]] vm_id to_parent_vm(vm_id local) const;
    [[nodiscard]] vm_id to_local_vm(vm_id parent) const;

    // True iff every deployed VM of a view application sits on a view host in
    // `global` (the containment invariant); fills *why on the first breach.
    [[nodiscard]] bool contains(const configuration& global,
                                std::string* why = nullptr) const;

    // Restriction of `global` to the view: view hosts' power/failure states
    // and view VMs' placements, re-indexed locally. Requires contains().
    // For the identity lens this is a bit-identical copy.
    [[nodiscard]] configuration project(const configuration& global) const;

    // Writes a local configuration back into `global`: view VMs are
    // redeployed per `local` and view hosts take `local`'s power/failure
    // states. Entities outside the view are untouched. project(lift_into(L))
    // == L for any local L.
    void lift_into(const configuration& local, configuration& global) const;

    // Re-indexes a local action to parent ids (always possible).
    [[nodiscard]] action lift_action(const action& local) const;
    // Re-indexes a parent action to local ids; nullopt when the action
    // touches any entity outside the view.
    [[nodiscard]] std::optional<action> project_action(const action& parent) const;

    // Per-app vector restriction (rates, response times, samples). Identity
    // lens: a bit-identical copy.
    template <class T>
    [[nodiscard]] std::vector<T> project_per_app(const std::vector<T>& xs) const {
        if (identity_) return xs;
        std::vector<T> out;
        out.reserve(app_to_parent_.size());
        for (const std::size_t a : app_to_parent_) out.push_back(xs[a]);
        return out;
    }

private:
    const cluster_model* parent_;
    std::shared_ptr<const cluster_model> local_;  // null for the identity lens
    bool identity_ = false;
    std::vector<std::size_t> host_to_parent_;
    std::vector<std::size_t> app_to_parent_;
    std::vector<std::size_t> vm_to_parent_;
    // Parent index → local index; -1 outside the view.
    std::vector<std::int32_t> host_to_local_;
    std::vector<std::int32_t> app_to_local_;
    std::vector<std::int32_t> vm_to_local_;
};

}  // namespace mistral::cluster
