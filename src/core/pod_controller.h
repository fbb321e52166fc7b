// One pod's controller: a Mistral controller behind a cluster-view lens.
//
// A pod_controller wraps a `mistral_controller` for one pod of a partition
// and translates between the global cluster and the pod's slice of it. Two
// lenses exist:
//
//  * sharded — the controller runs on a `cluster::cluster_view` sub-model of
//    the pod's hosts and assigned applications. Decision inputs are projected
//    into the view, decisions lifted back to global entity ids. Search state
//    scales with the pod, not the cluster — the point of sharding. A pod
//    covering the whole cluster gets the identity lens, making its decisions
//    byte-identical to a flat controller's (pod_equivalence_test.cc).
//
//  * scoped — the controller sees the whole model but its search is
//    restricted to the pod's hosts via search_options::host_scope. This is
//    the paper's first-level hierarchy controller (Section II-C): utility is
//    still evaluated over every application, so its per-decision cost does
//    not shrink with the pod. Kept for the two-level escalation mode.
//
// Observability replaces the old bespoke running_stats accessors: each pod
// registers `mistral_pod_<id>_decisions_total` / `_actions_total` counters
// and a `mistral_pod_<id>_search_seconds` histogram (observed only on
// invoked decisions, matching the retired accessors' semantics).
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/view.h"
#include "core/builder.h"
#include "core/controller.h"
#include "core/pods.h"

namespace mistral::core {

enum class pod_lens {
    sharded,  // view sub-model: search, evaluation, and state are pod-local
    scoped,   // full model, host_scope-restricted actions (two-level mode)
};

// What a pod tells the global coordinator each interval (the CloudPowerCap-
// style headroom/shortfall report driving budget redistribution).
struct pod_report {
    watts draw = 0.0;       // modeled draw of the pod's powered-on hosts
    watts max_draw = 0.0;   // draw with every pod host on and saturated
    // Σ deployed caps / (host_cpu_cap × non-failed pod hosts): how full the
    // pod is. > donor watermark ⇒ the pod proposes evicting an app.
    double pressure = 0.0;
};

// Headroom/shortfall report over `hosts` (parent-model host indices) in
// `config`: a pod's hosts, or every host for the two-level escalation
// controller's journal row.
[[nodiscard]] pod_report report_hosts(const cluster::cluster_model& model,
                                      const cluster::configuration& config,
                                      const std::vector<std::size_t>& hosts);

// One pod's complete mutable state, for exact-round-trip checkpoints
// (core/snapshot.h): the app assignment (which determines the view), the
// applied budget, and the inner controller's state (absent for idle pods).
struct pod_controller_state {
    std::vector<std::size_t> apps;
    watts budget = std::numeric_limits<watts>::infinity();
    std::optional<controller_state> controller;

    friend bool operator==(const pod_controller_state&,
                           const pod_controller_state&) = default;
};

struct pod_outcome {
    bool invoked = false;
    // Actions in *global* (parent-model) entity ids.
    std::vector<cluster::action> actions;
    // The pod-local decision record (stats, mode, expected utility).
    controller_decision decision;
};

class pod_controller {
public:
    // `apps`: parent app indices assigned to this pod (sharded lens; the
    // scoped lens evaluates every app and ignores it beyond bookkeeping).
    pod_controller(const cluster::cluster_model& model, cost::cost_table costs,
                   pod_spec spec, std::vector<std::size_t> apps,
                   const controller_builder& builder,
                   pod_lens lens = pod_lens::sharded);

    [[nodiscard]] const pod_spec& spec() const { return spec_; }
    [[nodiscard]] const std::vector<std::size_t>& apps() const { return apps_; }
    [[nodiscard]] pod_lens lens() const { return lens_; }
    // A pod with no assigned applications is *idle*: it reports headroom and
    // can adopt an app, but steps are no-ops and view()/controller() are
    // unavailable until an app arrives.
    [[nodiscard]] bool idle() const { return controller_ == nullptr; }
    // The pod's lens over the cluster (sharded, non-idle only).
    [[nodiscard]] const cluster::cluster_view& view() const { return *view_; }
    [[nodiscard]] const mistral_controller& controller() const { return *controller_; }
    [[nodiscard]] watts budget() const { return budget_; }

    // One monitoring-interval step. `in` carries global state; the sharded
    // lens projects it into the view (rates, configuration, fault notices,
    // telemetry; the cluster-wide interval utility is split by rate share).
    pod_outcome step(const decision_input& in);

    // Power budget for this pod (watts; infinity = uncapped). Forwarded to
    // the pod search's terminal gate without rebuilding anything.
    void set_budget(watts cap);

    // Headroom/shortfall report over the pod's hosts in `global`.
    [[nodiscard]] pod_report report(const cluster::configuration& global) const {
        return report_hosts(*model_, global, spec_.hosts);
    }

    // Migration-broker bookkeeping (sharded lens): ownership changes rebuild
    // the pod's view and controller — predictors restart cold, which is the
    // price of moving an app between pods.
    void adopt_app(std::size_t app);
    void release_app(std::size_t app);

    // Exact-round-trip checkpointing (core/snapshot.h): import rebuilds the
    // view/controller for the checkpointed app set, then restores the inner
    // controller state. `now` re-binds the econ layer at the restore time.
    [[nodiscard]] pod_controller_state export_state() const;
    void import_state(const pod_controller_state& s, seconds now);

private:
    const cluster::cluster_model* model_;
    cost::cost_table costs_;
    pod_spec spec_;
    std::vector<std::size_t> apps_;
    pod_lens lens_;
    controller_options opts_;
    watts budget_ = std::numeric_limits<watts>::infinity();
    std::optional<cluster::cluster_view> view_;
    std::unique_ptr<mistral_controller> controller_;

    obs::counter obs_decisions_;
    obs::counter obs_actions_;
    obs::histogram obs_search_seconds_;

    void rebuild();
    [[nodiscard]] decision_input project_input(const decision_input& in) const;
};

}  // namespace mistral::core
