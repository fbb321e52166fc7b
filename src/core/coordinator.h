// The global coordination layer over pod controllers (DESIGN.md §13).
//
// A `global_coordinator` is a `strategy` composed of pod_controllers plus
// cluster-wide coordination that no pod can do alone:
//
//  * budget broker — when a finite cluster power budget is set, the
//    coordinator collects each pod's headroom/shortfall report (draw,
//    saturated draw, pressure) every interval and redistributes the budget
//    CloudPowerCap-style: demand-proportional shares computed in integer
//    milliwatts with largest-remainder rounding, so the pod budgets sum to
//    the cluster budget *exactly* every interval (the conservation
//    invariant, coordinator_test.cc). Each share is pushed into the pod
//    search's terminal gate via set_budget.
//
//  * migration broker — a pod whose pressure exceeds the donor watermark
//    *proposes* evicting its smallest application; pods below the accept
//    watermark respond with a deterministic first-fit placement plan, and
//    the best bid (lowest resulting pressure, ties to the lower pod id)
//    wins. The handshake emits ordinary migrate actions and re-assigns the
//    app, so pod-local searches never see cross-pod moves.
//
//  * ownership reconciliation — brokered migrate actions are *plans*; the
//    executor can abort them (decision_input::failed) or still be running
//    them (in_flight). Every sharded decide() therefore re-derives app
//    ownership from the placements in `in.current` before any pod steps:
//    an app whose VMs all sit in one pod belongs to that pod (re-adopting
//    it if a brokered transfer never landed), and a half-moved app whose
//    VMs straddle pods is parked unowned for the interval while the
//    coordinator emits the completing first-fit migrations (gather). No
//    pod's view ever projects a configuration it does not contain, so an
//    aborted brokered plan degrades to a retry instead of an
//    invariant_error.
//
// Two modes share the class:
//  * sharded  ("Mistral-Pods") — a validated partition of view-lens pods,
//    concurrent in the model (the decision delay is the slowest pod's) and
//    stepped in pod-id order; this is the scale mode (256 hosts and beyond).
//  * two_level ("Mistral-2L") — the paper's hierarchy: scoped level-1 pods
//    plus a wide-band full-cluster escalation controller whose non-empty
//    decisions preempt the pods for that interval (Section II-C).
//
// Journal events (fixed field order, obs/journal.h): `pod_decision` per pod
// step, `pod_budget` per redistribution, `pod_migration` per brokered move
// (`from` = -1 marks a gather of a half-moved app), `pod_reconcile` per
// ownership change the reconciliation pass makes (`from`/`to` = -1: unowned),
// and `region_decision` per interval when regions are set.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/pod_controller.h"
#include "core/pods.h"
#include "core/strategies.h"
#include "econ/region.h"
#include "econ/tariff.h"

namespace mistral::core {

// The control-plane fault verdict for one pod controller this interval,
// delivered through coordinator_options::pod_fault_hook. The coordinator
// never knows *why* a pod crashed or hung — tests bind the hook to
// sim::control_fault_injector, production would bind it to liveness probes.
struct pod_step_fault {
    bool crashed = false;
    double hang_multiplier = 1.0;  // scales the pod's modeled decision time
};

struct coordinator_options {
    // Cluster-wide power budget (watts). Infinity disables the budget broker
    // entirely: no reports, no events, no terminal gating.
    watts power_budget = std::numeric_limits<watts>::infinity();
    // Migration broker watermarks (sharded mode, ≥ 2 pods).
    bool migration_broker = true;
    double donor_pressure = 0.85;   // propose eviction above this
    double accept_pressure = 0.65;  // bid for adoption below this
    int max_brokered_moves = 1;     // per interval
    // Escalation controller's band width (two-level mode; paper: 8 req/s).
    req_per_sec escalation_band = 8.0;
    // Economics (sharded mode only). `regions` maps every pod to a region
    // with its own tariff/carbon series: each pod's controller then plans
    // under its region's prices (the coordinator layers the econ override on
    // the builder), budget redistribution weights growth headroom by
    // cheapest/price, and the migration broker donates sooner from — and
    // bids lower on — expensive regions, shifting load toward cheap/green
    // ones. Empty (the default) leaves every economic branch untaken: the
    // decision stream is bit-identical to the region-blind coordinator.
    econ::region_map regions{};
    // Cluster power-budget schedule in watts over time (stepped power-cap
    // emergencies): when set it overrides power_budget each interval. All
    // values must be positive; infinity is expressed by leaving this unset.
    std::optional<econ::step_series> budget_schedule{};
    // --- Control-plane fault tolerance (sharded mode, DESIGN.md §16) ---
    // Per-pod decision deadline (modeled seconds). A pod whose (possibly
    // hang-inflated) decision exceeds it has its late plan discarded: the
    // coordinator charges the deadline as that pod's latency contribution,
    // applies the failsafe, and quarantines the pod. Infinity disables the
    // watchdog entirely.
    seconds pod_deadline = std::numeric_limits<seconds>::infinity();
    // A quarantined pod is hysteretically re-admitted after this many
    // consecutive fault-free intervals (a flapping pod never oscillates
    // faster than this).
    int readmit_after = 3;
    // A prepared brokered migration that neither commits (placements landed
    // in the acceptor pod) nor fails within this many intervals is aborted
    // and pulled back to the donor.
    int migration_timeout_intervals = 4;
    // Called once per pod per interval, in pod-id order, before any pod
    // steps. Unset (the default) leaves every fault branch untaken: the
    // decision stream is bit-identical to the pre-fault coordinator.
    std::function<pod_step_fault(std::size_t)> pod_fault_hook{};
};

// Quarantine bookkeeping for one pod (sharded mode).
struct pod_health {
    bool quarantined = false;
    int clean_intervals = 0;  // consecutive fault-free intervals in quarantine

    friend bool operator==(const pod_health&, const pod_health&) = default;
};

// One prepared-but-uncommitted brokered migration (the two-phase handshake's
// in-flight record). Committed when the app's placements land in `to`;
// aborted — with a journaled `migration_abort` — when a plan action fails or
// `intervals_left` expires.
struct pending_migration {
    std::size_t app = 0;
    std::size_t from = 0;
    std::size_t to = 0;
    std::vector<cluster::action> plan;
    seconds prepared_at = 0.0;
    int intervals_left = 0;

    friend bool operator==(const pending_migration&,
                           const pending_migration&) = default;
};

// What the coordinator itself carries from one interval to the next: the
// applied budget shares, the broker total, stray parking, quarantine health
// and open migration handshakes. This is the coordinator's storage for those
// fields; coordinator_state adds the pods.
struct coordinator_memory {
    std::vector<watts> budgets;
    std::int64_t brokered_migrations = 0;
    // Apps whose VMs straddle pods this interval (a partially executed
    // brokered plan); unowned until gather_strays reunifies them.
    std::vector<std::size_t> stray_apps;
    std::vector<pod_health> health;  // sharded mode; empty before the first decide
    std::vector<pending_migration> pending;

    friend bool operator==(const coordinator_memory&,
                           const coordinator_memory&) = default;
};

// The coordinator's complete mutable state, for exact-round-trip checkpoints
// (core/snapshot.h): per-pod controller states (which pin the app → pod
// ownership) and the coordinator's own memory. Empty `pods` marks a
// checkpoint taken before the first decide (pods materialize lazily).
struct coordinator_state : coordinator_memory {
    std::vector<pod_controller_state> pods;

    friend bool operator==(const coordinator_state&,
                           const coordinator_state&) = default;
};

class global_coordinator final : public strategy {
public:
    // Sharded mode over a validated partition. The app → pod assignment is
    // derived from the first decide()'s configuration (assign_apps), so pods
    // and their views materialize lazily on the first step.
    global_coordinator(const cluster::cluster_model& model,
                       cost::cost_table costs, partition parts,
                       controller_builder builder = {},
                       coordinator_options options = {});

    // Two-level escalation mode: `level1` pods run the scoped lens (band 0,
    // restricted menus — see level1_pods); a full-cluster escalation
    // controller with escalation_band preempts them when it acts. Level-1
    // pods need not cover every host, but must be disjoint and in range.
    global_coordinator(const cluster::cluster_model& model,
                       cost::cost_table costs, std::vector<pod_spec> level1,
                       controller_builder builder = {},
                       coordinator_options options = {});

    [[nodiscard]] std::string name() const override { return name_; }
    outcome decide(const decision_input& in) override;

    [[nodiscard]] const std::vector<std::unique_ptr<pod_controller>>& pods() const {
        return pods_;
    }
    [[nodiscard]] const coordinator_options& options() const { return options_; }
    // Last *applied* pod budgets (empty before the first redistribution or
    // when the budget broker is off): the redistributed shares after the
    // one-milliwatt floor for zero-share pods, which borrows from the
    // largest share. Sums to power_budget exactly whenever the budget
    // affords one milliwatt per pod.
    [[nodiscard]] const std::vector<watts>& budgets() const { return memory_.budgets; }
    [[nodiscard]] std::int64_t brokered_migrations() const {
        return memory_.brokered_migrations;
    }
    // Per-pod quarantine state (sharded mode; empty before the first decide).
    [[nodiscard]] const std::vector<pod_health>& health() const {
        return memory_.health;
    }
    // Apps currently parked unowned (VMs straddling pods).
    [[nodiscard]] const std::vector<std::size_t>& stray_apps() const {
        return memory_.stray_apps;
    }

    // Exact-round-trip checkpointing (sharded mode; core/snapshot.h). The
    // restoring side constructs an identically configured coordinator (same
    // model, costs, partition, builder, options), then imports. `now` is the
    // restore time, re-binding each pod controller's econ layer.
    // import_state refuses (invariant_error) a state with a pod count other
    // than the partition's or a pending migration naming a pod outside it; a
    // refused coordinator is to be discarded.
    [[nodiscard]] coordinator_state export_state() const;
    void import_state(const coordinator_state& s, seconds now);

    // Demand-proportional integer-milliwatt split of `total` across the
    // reports, where a pod's demand is its draw plus half its growth headroom
    // scaled by min(pressure, 1); the shares sum to `total` exactly
    // (largest-remainder rounding, ties to the lower index). Exposed for the conservation test.
    // `growth_weight` (optional, one entry per report, ≥ 0) scales each
    // pod's growth-headroom term only — the regional cheapest/price bias;
    // nullptr is the unweighted original.
    static std::vector<watts> redistribute(
        watts total, const std::vector<pod_report>& reports,
        const std::vector<double>* growth_weight = nullptr);

private:
    const cluster::cluster_model* model_;
    cost::cost_table costs_;
    controller_builder builder_;
    coordinator_options options_;
    std::string name_;
    obs::sink* sink_ = nullptr;  // the builder's sink, cached
    std::optional<partition> parts_;  // sharded only: pods_ are built from it
    std::vector<std::unique_ptr<pod_controller>> pods_;
    std::unique_ptr<mistral_controller> escalation_;  // two-level only
    coordinator_memory memory_;
    // Timed-out migrations to pull back to their donor this interval
    // (app → donor pod), consumed by gather_strays.
    std::vector<std::pair<std::size_t, std::size_t>> pull_back_;

    obs::counter obs_escalations_;
    obs::counter obs_escalation_actions_;
    obs::histogram obs_escalation_seconds_;
    obs::counter obs_migrations_;
    obs::counter obs_reconciles_;
    obs::counter obs_region_moves_;

    void ensure_pods(const cluster::configuration& current);
    // (Re)builds one sharded pod per partition pod, pod i owning apps[i].
    void build_pods(std::vector<std::vector<std::size_t>> apps);
    void reconcile_ownership(const cluster::configuration& current, seconds now);
    void gather_strays(cluster::configuration& probe, outcome& out, seconds now);
    // Two-phase bookkeeping: commit silently, abort on failure or timeout.
    void resolve_pending(const decision_input& in);
    // Coordinator-applied stand-in for a crashed/quarantined pod: structural
    // repair of the pod's slice if needed, otherwise hold.
    void apply_failsafe(std::size_t pod, cluster::configuration& probe,
                        outcome& out, seconds now, const char* reason);
    void enter_quarantine(std::size_t pod, seconds now, const char* reason);
    outcome decide_two_level(const decision_input& in);
    outcome decide_sharded(const decision_input& in);
    void redistribute_budgets(const decision_input& in, watts total);
    void broker_migrations(cluster::configuration& probe, outcome& out,
                           seconds now);
    // Per-pod regional price at `now` (empty when regions are unset).
    [[nodiscard]] std::vector<double> pod_prices(seconds now) const;
    // One `pod_decision` event for a pod's decision record, or (pod ==
    // nullptr) for the two-level escalation controller's.
    void emit_pod_decision(const pod_controller* pod, const controller_decision& d,
                           const cluster::configuration& at, seconds now) const;
};

}  // namespace mistral::core
