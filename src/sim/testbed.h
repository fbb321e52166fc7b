// The cluster testbed simulator.
//
// Plays the role of the paper's 8-host Xen testbed (Fig. 2's "Test-bed"
// box): it owns the *actual* configuration, executes submitted adaptation
// actions with workload-dependent durations and transient costs, and reports
// metered measurements (per-application mean response times, cluster power,
// host utilizations) over arbitrary observation windows.
//
// Ground truth is generated from deterministically perturbed copies of the
// nominal application and power models (see perturb.h) plus bounded
// measurement noise, so the controller's offline-fit models track reality
// within a few percent — the regime the paper's Fig. 5 validates.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "cluster/translate.h"
#include "common/rng.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/faults.h"
#include "sim/transients.h"

namespace mistral::obs {
class sink;
}

namespace mistral::sim {

struct testbed_options {
    std::uint64_t seed = 42;
    // Deterministic skew applied to demands / power parameters to create the
    // gap between the testbed's reality and the controller's models.
    double demand_skew = 0.05;
    double power_skew = 0.03;
    // Multiplicative measurement noise (std-dev) on reported values.
    double rt_noise = 0.02;
    double power_noise = 0.01;
    // The testbed's "real" queueing behaviour differs slightly from the
    // controller's nominal model options too.
    lqn::model_options true_lqn{.xen_overhead = 0.09,
                                .dom0_overhead = 0.07,
                                .dom0_baseline = 0.025,
                                .network_hop = 0.0022};
    transient_model transients{};
    // Fault injection (inert by default: all probabilities zero, no crashes —
    // the testbed then behaves byte-identically to a fault-free build).
    fault_options faults{};
    // Response time reported for an application a host crash has left with an
    // undeployed tier (its requests time out rather than queue).
    seconds outage_response_time = 10.0;
    // Observability hook (obs/journal.h): when journaling, the executor emits
    // action_start / action_finish / action_fail and host_crash /
    // host_recover events at their simulation instants. nullptr (the
    // default) keeps execution byte-identical to an uninstrumented build.
    obs::sink* sink = nullptr;
};

// One observation window's measurements.
struct observation {
    seconds time = 0.0;                      // window end
    seconds window = 0.0;                    // window length
    std::vector<req_per_sec> rates;          // offered workload
    std::vector<seconds> response_time;      // mean per app over the window
    watts power = 0.0;                       // mean cluster draw
    std::vector<fraction> host_utilization;  // at window end (steady)
    std::vector<double> app_cpu_usage;       // physical CPUs consumed per app
    fraction adapting_fraction = 0.0;        // share of window spent adapting
    std::vector<cluster::action> completed;  // actions finished in the window
    // Fault-injection signals (all empty / zero when the injector is inert).
    std::vector<cluster::action> failed;     // actions aborted in the window
    std::vector<cluster::action> in_flight;  // still outstanding at window end
                                             // (executing first, then queued)
    std::vector<std::int32_t> hosts_failed;     // crashed in the window
    std::vector<std::int32_t> hosts_recovered;  // failure mark cleared
    fraction wasted_fraction = 0.0;  // share of window burnt on doomed actions
};

class testbed {
public:
    // `model` holds the *nominal* specs the controller also sees; the testbed
    // derives its perturbed ground truth from it. `initial` must be a
    // structurally valid configuration.
    testbed(const cluster::cluster_model& model, cluster::configuration initial,
            testbed_options options = {});

    [[nodiscard]] const cluster::configuration& config() const { return config_; }
    [[nodiscard]] seconds now() const { return now_; }
    [[nodiscard]] const testbed_options& options() const { return options_; }

    // Queues actions for sequential execution; they start consuming time at
    // the next advance(). Actions are validated against the configuration
    // they will fire from (earlier queued actions included) — submitting an
    // inapplicable sequence throws. Under fault injection a queued action may
    // *become* inapplicable (a failed predecessor or a host crash breaks the
    // chain); the projection skips such actions because the executor will
    // abort them at start rather than execute them. `initial_delay` models
    // the controller's decision time: the system idles in its old
    // configuration for that long before the first action starts
    // (Section IV's decision-delay cost).
    void submit(const std::vector<cluster::action>& actions,
                seconds initial_delay = 0.0);
    [[nodiscard]] bool busy() const { return in_flight_.has_value() || !queue_.empty(); }
    [[nodiscard]] std::size_t pending_actions() const;

    // Advances simulated time by `dt` under per-app offered `rates`,
    // executing queued actions and integrating the metered signals.
    observation advance(seconds dt, const std::vector<req_per_sec>& rates);

    // Noise-free ground truth for a hypothetical configuration (used by
    // tests and the model-validation bench's "experiment" series).
    [[nodiscard]] cluster::prediction ground_truth(
        const cluster::configuration& config,
        const std::vector<req_per_sec>& rates) const;

    // Ground-truth transient for one action from the current configuration
    // (exposed for the offline cost campaign's reporting).
    [[nodiscard]] action_transient transient_of(
        const cluster::action& a, const std::vector<req_per_sec>& rates) const;

private:
    const cluster::cluster_model* nominal_;  // not owned
    cluster::cluster_model true_model_;      // perturbed ground truth
    cluster::configuration config_;
    testbed_options options_;
    rng noise_;
    fault_injector injector_;
    seconds now_ = 0.0;

    // A queued item is either a real action or a pure wait (decision delay).
    struct queued_item {
        std::optional<cluster::action> act;
        seconds wait = 0.0;
    };
    struct in_flight {
        std::optional<cluster::action> act;  // nullopt: waiting, no transients
        action_transient transient;
        seconds remaining = 0.0;
        bool doomed = false;            // injector failed it at start
        seconds window_elapsed = 0.0;   // execution time within this window
    };
    std::optional<in_flight> in_flight_;
    std::deque<queued_item> queue_;

    // Disabled one-branch no-ops unless options_.sink carries a registry.
    obs::counter obs_started_;
    obs::counter obs_completed_;
    obs::counter obs_failed_;
    obs::counter obs_crashes_;
    obs::counter obs_recoveries_;

    // Crash/recovery delivery at local time `local`; returns true if the
    // configuration changed. Time already burnt this window by an executing
    // action the crash aborts is added to `wasted`.
    bool deliver_fault_events(seconds local, observation& out, double& wasted);

    // Cached steady-state ground truth for the current configuration
    // (outage-aware: crashed-out applications report outage_response_time).
    mutable std::optional<std::vector<req_per_sec>> steady_rates_;
    mutable cluster::outage_prediction steady_;
    const cluster::outage_prediction& steady_state(
        const std::vector<req_per_sec>& rates) const;
    void invalidate_steady() const { steady_rates_.reset(); }

    static cluster::cluster_model build_true_model(const cluster::cluster_model& nominal,
                                                   const testbed_options& options);
};

}  // namespace mistral::sim
