// Deterministic fault injection for the testbed simulator.
//
// The paper's testbed executes every adaptation action perfectly; real
// clusters do not. The injector adds the three fault classes a production
// controller must survive, all drawn from an explicitly seeded RNG stream so
// every fault schedule replays bit-identically:
//
//  * action failures  — a starting action aborts after burning a fraction of
//    its nominal duration (a live migration that times out, a boot that
//    wedges); the configuration stays in its pre-action state and the
//    wasted transient time/power is still metered.
//  * stragglers       — a starting action takes a multiple of its nominal
//    duration (dirty-page churn, slow disks); it still completes.
//  * host crashes     — scheduled events: at time t a host dies, its VMs
//    return to the dormant pool, and the host is marked *failed* (it cannot
//    be powered back on) until an optional recovery time clears the mark.
//
// With every probability at zero and no scheduled crashes the injector is
// provably inert: it draws nothing from its RNG and the testbed's behaviour
// is byte-identical to a build without fault injection.
//
// The sensor_fault_injector extends the same discipline to the *sensing*
// side: it corrupts the telemetry windows the controller observes (dropped,
// delayed, duplicated, spiked, and garbage measurements, plus stuck-at-last-
// value sensors) while the testbed's ground truth — and therefore the true
// utility accounting — stays untouched. That split is what lets a scenario
// compare "what the controller believed" against "what actually happened".
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/action.h"
#include "common/rng.h"
#include "common/units.h"
#include "workload/monitor.h"

namespace mistral::sim {

// One slot per cluster::action_kind enumerator, indexed by
// static_cast<std::size_t>(kind).
inline constexpr std::size_t action_kind_count = 7;

struct host_crash_event {
    seconds at = 0.0;
    std::int32_t host = 0;
    // <= 0: the host never comes back. Otherwise its failure mark clears at
    // `at + recover_after`; the host stays powered off until the controller
    // deliberately boots it again.
    seconds recover_after = 0.0;

    friend bool operator==(const host_crash_event&, const host_crash_event&) = default;
};

struct fault_options {
    // Per-action-kind probability that a starting action aborts.
    std::array<double, action_kind_count> failure_probability{};
    // Per-action-kind probability that a starting action straggles.
    std::array<double, action_kind_count> straggler_probability{};
    // Straggling actions take uniform[1, straggler_multiplier] × duration.
    double straggler_multiplier = 3.0;
    // Failing actions burn this fraction of their nominal duration (with the
    // full transient response-time/power impact) before aborting.
    double failure_duration_fraction = 0.5;
    std::vector<host_crash_event> host_crashes;

    [[nodiscard]] bool inert() const;

    // Same probabilities for every action kind (test/demo convenience).
    [[nodiscard]] static fault_options uniform(double fail_probability,
                                               double straggle_probability = 0.0);
};

// The injector's verdict on an action that is about to start executing.
struct fault_decision {
    bool fail = false;
    double duration_multiplier = 1.0;
};

class fault_injector {
public:
    fault_injector() = default;  // inert
    fault_injector(fault_options options, std::uint64_t seed);

    [[nodiscard]] bool inert() const { return inert_; }
    [[nodiscard]] const fault_options& options() const { return options_; }

    // Deterministic draw for one starting action. Inert injectors return the
    // no-fault decision without touching the RNG.
    fault_decision on_action_start(const cluster::action& a);

    // Time of the earliest still-pending crash or recovery (infinity when
    // none), so the caller can split its time integration exactly at fault
    // instants.
    [[nodiscard]] seconds next_event_time() const;

    // Crash events with `at` <= t, in schedule order; each is returned once.
    std::vector<host_crash_event> take_crashes_due(seconds t);
    // Host indices whose recovery time has passed; each is returned once.
    std::vector<std::int32_t> take_recoveries_due(seconds t);

private:
    fault_options options_{};
    rng draws_{0};
    bool inert_ = true;
    std::size_t next_crash_ = 0;  // into options_.host_crashes (sorted by at)
    struct pending_recovery {
        seconds at = 0.0;
        std::int32_t host = 0;
    };
    std::vector<pending_recovery> recoveries_;  // sorted by at
};

// ---------------------------------------------------------------------------
// Sensor-level fault injection.

enum class sensor_fault_kind {
    none,
    drop,       // window lost: zero samples, zero rate (an empty window)
    delay,      // the previous window's values are delivered again
    duplicate,  // counters double-counted: rate and samples ×2
    spike,      // rate multiplied by uniform[2, spike_multiplier]
    garbage,    // NaN / inf / negative / absurdly huge reading
    stuck,      // sensor latches its last reported value for several windows
};
[[nodiscard]] const char* to_string(sensor_fault_kind kind);

struct sensor_fault_options {
    // Per-window, per-application probabilities; their sum must be <= 1.
    double drop_probability = 0.0;
    double delay_probability = 0.0;
    double duplicate_probability = 0.0;
    double spike_probability = 0.0;
    double garbage_probability = 0.0;
    double stuck_probability = 0.0;
    // Spiked rates multiply by uniform[2, spike_multiplier].
    double spike_multiplier = 10.0;
    // A sticking sensor repeats its last reported value for this many
    // consecutive windows (including the one that triggered it).
    int stuck_windows = 3;

    [[nodiscard]] bool inert() const;

    // Same probability for every fault kind (test/demo convenience).
    [[nodiscard]] static sensor_fault_options uniform(double probability);
};

// One corruption the injector applied, for journaling.
struct telemetry_fault {
    std::size_t app = 0;
    sensor_fault_kind kind = sensor_fault_kind::none;

    friend bool operator==(const telemetry_fault&, const telemetry_fault&) = default;
};

// Corrupts telemetry windows in place, deterministically. Exactly two RNG
// draws per application per window when armed (a kind draw and a magnitude
// draw, always both), so the fault hitting application k in window n never
// depends on which faults earlier applications or windows happened to hit.
// Inert injectors never touch the RNG and leave every window byte-identical.
class sensor_fault_injector {
public:
    sensor_fault_injector() = default;  // inert
    sensor_fault_injector(sensor_fault_options options, std::uint64_t seed);

    [[nodiscard]] bool inert() const { return inert_; }
    [[nodiscard]] const sensor_fault_options& options() const { return options_; }

    // Applies this window's faults to `window` and reports what was done.
    // Channels the window does not carry (empty response_times/samples
    // vectors) are left absent.
    std::vector<telemetry_fault> corrupt(wl::telemetry_window& window);

private:
    struct app_state {
        bool has_prev = false;
        double prev_true_rate = 0.0;       // last uncorrupted measurement
        double prev_true_rt = 0.0;
        double prev_true_samples = 0.0;
        double prev_delivered_rate = 0.0;  // last value the sensor reported
        double prev_delivered_rt = 0.0;
        double prev_delivered_samples = 0.0;
        int latch_left = 0;                // windows the stuck value still holds
    };

    sensor_fault_options options_{};
    rng draws_{0};
    bool inert_ = true;
    std::vector<app_state> apps_;
};

// ---------------------------------------------------------------------------
// Control-plane fault injection.

struct control_fault_options {
    // Per-interval, per-pod probability that the pod controller crashes (its
    // decision this interval is lost; the coordinator applies a failsafe).
    double crash_probability = 0.0;
    // Per-interval, per-pod probability that the pod controller hangs: its
    // decision takes uniform[1, hang_multiplier] × its nominal duration,
    // possibly blowing the coordinator's per-pod deadline.
    double hang_probability = 0.0;
    double hang_multiplier = 4.0;

    [[nodiscard]] bool inert() const;
};

// The injector's verdict on one pod controller for one interval.
struct control_fault {
    bool crashed = false;
    double hang_multiplier = 1.0;  // 1.0 = no hang
};

// Deterministic control-plane fault schedule. Exactly two RNG draws per pod
// per interval when armed (a kind draw and a magnitude draw, always both), so
// the fault hitting pod k in interval n never depends on which faults earlier
// pods or intervals happened to hit. Inert injectors never touch the RNG.
class control_fault_injector {
public:
    control_fault_injector() = default;  // inert
    control_fault_injector(control_fault_options options, std::uint64_t seed);

    [[nodiscard]] bool inert() const { return inert_; }
    [[nodiscard]] const control_fault_options& options() const { return options_; }

    // Deterministic draw for one pod controller this interval. Call once per
    // pod per interval, in pod-id order.
    control_fault on_pod_step(std::size_t pod);

private:
    control_fault_options options_{};
    rng draws_{0};
    bool inert_ = true;
};

}  // namespace mistral::sim
