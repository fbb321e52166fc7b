// Two documents that pin the snapshot codec's bytes: a checkpoint in which
// every field of every struct it holds has a non-default value, and a
// decision input with every channel non-empty. The literals were written by
// the hand-coded codec that preceded the field lists; any change to a key,
// its order or a number's formatting shows up as a byte difference.
// snapshot_test.cc checks the round trip; snapshot_fuzz_test.cc mutates them.
#pragma once

#include <limits>
#include <string_view>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "core/snapshot.h"

namespace mistral::core::golden {

inline predict::predictor_state predictor(double base) {
    predict::predictor_state p;
    p.estimate = base + 0.5;
    p.beta = 0.375;
    p.recent_measured = {base, base + 1.25};
    p.recent_errors = {-0.125, std::numeric_limits<double>::infinity()};
    p.all_measured = {base, base + 1.25, base + 2.0};
    p.all_estimates = {base + 0.5, 0.1 + 0.2};
    p.cusum = 2.5e-7;
    p.trusted = false;
    p.divergence_count = 3;
    p.fit_attempts = 2;
    p.next_fit_at = 17;
    p.fit_valid = true;
    p.fit_coeffs = {0.9, -0.05};
    return p;
}

// Four VMs on three hosts; host 2 has crashed.
inline cluster::configuration config() {
    cluster::configuration c(4, 3);
    c.set_host_power(host_id{0}, true);
    c.set_host_power(host_id{1}, true);
    c.deploy(vm_id{0}, host_id{0}, 0.4);
    c.deploy(vm_id{1}, host_id{1}, 0.25);
    c.deploy(vm_id{3}, host_id{0}, 0.355);
    c.set_host_failed(host_id{2}, true);
    return c;
}

inline controller_state controller() {
    controller_state s;
    s.monitor.scale = 0.75;
    s.monitor.initialized = true;
    s.monitor.band_centers = {40.0, 32.5};
    s.monitor.band_widths = {4.0, 3.25};
    s.monitor.band_set_at = {120.0, 240.0};
    s.monitor.history = {{12.5, 13.0}, {}};
    s.validator.last_good = {40.5, 31.0};
    s.validator.has_last_good = {true, false};
    s.validator.last_seen = {40.5, 29.75};
    s.validator.repeat_count = {0, 2};
    s.predictors = {predictor(60.0), predictor(90.0)};
    s.utility_history = {1.5, -0.25};
    s.first_step = false;
    s.rate_forecasters = {predictor(40.0)};
    s.prev_forecaster_trusted = {true, false};
    s.lookahead_deadline_tripped = true;
    s.lstats = {1, 2, 3, 4, 5};
    s.rstats = {6, 7, 8, 9, 12.5, 0.03125};
    s.intended = config();
    s.fault_rounds = 2;
    s.backoff_until = 480.0;
    s.mode = control_mode::greedy;
    s.clean_steps = 1;
    s.deadline_tripped = true;
    s.prev_trusted = {false, true};
    s.dstats = {10, 11, 12, 13, 14, 15, 16};
    s.power_cap = 850.5;
    return s;
}

inline snapshot full_snapshot() {
    coordinator_state st;
    pod_controller_state busy;
    busy.apps = {0, 1};
    busy.budget = 900.25;
    busy.controller = controller();
    pod_controller_state idle;  // no controller yet
    idle.apps = {2};
    idle.budget = 450.0;
    st.pods = {busy, idle};
    st.budgets = {900.25, 450.0};
    st.brokered_migrations = 4;
    st.stray_apps = {3};
    st.health = {pod_health{true, 2}, pod_health{false, 0}};
    pending_migration m;
    m.app = 1;
    m.from = 0;
    m.to = 1;
    m.plan = {
        cluster::increase_cpu{vm_id{3}},
        cluster::decrease_cpu{vm_id{1}},
        cluster::add_replica{vm_id{2}, host_id{1}, 0.35},
        cluster::remove_replica{vm_id{0}},
        cluster::migrate{vm_id{1}, host_id{0}},
        cluster::power_on{host_id{1}},
        cluster::power_off{host_id{0}},
    };
    m.prepared_at = 360.0;
    m.intervals_left = 2;
    st.pending = {m};
    return snapshot{snapshot_version, 720.5, st};
}

inline decision_input full_decision_input() {
    decision_input in;
    in.now = 1234.5;
    in.rates = {41.25, 0.1 + 0.2};
    in.current = config();
    in.last_interval_utility = -3.7e-9;
    in.failed = {cluster::migrate{vm_id{1}, host_id{0}}};
    in.in_flight = {cluster::power_on{host_id{1}},
                    cluster::add_replica{vm_id{2}, host_id{1}, 0.25}};
    in.hosts_failed = {2};
    in.hosts_recovered = {1, 0};
    in.response_times = {0.012, std::numeric_limits<double>::infinity()};
    in.samples = {120.0, 0.0};
    return in;
}

inline constexpr std::string_view snapshot_json =
    R"({"version":1,"taken_at":720.5,"state":{"pods":[{"apps":[0,1],)"
    R"("budget":900.25,"controller":{"monitor":{"scale":0.75,)"
    R"("initialized":true,"band_centers":[40,32.5],"band_widths":[4,3.25],)"
    R"("band_set_at":[120,240],"history":[[12.5,13],[]]},)"
    R"("validator":{"last_good":[40.5,31],"has_last_good":[true,false],)"
    R"("last_seen":[40.5,29.75],"repeat_count":[0,2]},)"
    R"("predictors":[{"estimate":60.5,"beta":0.375,"recent_measured":[60,)"
    R"(61.25],"recent_errors":[-0.125,"inf"],"all_measured":[60,61.25,62],)"
    R"("all_estimates":[60.5,0.30000000000000004],"cusum":2.5e-07,)"
    R"("trusted":false,"divergence_count":3,"fit_attempts":2,"next_fit_at":17,)"
    R"("fit_valid":true,"fit_coeffs":[0.9,-0.05]},{"estimate":90.5,)"
    R"("beta":0.375,"recent_measured":[90,91.25],"recent_errors":[-0.125,)"
    R"("inf"],"all_measured":[90,91.25,92],"all_estimates":[90.5,)"
    R"(0.30000000000000004],"cusum":2.5e-07,"trusted":false,)"
    R"("divergence_count":3,"fit_attempts":2,"next_fit_at":17,)"
    R"("fit_valid":true,"fit_coeffs":[0.9,-0.05]}],"utility_history":[1.5,)"
    R"(-0.25],"first_step":false,"rate_forecasters":[{"estimate":40.5,)"
    R"("beta":0.375,"recent_measured":[40,41.25],"recent_errors":[-0.125,)"
    R"("inf"],"all_measured":[40,41.25,42],"all_estimates":[40.5,)"
    R"(0.30000000000000004],"cusum":2.5e-07,"trusted":false,)"
    R"("divergence_count":3,"fit_attempts":2,"next_fit_at":17,)"
    R"("fit_valid":true,"fit_coeffs":[0.9,-0.05]}],)"
    R"("prev_forecaster_trusted":[true,false],)"
    R"("lookahead_deadline_tripped":true,"lstats":{"lookahead_decisions":1,)"
    R"("preprovision_commits":2,"reactive_commits":3,"forecast_divergences":4,)"
    R"("deadline_demotions":5},"rstats":{"failed_actions":6,"fault_replans":7,)"
    R"("repairs":8,"drift_intervals":9,"wasted_adaptation_time":12.5,)"
    R"("wasted_transient_cost":0.03125},"intended":{"vms":4,"hosts":3,"on":[0,)"
    R"(1],"down":[2],"placed":[[0,0,0.4],[1,1,0.25],[3,0,0.355]]},)"
    R"("fault_rounds":2,"backoff_until":480,"mode":2,"clean_steps":1,)"
    R"("deadline_tripped":true,"prev_trusted":[false,true],)"
    R"("dstats":{"degraded_windows":10,"garbage_windows":11,"demotions":12,)"
    R"("promotions":13,"held_triggers":14,"greedy_decisions":15,)"
    R"("deadline_trips":16},"power_cap":850.5}},{"apps":[2],"budget":450,)"
    R"("controller":null}],"budgets":[900.25,450],"brokered_migrations":4,)"
    R"("stray_apps":[3],"health":[{"quarantined":true,"clean_intervals":2},)"
    R"({"quarantined":false,"clean_intervals":0}],"pending":[{"app":1,)"
    R"("from":0,"to":1,"plan":[{"kind":"increase_cpu","vm":3},)"
    R"({"kind":"decrease_cpu","vm":1},{"kind":"add_replica","vm":2,"to":1,)"
    R"("cap":0.35},{"kind":"remove_replica","vm":0},{"kind":"migrate","vm":1,)"
    R"("to":0},{"kind":"power_on","host":1},{"kind":"power_off","host":0}],)"
    R"("prepared_at":360,"intervals_left":2}]}})";

inline constexpr std::string_view decision_input_json =
    R"({"now":1234.5,"rates":[41.25,0.30000000000000004],"current":{"vms":4,)"
    R"("hosts":3,"on":[0,1],"down":[2],"placed":[[0,0,0.4],[1,1,0.25],[3,0,)"
    R"(0.355]]},"last_interval_utility":-3.7e-09,"failed":[{"kind":"migrate",)"
    R"("vm":1,"to":0}],"in_flight":[{"kind":"power_on","host":1},)"
    R"({"kind":"add_replica","vm":2,"to":1,"cap":0.25}],"hosts_failed":[2],)"
    R"("hosts_recovered":[1,0],"response_times":[0.012,"inf"],"samples":[120,)"
    R"(0]})";

}  // namespace mistral::core::golden
