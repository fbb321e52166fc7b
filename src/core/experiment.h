// Experiment harness: runs a strategy against the testbed over traces.
//
// Reproduces the paper's measurement methodology (Section V): the testbed
// advances in monitoring intervals; each interval the strategy sees the
// measured workload and the previous interval's achieved utility, submits
// actions (delayed by its own decision time), and the harness accounts the
// interval's *measured* utility — rewards/penalties from metered response
// times (Eq. 1), power cost from metered watts (Eq. 2), minus the decision's
// own power cost.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/application.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "common/stats.h"
#include "common/time_series.h"
#include "core/strategies.h"
#include "sim/faults.h"
#include "sim/testbed.h"
#include "workload/trace.h"

namespace mistral::obs {
class sink;
}

namespace mistral::core {

struct scenario_options {
    std::size_t host_count = 4;
    std::size_t app_count = 2;
    std::uint64_t seed = 1;
    seconds monitoring_interval = default_monitoring_interval;
    sim::testbed_options testbed{};
    utility_params utility{};
    // Sensor-level fault injection (sim/faults.h): corrupts the telemetry
    // windows the *strategy* observes, while the testbed's ground truth —
    // and therefore the measured utility accounting — stays untouched. Inert
    // by default: with all probabilities zero the harness never constructs a
    // window and the run is byte-identical to a build without this knob.
    sim::sensor_fault_options sensor_faults{};
    // Economics accounting (core/utility.h econ_profile). When enabled, the
    // harness prices *measured* utility under this profile — tariffed power
    // cost, carbon mass, revenue under the pricing model — and reports the
    // energy/carbon/revenue totals in run_result plus "energy_cost" /
    // "carbon_g" series and mistral_econ_* gauges. The strategies under test
    // keep whatever economics they were built with, so a price-blind
    // controller can be measured under the same tariff as an econ-aware one
    // (the day/night bench's comparison). Disabled leaves the accounting —
    // and the output — byte-identical to the pre-econ harness.
    econ_profile econ{};
    // Traces per application; when empty, the Fig. 4 workloads are generated
    // (truncated/cycled to app_count).
    std::vector<wl::trace> traces{};
    // Observability hook (obs/journal.h): forwarded to the testbed (unless it
    // set its own) and used by the harness itself to emit one "interval"
    // record per monitoring interval — measured utility, power, actions,
    // failures, self-cost — so a journal reconciles against the run's final
    // accounting. nullptr (the default) is the zero-overhead null sink.
    obs::sink* sink = nullptr;
};

struct scenario {
    cluster::cluster_model model;
    cluster::configuration initial;
    std::vector<wl::trace> traces;
    scenario_options options;
};

// Builds the paper's RUBiS scenario: `app_count` RUBiS applications on
// `host_count` hosts, each application's minimum replica set started at 40 %
// caps on a contiguous pair of hosts (which also respects the Perf-Cost
// baseline's fixed pools).
scenario make_rubis_scenario(scenario_options options = {});

struct run_result {
    std::string strategy_name;
    series_bundle series;  // rt_<app> (ms), power (W), utility, cum_utility,
                           // hosts, actions, search_ms
    dollars cumulative_utility = 0.0;
    watts mean_power = 0.0;
    // Fraction of intervals each application missed its target.
    std::vector<double> violation_fraction;
    std::size_t total_actions = 0;
    // Actions the testbed aborted (fault injection); a "failed" series is
    // added to `series` only on intervals that actually saw failures, so
    // fault-free runs produce byte-identical output.
    std::size_t total_failed_actions = 0;
    std::size_t invocations = 0;
    running_stats search_duration;   // seconds per invocation
    dollars total_search_cost = 0.0; // $ of controller power
    // Testbed-reported seconds burnt on adaptations that never took effect
    // (doomed executions and crash-aborted transients); 0 without faults.
    seconds total_wasted_seconds = 0.0;
    // Economics accounting, all zero unless scenario_options::econ.enabled:
    // tariffed power spend (carbon price included), emitted carbon mass from
    // the tariff's intensity series, and SLA revenue under the pricing model.
    dollars energy_dollars = 0.0;
    double carbon_grams = 0.0;
    dollars revenue_dollars = 0.0;
};

// Runs `strat` over the scenario, one fresh testbed per call (same seed ⇒
// identical ground truth across strategies).
run_result run_scenario(const scenario& scn, strategy& strat);

// Human-readable end-of-run accounting (examples and ad-hoc tooling): the
// cumulative utility, power, adaptation and self-cost totals of one run.
void print_run_summary(const run_result& result, std::ostream& out);

}  // namespace mistral::core
