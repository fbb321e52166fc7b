// Control strategies: Mistral and the three two-objective baselines.
//
// Section V-C compares Mistral with approaches that each solve the tradeoff
// between only two of {performance, power, adaptation cost}:
//
//  * Perf-Pwr  — the Section IV-A optimizer run directly: whenever the
//    workload moves, jump to the performance/power-optimal configuration,
//    ignoring what the jump costs.
//  * Perf-Cost — a fixed pool of 2 hosts per application; optimizes
//    performance utility with adaptation costs in the formulation, but never
//    consolidates onto fewer hosts and ignores power entirely.
//  * Pwr-Cost  — pMapper-style: per-workload *required* VM capacities (big
//    enough to always meet response-time targets) are given; the strategy
//    resizes to them, repairs packing violations by migrating the smallest
//    VMs, and consolidates onto fewer hosts only when the predicted power
//    saving over the control window beats the migration cost.
//  * Mistral   — the full holistic controller (controller.h).
//
// All four expose the same `strategy` interface so the experiment harness
// (experiment.h) can run them against identical workloads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/controller.h"
#include "core/perf_pwr.h"
#include "core/planner.h"
#include "cost/table.h"
#include "predict/arma.h"
#include "workload/monitor.h"

namespace mistral::core {

class strategy {
public:
    virtual ~strategy() = default;

    struct outcome {
        bool invoked = false;
        std::vector<cluster::action> actions;
        // How long the decision itself took (the system stays in the old
        // configuration for this long before the actions start).
        seconds decision_delay = 0.0;
        // $ cost of the decision's own power draw (charged to utility).
        dollars decision_power_cost = 0.0;
        search_stats stats;
    };

    [[nodiscard]] virtual std::string name() const = 0;
    // One monitoring-interval decision over the interval's observations
    // (see decision_input in controller.h).
    virtual outcome decide(const decision_input& in) = 0;
};

// ---- Mistral -------------------------------------------------------------
class mistral_strategy final : public strategy {
public:
    mistral_strategy(const cluster::cluster_model& model, cost::cost_table costs,
                     controller_options options = {});

    [[nodiscard]] std::string name() const override { return "Mistral"; }
    outcome decide(const decision_input& in) override;

    [[nodiscard]] const mistral_controller& controller() const { return controller_; }

private:
    mistral_controller controller_;
};

// ---- Perf-Pwr ------------------------------------------------------------
class perf_pwr_strategy final : public strategy {
public:
    perf_pwr_strategy(const cluster::cluster_model& model,
                      utility_params utility = {}, perf_pwr_options options = {});

    [[nodiscard]] std::string name() const override { return "Perf-Pwr"; }
    outcome decide(const decision_input& in) override;

private:
    const cluster::cluster_model* model_;
    perf_pwr_optimizer optimizer_;
    std::vector<req_per_sec> last_rates_;
};

// ---- Perf-Cost -----------------------------------------------------------
class perf_cost_strategy final : public strategy {
public:
    // Partitions hosts round-robin into fixed pools of `hosts_per_app`.
    perf_cost_strategy(const cluster::cluster_model& model, cost::cost_table costs,
                       controller_options options = {}, int hosts_per_app = 2);

    [[nodiscard]] std::string name() const override { return "Perf-Cost"; }
    outcome decide(const decision_input& in) override;

    // The pool assignment (app → allowed hosts), exposed so harnesses can
    // build pool-respecting initial configurations.
    [[nodiscard]] const std::vector<std::vector<bool>>& pools() const { return pools_; }

private:
    std::vector<std::vector<bool>> pools_;
    std::unique_ptr<mistral_controller> controller_;
};

// ---- Pwr-Cost ------------------------------------------------------------
class pwr_cost_strategy final : public strategy {
public:
    pwr_cost_strategy(const cluster::cluster_model& model, cost::cost_table costs,
                      utility_params utility = {}, perf_pwr_options options = {},
                      predict::arma_options arma = {});

    [[nodiscard]] std::string name() const override { return "Pwr-Cost"; }
    outcome decide(const decision_input& in) override;

private:
    const cluster::cluster_model* model_;
    cost::cost_table costs_;
    utility_model utility_;
    perf_pwr_optimizer optimizer_;
    wl::workload_monitor monitor_;
    std::vector<predict::stability_predictor> predictors_;
    std::vector<req_per_sec> last_rates_;

    [[nodiscard]] seconds control_window(const wl::monitor_event& event) const;
};

}  // namespace mistral::core
