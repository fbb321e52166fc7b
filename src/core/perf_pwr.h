// The Perf-Pwr optimizer (Section IV-A).
//
// Finds the *ideal configuration* c° for a workload: the performance/power
// optimum when transient adaptation costs are ignored. The paper's algorithm
// is reproduced directly:
//
//   for each candidate host count (all hosts down to the minimum that can
//   hold the VMs' minimum capacities):
//     start from maximum CPU capacities (and maximum replication);
//     try to bin-pack the VMs onto the hosts, worst-fit decreasing
//       ("chooses the host that has the largest space among used hosts; if
//        no such host is found, it chooses a new empty host");
//     while packing fails, run a gradient search: candidates reduce one
//       tier's capacity by a step or remove one replica, scored by
//       ∇ρ = Δρ / ΔU_RT — CPU allocation freed per unit of performance
//       utility given up — and iterate from the best candidate;
//   the packed configuration with the highest total utility (performance
//   plus power) is the ideal configuration c°, whose utility U° is the
//   admissible cost-to-go bound used by the A* search.
#pragma once

#include <memory>
#include <vector>

#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/evaluator.h"
#include "core/utility.h"

namespace mistral::core {

struct perf_pwr_options {
    lqn::model_options lqn{};
    // Capacity-reduction granularity; defaults to the model's cpu_step.
    fraction cap_step = 0.0;
    int max_gradient_iterations = 400;
    // Optional per-app host restriction (same shape as
    // search_options::app_hosts): the packer only places an application's
    // VMs on its allowed hosts. Empty = unrestricted.
    std::vector<std::vector<bool>> app_hosts;
};

struct perf_pwr_result {
    bool feasible = false;
    cluster::configuration ideal;        // c°
    double utility_rate = 0.0;           // U° as $/s (perf + power)
    double perf_rate = 0.0;              // performance component ($/s)
    double power_rate = 0.0;             // power component ($/s, ≤ 0)
    watts power = 0.0;
    std::vector<seconds> response_times;  // predicted per app in c°
    std::size_t hosts_used = 0;
};

class perf_pwr_optimizer {
public:
    // Owns a fresh serial utility_evaluator built from `options.lqn`.
    perf_pwr_optimizer(const cluster::cluster_model& model, utility_model utility,
                       perf_pwr_options options = {});
    // Shares a caller-owned evaluator — the adaptation search passes its own
    // so the ideal-configuration scoring and the A* children run on one
    // engine within a decision.
    perf_pwr_optimizer(const cluster::cluster_model& model, utility_model utility,
                       perf_pwr_options options,
                       std::shared_ptr<utility_evaluator> evaluator);

    // The ideal configuration and utility for workload `rates`. When a
    // `reference` configuration is given, the packer keeps each VM on its
    // reference host whenever that host still fits it — a placement-stable
    // ideal, so the route from the reference to the ideal contains only the
    // migrations that actually buy something.
    [[nodiscard]] perf_pwr_result optimize(
        const std::vector<req_per_sec>& rates,
        const cluster::configuration* reference = nullptr) const;

    // Variant used by the Pwr-Cost baseline: like optimize(), but capacity
    // reductions that would push any application past its target response
    // time are rejected, so the result always meets response-time goals if
    // at all feasible (the paper's "modified Perf-Pwr", Section V-C).
    [[nodiscard]] perf_pwr_result optimize_meeting_targets(
        const std::vector<req_per_sec>& rates,
        const cluster::configuration* reference = nullptr) const;

private:
    const cluster::cluster_model* model_;
    utility_model utility_;
    perf_pwr_options options_;
    // All steady-rate utility computation (LQN + power + Eq. 1/2) flows
    // through the evaluation engine; the optimizer never calls the models
    // directly. optimize() stays logically const — the engine only caches.
    std::shared_ptr<utility_evaluator> evaluator_;

    [[nodiscard]] perf_pwr_result run(const std::vector<req_per_sec>& rates,
                                      bool enforce_targets,
                                      const cluster::configuration* reference) const;
};

}  // namespace mistral::core
