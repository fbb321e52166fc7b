// Bridges configurations to the predictor substrates.
//
// The Performance Manager and Power Consolidation Manager of Fig. 2 both
// consume (configuration, workload) pairs; this translation layer builds the
// LQN deployment view for the solver and turns its host utilizations into a
// cluster power prediction.
#pragma once

#include <span>
#include <vector>

#include "cluster/configuration.h"
#include "cluster/model.h"
#include "lqn/solver.h"

namespace mistral::cluster {

// The LQN view of `config` with one entry per application; `rates` is the
// per-application workload vector W. Requires a structurally valid
// configuration (every tier deployed somewhere). The buffer form refills
// `out`, whatever it held, reusing its tier and replica vectors, so a caller
// that keeps one deployment vector across evaluations allocates nothing once
// it has grown to the cluster's replica counts.
void to_lqn(const cluster_model& model, const configuration& config,
            const std::vector<req_per_sec>& rates,
            std::vector<lqn::app_deployment>& out);
std::vector<lqn::app_deployment> to_lqn(const cluster_model& model,
                                        const configuration& config,
                                        const std::vector<req_per_sec>& rates);

// Steady-state cluster power: each powered-on host draws its power model's
// value at the given utilization; powered-off hosts draw nothing
// (Section III-B: "the total power usage of the system is simply the sum of
// physical machines' power usages").
watts predicted_power(const cluster_model& model, const configuration& config,
                      std::span<const fraction> host_utilization);

struct prediction {
    lqn::solve_result perf;
    watts power = 0.0;
};

// Solve + power in one call (what UtilityEst needs).
prediction predict(const cluster_model& model, const configuration& config,
                   const std::vector<req_per_sec>& rates,
                   const lqn::model_options& options = {});

// Outage-tolerant prediction for configurations a host crash has degraded
// below a tier's minimum replication. Applications with an undeployed tier
// are *down*: they are excluded from the LQN solve (their load reaches no
// server, so it consumes no CPU), their mean response time is reported as
// `outage_response_time`, and `app_down[a]` marks them. With every tier
// deployed this is exactly predict() — same solver inputs, bit-identical
// result.
struct outage_prediction {
    prediction pred;
    std::vector<bool> app_down;
    [[nodiscard]] bool any_down() const {
        for (bool d : app_down) {
            if (d) return true;
        }
        return false;
    }
};
outage_prediction predict_with_outages(const cluster_model& model,
                                       const configuration& config,
                                       const std::vector<req_per_sec>& rates,
                                       const lqn::model_options& options = {},
                                       seconds outage_response_time = 10.0);

}  // namespace mistral::cluster
