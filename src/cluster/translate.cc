#include "cluster/translate.h"

#include "common/check.h"

namespace mistral::cluster {

void to_lqn(const cluster_model& model, const configuration& config,
            const std::vector<req_per_sec>& rates,
            std::vector<lqn::app_deployment>& out) {
    MISTRAL_CHECK_MSG(rates.size() == model.app_count(),
                      "expected " << model.app_count() << " rates, got " << rates.size());
    out.resize(model.app_count());
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        auto& dep = out[a];
        dep.spec = &model.app(app);
        dep.rate = rates[a];
        dep.tiers.resize(dep.spec->tier_count());
        for (std::size_t t = 0; t < dep.spec->tier_count(); ++t) {
            auto& replicas = dep.tiers[t].replicas;
            replicas.clear();
            for (vm_id vm : model.tier_vms(app, t)) {
                const auto& p = config.placement(vm);
                if (!p) continue;
                replicas.push_back({.host = p->host.index(), .cpu_cap = p->cpu_cap});
            }
            MISTRAL_CHECK_MSG(!replicas.empty(), dep.spec->name()
                                                     << " tier " << t
                                                     << " has no deployed replicas");
        }
    }
}

std::vector<lqn::app_deployment> to_lqn(const cluster_model& model,
                                        const configuration& config,
                                        const std::vector<req_per_sec>& rates) {
    std::vector<lqn::app_deployment> out;
    to_lqn(model, config, rates, out);
    return out;
}

watts predicted_power(const cluster_model& model, const configuration& config,
                      std::span<const fraction> host_utilization) {
    MISTRAL_CHECK(host_utilization.size() == model.host_count());
    watts total = 0.0;
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (!config.host_on(host)) continue;
        total += model.hosts()[h].power.power(host_utilization[h]);
    }
    return total;
}

prediction predict(const cluster_model& model, const configuration& config,
                   const std::vector<req_per_sec>& rates,
                   const lqn::model_options& options) {
    prediction out;
    out.perf = lqn::solve(to_lqn(model, config, rates), model.host_count(), options);
    out.power = predicted_power(model, config, out.perf.host_utilization);
    return out;
}

outage_prediction predict_with_outages(const cluster_model& model,
                                       const configuration& config,
                                       const std::vector<req_per_sec>& rates,
                                       const lqn::model_options& options,
                                       seconds outage_response_time) {
    MISTRAL_CHECK(rates.size() == model.app_count());
    outage_prediction out;
    out.app_down.assign(model.app_count(), false);
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            int deployed = 0;
            for (vm_id vm : model.tier_vms(app, t)) {
                deployed += config.deployed(vm) ? 1 : 0;
            }
            if (deployed == 0) {
                out.app_down[a] = true;
                break;
            }
        }
    }
    if (!out.any_down()) {
        out.pred = predict(model, config, rates, options);
        return out;
    }

    // Solve the up applications only; a down application's load reaches no
    // server. Rates for down apps are zeroed rather than removed so to_lqn's
    // shape checks hold, then their deployments are dropped from the solve.
    std::vector<lqn::app_deployment> up;
    std::vector<std::size_t> up_index;
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        if (out.app_down[a]) continue;
        const app_id app{static_cast<std::int32_t>(a)};
        lqn::app_deployment dep;
        dep.spec = &model.app(app);
        dep.rate = rates[a];
        dep.tiers.resize(dep.spec->tier_count());
        for (std::size_t t = 0; t < dep.spec->tier_count(); ++t) {
            for (vm_id vm : model.tier_vms(app, t)) {
                const auto& p = config.placement(vm);
                if (!p) continue;
                dep.tiers[t].replicas.push_back(
                    {.host = p->host.index(), .cpu_cap = p->cpu_cap});
            }
        }
        up_index.push_back(a);
        up.push_back(std::move(dep));
    }

    lqn::solve_result solved;
    if (!up.empty()) {
        solved = lqn::solve(up, model.host_count(), options);
    } else {
        solved.host_utilization.assign(model.host_count(), 0.0);
        solved.host_demand.assign(model.host_count(), 0.0);
    }

    // Re-assemble per-app results in the original order.
    out.pred.perf.host_utilization = solved.host_utilization;
    out.pred.perf.host_demand = solved.host_demand;
    out.pred.perf.saturated = solved.saturated;
    out.pred.perf.apps.resize(model.app_count());
    for (std::size_t i = 0; i < up_index.size(); ++i) {
        out.pred.perf.apps[up_index[i]] = std::move(solved.apps[i]);
    }
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        if (!out.app_down[a]) continue;
        const auto& spec = model.app(app_id{static_cast<std::int32_t>(a)});
        auto& down = out.pred.perf.apps[a];
        down.mean_response_time = outage_response_time;
        down.per_transaction.assign(spec.transactions().size(),
                                    outage_response_time);
        down.tiers.assign(spec.tier_count(), {});
        down.saturated = true;
    }
    out.pred.power = predicted_power(model, config, out.pred.perf.host_utilization);
    return out;
}

}  // namespace mistral::cluster
