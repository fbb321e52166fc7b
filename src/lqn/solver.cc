#include "lqn/solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/inline_buffer.h"
#include "lqn/erlang.h"

namespace mistral::lqn {

namespace {

// Processor-sharing response with the same overload extension policy as the
// software layer: steep but finite growth past rho_max (see erlang.cc).
seconds ps_response(seconds service, fraction rho) {
    constexpr double rho_max = 0.98;
    constexpr double overload_slope = 50.0;  // services of extra delay per unit ρ
    if (rho <= rho_max) return service / (1.0 - rho);
    const double at_clamp = service / (1.0 - rho_max);
    return at_clamp + overload_slope * (rho - rho_max) * service;
}

// Per-replica pass-1 state, recomputed identically by compute_host_loads
// (which needs the offered load) and solve_app (which needs rho and the
// consumed CPU). Keeping one function guarantees the two passes can never
// disagree bit-wise.
struct replica_state {
    double arrival = 0.0;      // visits/sec routed to this replica
    double offered = 0.0;      // physical-CPU fraction demanded
    double cpu_usage = 0.0;    // physical-CPU fraction actually consumed
    fraction rho = 0.0;        // busy fraction of the replica's cap
};

replica_state replica_load(const app_deployment& app, std::size_t t,
                           std::size_t r, const model_options& options) {
    const auto& spec = *app.spec;
    const auto& tier = app.tiers[t];
    const auto n = tier.replicas.size();
    const double tier_arrival = app.rate * spec.mean_tier_visits(t);
    // Mix-weighted CPU demand per visit, with Xen overhead folded in.
    const double visits = spec.mean_tier_visits(t);
    const double demand_per_visit =
        visits > 0.0
            ? spec.mean_tier_demand(t) * (1.0 + options.xen_overhead) / visits
            : 0.0;
    replica_state st;
    st.arrival = tier_arrival / static_cast<double>(n);
    st.offered = st.arrival * demand_per_visit;
    const fraction cap = tier.replicas[r].cpu_cap;
    st.rho = st.offered / cap;
    // A capped VM cannot consume more than its cap.
    st.cpu_usage = std::min(st.offered, cap);
    return st;
}

}  // namespace

void compute_host_loads(const std::vector<app_deployment>& apps,
                        std::size_t host_count, const model_options& options,
                        host_loads& out) {
    validate(apps, host_count);

    out.overcommitted = false;
    out.demand.assign(host_count, 0.0);
    out.utilization.assign(host_count, 0.0);
    out.cap_sums.assign(host_count, 0.0);
    out.inflation.assign(host_count, 1.0);

    for (const auto& app : apps) {
        for (std::size_t t = 0; t < app.tiers.size(); ++t) {
            const auto& tier = app.tiers[t];
            for (std::size_t r = 0; r < tier.replicas.size(); ++r) {
                const auto st = replica_load(app, t, r, options);
                out.demand[tier.replicas[r].host] +=
                    st.offered * (1.0 + options.dom0_overhead);
            }
        }
    }
    for (std::size_t h = 0; h < host_count; ++h) {
        // Hosts with any work also pay the Dom-0 baseline; idle hosts are
        // accounted by the caller (it knows which hosts are powered on).
        if (out.demand[h] > 0.0) out.demand[h] += options.dom0_baseline;
        out.utilization[h] = std::min(1.0, out.demand[h]);
    }

    // Host inflation: if actual demand exceeds the physical CPU — or the
    // booked caps exceed the reservable share (see model_options) — every
    // hosted replica slows down proportionally.
    for (const auto& app : apps) {
        for (const auto& tier : app.tiers) {
            for (const auto& rep : tier.replicas) {
                out.cap_sums[rep.host] += rep.cpu_cap;
            }
        }
    }
    for (std::size_t h = 0; h < host_count; ++h) {
        double f = std::max(1.0, out.demand[h]);
        if (options.reserved_cap_fraction > 0.0) {
            f = std::max(f, out.cap_sums[h] / options.reserved_cap_fraction);
        }
        out.inflation[h] = f;
        if (out.demand[h] > 1.0) out.overcommitted = true;
    }
}

host_loads compute_host_loads(const std::vector<app_deployment>& apps,
                              std::size_t host_count,
                              const model_options& options) {
    host_loads out;
    compute_host_loads(apps, host_count, options, out);
    return out;
}

void solve_app(const app_deployment& app, const std::vector<double>& inflation,
               const model_options& options, app_result& result) {
    const auto& spec = *app.spec;
    const auto tier_count = app.tiers.size();
    const auto tx_count = spec.transactions().size();
    result.mean_response_time = 0.0;
    result.saturated = false;
    result.tiers.assign(tier_count, {});
    result.per_transaction.assign(tx_count, 0.0);

    // Per-replica busy fractions and consumed CPU (pass-1 state, app-local),
    // tier after tier: tier t's replicas start at first[t].
    inline_buffer<std::size_t, 16> first(tier_count + 1, 0);
    for (std::size_t t = 0; t < tier_count; ++t) {
        first[t + 1] = first[t] + app.tiers[t].replicas.size();
    }
    inline_buffer<replica_state, 32> states(first[tier_count], replica_state{});
    for (std::size_t t = 0; t < tier_count; ++t) {
        for (std::size_t r = 0; r < app.tiers[t].replicas.size(); ++r) {
            states[first[t] + r] = replica_load(app, t, r, options);
        }
    }

    // Per-visit CPU response time at tier t for transaction x, averaged
    // over replicas weighted by their (equal) arrival shares.
    auto cpu_visit_response = [&](std::size_t t, std::size_t x) -> seconds {
        const auto& tx = spec.transactions()[x];
        const auto& tier = app.tiers[t];
        const double demand = tx.demand[t] * (1.0 + options.xen_overhead);
        seconds sum = 0.0;
        for (std::size_t r = 0; r < tier.replicas.size(); ++r) {
            const auto& rep = tier.replicas[r];
            const double service = demand / rep.cpu_cap;
            sum += ps_response(service * inflation[rep.host], states[first[t] + r].rho);
        }
        return sum / static_cast<double>(tier.replicas.size());
    };

    // visit_response[t·X + x]: total per-visit response (thread wait +
    // holding, holding includes downstream). Filled bottom-up.
    inline_buffer<seconds, 128> visit_response(tier_count * tx_count, 0.0);
    // holding[t·X + x]: thread-holding time per visit.
    inline_buffer<seconds, 128> holding(tier_count * tx_count, 0.0);

    for (std::size_t ti = tier_count; ti-- > 0;) {
        // Holding time per visit: own CPU response plus synchronous
        // downstream calls (the next-deeper tier this transaction
        // actually visits).
        for (std::size_t x = 0; x < spec.transactions().size(); ++x) {
            const auto& tx = spec.transactions()[x];
            if (tx.visits[ti] <= 0.0) continue;
            seconds h = cpu_visit_response(ti, x);
            for (std::size_t down = ti + 1; down < tier_count; ++down) {
                if (tx.visits[down] <= 0.0) continue;
                const double calls = tx.visits[down] / tx.visits[ti];
                h += calls *
                     (2.0 * options.network_hop + visit_response[down * tx_count + x]);
                break;  // only the first downstream tier is called directly
            }
            holding[ti * tx_count + x] = std::min(h, options.max_visit_response);
        }
        // Mean holding time and thread-pool waiting at this tier.
        double flow_sum = 0.0;
        seconds holding_sum = 0.0;
        for (std::size_t x = 0; x < spec.transactions().size(); ++x) {
            const auto& tx = spec.transactions()[x];
            if (tx.visits[ti] <= 0.0) continue;
            const double flow = app.rate * tx.mix * tx.visits[ti];
            flow_sum += flow;
            holding_sum += flow * holding[ti * tx_count + x];
        }
        const seconds mean_holding = flow_sum > 0.0 ? holding_sum / flow_sum : 0.0;
        const auto& tier = app.tiers[ti];
        const double replica_arrival =
            flow_sum / static_cast<double>(tier.replicas.size());
        const int threads = spec.tiers()[ti].threads;
        const seconds wait = mm_m_wait(replica_arrival, mean_holding, threads);
        if (replica_arrival * mean_holding >= static_cast<double>(threads)) {
            result.saturated = true;
        }
        for (std::size_t x = 0; x < spec.transactions().size(); ++x) {
            if (spec.transactions()[x].visits[ti] <= 0.0) continue;
            visit_response[ti * tx_count + x] =
                std::min(wait + holding[ti * tx_count + x], options.max_visit_response);
        }
        // Tier-level reporting.
        auto& tr = result.tiers[ti];
        double rho_sum = 0.0, usage_sum = 0.0;
        for (std::size_t i = first[ti]; i < first[ti + 1]; ++i) {
            rho_sum += states[i].rho;
            usage_sum += states[i].cpu_usage;
            if (states[i].rho >= 1.0) result.saturated = true;
        }
        tr.utilization = rho_sum / static_cast<double>(first[ti + 1] - first[ti]);
        tr.cpu_usage = usage_sum;
        tr.visit_response = mean_holding + wait;
    }

    // End-to-end response per transaction: client round trip into the
    // first tier the transaction visits.
    seconds mix_sum = 0.0;
    for (std::size_t x = 0; x < spec.transactions().size(); ++x) {
        const auto& tx = spec.transactions()[x];
        seconds rt = 0.0;
        for (std::size_t t = 0; t < tier_count; ++t) {
            if (tx.visits[t] > 0.0) {
                rt = tx.visits[t] *
                     (2.0 * options.network_hop + visit_response[t * tx_count + x]);
                break;
            }
        }
        result.per_transaction[x] = rt;
        mix_sum += tx.mix * rt;
    }
    result.mean_response_time = mix_sum;

    // Closed-population saturation bound (see model.h): when the offered
    // rate exceeds the bottleneck tier's capacity, the fixed client
    // population caps the queue, settling end-to-end response near
    // N / X_max − think rather than the open model's divergence.
    if (options.client_think_time > 0.0 && app.rate > 0.0) {
        double x_max = std::numeric_limits<double>::infinity();
        for (std::size_t t = 0; t < tier_count; ++t) {
            const double demand =
                spec.mean_tier_demand(t) * (1.0 + options.xen_overhead);
            if (demand <= 0.0) continue;
            double caps = 0.0;
            for (const auto& rep : app.tiers[t].replicas) caps += rep.cpu_cap;
            x_max = std::min(x_max, caps / demand);
        }
        if (x_max < app.rate) {
            const double sessions =
                app.rate *
                (options.client_think_time + options.nominal_cycle_service);
            const seconds closed_rt = std::max(
                1.0, sessions / x_max - options.client_think_time);
            if (closed_rt < result.mean_response_time) {
                const double scale = closed_rt / result.mean_response_time;
                result.mean_response_time = closed_rt;
                for (auto& rt : result.per_transaction) rt *= scale;
            }
        }
    }
}

app_result solve_app(const app_deployment& app,
                     const std::vector<double>& inflation,
                     const model_options& options) {
    app_result result;
    solve_app(app, inflation, options, result);
    return result;
}

solve_result solve(const std::vector<app_deployment>& apps, std::size_t host_count,
                   const model_options& options) {
    auto loads = compute_host_loads(apps, host_count, options);

    solve_result out;
    out.apps.resize(apps.size());
    out.host_utilization = std::move(loads.utilization);
    out.host_demand = std::move(loads.demand);
    out.saturated = loads.overcommitted;

    for (std::size_t a = 0; a < apps.size(); ++a) {
        solve_app(apps[a], loads.inflation, options, out.apps[a]);
        if (out.apps[a].saturated) out.saturated = true;
    }
    return out;
}

}  // namespace mistral::lqn
