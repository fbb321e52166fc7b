#include "core/perf_pwr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace mistral::core {

namespace {

using sizing = app_sizing;  // per-(app, tier) replicas + uniform cap

// Gradient steps one optimize() may take across all host counts.
constexpr int max_gradient_iterations = 400;

// Total CPU allocation of a sizing (the ρ in the gradient).
double total_allocation(const sizing& s) {
    double sum = 0.0;
    for (const auto& app : s) {
        for (const auto& t : app) sum += t.replicas * t.cap;
    }
    return sum;
}

// The packer's buffers. One optimize() call packs through one workspace, so
// an attempt refills its items and bins instead of allocating them.
struct pack_workspace {
    struct item {
        vm_id vm;
        std::size_t app;
        fraction cap;
        double memory;
        std::size_t host = 0;  // where a pack that fit put it
    };
    struct bin {
        bool open = false;
        fraction cap_free = 0.0;
        double mem_free = 0.0;
        int slots_free = 0;
    };
    std::vector<item> items;
    std::vector<bin> bins;
};

// Worst-fit-decreasing bin packing of the sizing's replicas onto at most
// `host_limit` hosts, honouring any per-app host restriction. Returns false
// when it does not fit; otherwise every item of `ws` records its host.
bool pack(const cluster::cluster_model& model, const sizing& s, std::size_t host_limit,
          const std::vector<std::vector<bool>>& app_hosts,
          const cluster::configuration* reference, pack_workspace& ws) {
    using item = pack_workspace::item;
    auto& items = ws.items;
    items.clear();
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            const auto& vms = model.tier_vms(app, t);
            for (int r = 0; r < s[a][t].replicas; ++r) {
                items.push_back({vms[static_cast<std::size_t>(r)], a, s[a][t].cap,
                                 model.vm(vms[static_cast<std::size_t>(r)]).memory_mb});
            }
        }
    }
    std::sort(items.begin(), items.end(),
              [](const item& x, const item& y) { return x.cap > y.cap; });

    auto& bins = ws.bins;
    bins.assign(model.host_count(), {});
    const auto& limits = model.limits();
    std::size_t opened = 0;

    auto host_allowed = [&](std::size_t app, std::size_t h) {
        // A crashed host takes no load and cannot be booted.
        if (reference &&
            reference->host_failed(host_id{static_cast<std::int32_t>(h)})) {
            return false;
        }
        return app_hosts.empty() || app_hosts[app][h];
    };

    auto bin_fits = [&](std::size_t h, const item& it) {
        return bins[h].open && host_allowed(it.app, h) &&
               bins[h].cap_free + 1e-9 >= it.cap &&
               bins[h].mem_free + 1e-9 >= it.memory && bins[h].slots_free >= 1;
    };
    auto open_bin = [&](std::size_t h) {
        bins[h] = {true, limits.host_cpu_cap,
                   model.hosts()[h].memory_mb - limits.dom0_memory_mb,
                   limits.max_vms_per_host};
        ++opened;
    };
    auto reference_host = [&](vm_id vm) -> int {
        if (!reference) return -1;
        const auto& p = reference->placement(vm);
        return p ? p->host.value : -1;
    };

    for (auto& it : items) {
        int best = -1;
        // Placement stability first: keep the VM where the reference has it
        // whenever that host is (or can be) open and fits.
        const int ref = reference_host(it.vm);
        if (ref >= 0) {
            const auto h = static_cast<std::size_t>(ref);
            if (!bins[h].open && opened < host_limit && host_allowed(it.app, h)) {
                open_bin(h);
            }
            if (bin_fits(h, it)) best = ref;
        }
        // Largest remaining space among used (allowed) hosts...
        for (std::size_t h = 0; best < 0 && h < bins.size(); ++h) {
            if (bin_fits(h, it)) best = static_cast<int>(h);
        }
        // ...otherwise open a new empty (allowed) host, if any remain;
        // prefer hosts the reference already has powered on (no boot).
        if (best < 0) {
            if (opened >= host_limit) return false;
            for (int pass = 0; pass < 2 && best < 0; ++pass) {
                for (std::size_t h = 0; h < bins.size(); ++h) {
                    if (bins[h].open || !host_allowed(it.app, h)) continue;
                    const bool was_on =
                        reference && reference->host_on(host_id{
                                         static_cast<std::int32_t>(h)});
                    if (pass == 0 && reference && !was_on) continue;
                    open_bin(h);
                    best = static_cast<int>(h);
                    break;
                }
            }
            if (best < 0) return false;
            if (!bin_fits(static_cast<std::size_t>(best), it)) return false;
        }
        auto& b = bins[static_cast<std::size_t>(best)];
        b.cap_free -= it.cap;
        b.mem_free -= it.memory;
        b.slots_free -= 1;
        it.host = static_cast<std::size_t>(best);
    }
    return true;
}

// The configuration of the last pack of `ws` that fit.
cluster::configuration packed_configuration(const cluster::cluster_model& model,
                                            const pack_workspace& ws,
                                            const cluster::configuration* reference) {
    cluster::configuration config(model.vm_count(), model.host_count());
    if (reference) {
        // Carry the failure marks so `ideal == current` can hold (and the
        // no-op fast path fire) while part of the cluster is down.
        for (std::size_t h = 0; h < model.host_count(); ++h) {
            const host_id host{static_cast<std::int32_t>(h)};
            if (reference->host_failed(host)) config.set_host_failed(host, true);
        }
    }
    for (std::size_t h = 0; h < ws.bins.size(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (ws.bins[h].open) config.set_host_power(host, true);
    }
    // A configuration is a value over its placements, so deploying in item
    // order gives what deploying host by host gave.
    for (const auto& it : ws.items) {
        config.deploy(it.vm, host_id{static_cast<std::int32_t>(it.host)}, it.cap);
    }
    return config;
}

}  // namespace

perf_pwr_optimizer::perf_pwr_optimizer(const cluster::cluster_model& model,
                                       utility_model utility, perf_pwr_options options)
    : perf_pwr_optimizer(model, utility, options, nullptr) {}

perf_pwr_optimizer::perf_pwr_optimizer(const cluster::cluster_model& model,
                                       utility_model utility, perf_pwr_options options,
                                       std::shared_ptr<utility_evaluator> evaluator)
    : model_(&model),
      utility_(utility),
      options_(options),
      evaluator_(std::move(evaluator)) {
    if (!evaluator_) {
        evaluator_ = make_evaluator(model, utility_, options_.lqn);
    }
}

perf_pwr_result perf_pwr_optimizer::optimize(
    const std::vector<req_per_sec>& rates,
    const cluster::configuration* reference) const {
    return run(rates, /*enforce_targets=*/false, reference);
}

perf_pwr_result perf_pwr_optimizer::optimize_meeting_targets(
    const std::vector<req_per_sec>& rates,
    const cluster::configuration* reference) const {
    return run(rates, /*enforce_targets=*/true, reference);
}

perf_pwr_result perf_pwr_optimizer::run(const std::vector<req_per_sec>& rates,
                                        bool enforce_targets,
                                        const cluster::configuration* reference) const {
    const auto& model = *model_;
    MISTRAL_CHECK(rates.size() == model.app_count());
    auto& engine = *evaluator_;
    engine.begin_decision(rates);

    // Start: maximum replication, maximum capacities.
    sizing s(model.app_count());
    double min_alloc = 0.0;
    int min_vms = 0;
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const auto& app = model.app(app_id{static_cast<std::int32_t>(a)});
        s[a].resize(app.tier_count());
        for (std::size_t t = 0; t < app.tier_count(); ++t) {
            const auto& tier = app.tiers()[t];
            s[a][t] = {tier.max_replicas, tier.max_cpu_cap};
            min_alloc += tier.min_replicas * tier.min_cpu_cap;
            min_vms += tier.min_replicas;
        }
    }
    const auto& limits = model.limits();
    const std::size_t min_hosts = std::max<std::size_t>(
        {1,
         static_cast<std::size_t>(std::ceil(min_alloc / limits.host_cpu_cap - 1e-9)),
         static_cast<std::size_t>(std::ceil(
             static_cast<double>(min_vms) / limits.max_vms_per_host - 1e-9))});

    perf_pwr_result best;
    best.utility_rate = -std::numeric_limits<double>::infinity();

    // The gradient's capacity-reduction granularity is the model's CPU step.
    const fraction cap_step = limits.cpu_step;
    int iterations_left = max_gradient_iterations;
    pack_workspace pack_ws;
    // One gradient step's sizings, batch[0] the base sizing itself. The
    // vector lives for the whole call and every step copy-assigns into its
    // slots, so a step reuses the sizings the previous one built.
    std::vector<sizing> batch;
    std::size_t batch_size = 0;
    auto next_slot = [&]() -> sizing& {
        if (batch_size == batch.size()) batch.emplace_back();
        return batch[batch_size++];
    };
    for (std::size_t hosts = model.host_count(); hosts + 1 > min_hosts; --hosts) {
        // Shrink the sizing until it packs on `hosts` hosts (or give up).
        bool packed = false;
        while (iterations_left-- > 0) {
            packed = pack(model, s, hosts, options_.app_hosts, reference, pack_ws);
            if (packed) break;

            // Gradient step: among all single reductions, take the one that
            // frees the most CPU per unit of performance utility lost. The
            // reductions are independent, so all of one step's candidates
            // go to the engine as one batch; the best pick replays the
            // original enumeration order.
            batch_size = 0;
            next_slot() = s;
            for (std::size_t a = 0; a < model.app_count(); ++a) {
                const auto& app = model.app(app_id{static_cast<std::int32_t>(a)});
                for (std::size_t t = 0; t < app.tier_count(); ++t) {
                    const auto& tier = app.tiers()[t];
                    if (s[a][t].cap - cap_step >= tier.min_cpu_cap - 1e-9) {
                        sizing& c = next_slot();
                        c = s;
                        c[a][t].cap -= cap_step;
                    }
                    if (s[a][t].replicas > tier.min_replicas) {
                        sizing& c = next_slot();
                        c = s;
                        c[a][t].replicas -= 1;
                    }
                }
            }
            batch.resize(batch_size);
            const auto evals = engine.evaluate_isolated_batch(batch);
            const auto& base = evals[0];
            const double base_alloc = total_allocation(s);
            double best_grad = -std::numeric_limits<double>::infinity();
            std::size_t best_candidate = 0;  // 0 = none (the base itself)
            for (std::size_t i = 1; i < batch.size(); ++i) {
                if (enforce_targets && !evals[i].meets_all_targets) continue;
                const double dalloc = base_alloc - total_allocation(batch[i]);
                const double dutil = base.perf_rate - evals[i].perf_rate;
                const double grad = dalloc / (dutil + 1e-9);
                if (grad > best_grad) {
                    best_grad = grad;
                    best_candidate = i;
                }
            }
            if (best_candidate == 0) break;  // nothing left to shrink
            // The old base goes to the picked slot, which the next step
            // overwrites.
            std::swap(s, batch[best_candidate]);
        }
        if (!packed) break;  // cannot fit on this few hosts; fewer is hopeless

        // Score the packed configuration with the real placement and power.
        auto config = packed_configuration(model, pack_ws, reference);
        const auto se = engine.evaluate(config);
        if (enforce_targets && !se.meets_targets) break;
        if (se.rate > best.utility_rate) {
            best.feasible = true;
            best.hosts_used = config.active_host_count();
            best.ideal = std::move(config);
            best.utility_rate = se.rate;
            best.perf_rate = se.perf_rate;
            best.power_rate = se.power_rate;
            best.power = se.power;
            best.response_times = se.response_times;
        }
        if (iterations_left <= 0) break;
    }
    if (!best.feasible) best.utility_rate = 0.0;
    return best;
}

}  // namespace mistral::core
