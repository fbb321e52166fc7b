// Two-region cell: carbon/region-aware pod scheduling.
//
// Six hosts split into two pods, each pinned to an electricity region:
// pod 0 in "cheap" ($0.01/W·interval, 250 gCO2/Wh), pod 1 in "expensive"
// ($0.04, 550 g). Both applications start packed into the expensive pod —
// the shape the region-aware migration broker exists to fix. Two sharded
// coordinators step the same decision loop:
//
//   * region-blind — no region map: the broker only donates above the 0.85
//     pressure watermark, which the packed pod never reaches, so the load
//     stays where it was placed;
//   * region-aware — the region map biases the broker (donate sooner from
//     expensive regions, bid lower on them) and weights budget headroom by
//     cheapest/price, so the apps drain toward the cheap/green region.
//
// Reported per strategy: the share of deployed VMs in the cheap region at
// start and end, brokered region moves, and the modeled steady $ and gCO2
// per interval of the final placement (host power model at the deployed
// caps, priced per region).
//
// `--smoke` is the CI gate: the region-aware run must actually shift load
// (≥ 1 move strictly toward the cheaper region, cheap share up, final $
// down vs region-blind). The full run appends its cells to
// BENCH_search.json (key "econ_regions_cells").
#include <algorithm>

#include "bench_util.h"
#include "core/coordinator.h"

using namespace mistral;

namespace {

constexpr double kCheapPrice = 0.01;
constexpr double kExpensivePrice = 0.04;

cluster::cluster_model make_model() {
    std::vector<apps::application_spec> specs;
    for (const char* name : {"R0", "R1"}) specs.push_back(apps::rubis_browsing(name));
    return cluster::cluster_model(cluster::uniform_hosts(6), std::move(specs));
}

// Both applications packed into pod 1 (hosts 3–5, the expensive region);
// pod 0 powered but empty.
cluster::configuration packed_expensive(const cluster::cluster_model& model) {
    cluster::configuration c(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 6; ++h) c.set_host_power(host_id{h}, true);
    for (std::size_t t = 0; t < 3; ++t) {
        c.deploy(model.tier_vms(app_id{0}, t)[0],
                 host_id{static_cast<std::int32_t>(3 + t)}, 0.38);
        c.deploy(model.tier_vms(app_id{1}, t)[0],
                 host_id{static_cast<std::int32_t>(3 + t)}, 0.30);
    }
    return c;
}

// Fraction of deployed VMs sitting in the cheap region (hosts 0–2).
double cheap_share(const cluster::cluster_model& model,
                   const cluster::configuration& cfg) {
    std::size_t deployed = 0, cheap = 0;
    for (const auto& vm : model.vms()) {
        const auto& p = cfg.placement(vm.vm);
        if (!p) continue;
        ++deployed;
        if (p->host.index() < 3) ++cheap;
    }
    return deployed == 0 ? 0.0
                         : static_cast<double>(cheap) / static_cast<double>(deployed);
}

// Modeled steady cost of a configuration: per-host power at the deployed cap
// sum, priced (and carbon-weighted) per region, per monitoring interval.
struct steady_cost {
    double dollars_per_interval = 0.0;
    double grams_per_interval = 0.0;
};

steady_cost cost_of(const cluster::cluster_model& model,
                    const cluster::configuration& cfg,
                    const econ::region_map& regions, seconds interval) {
    steady_cost out;
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (!cfg.host_on(host)) continue;
        const std::size_t pod = h < 3 ? 0 : 1;
        const watts w = model.hosts()[h].power.power(
            std::min(1.0, cfg.cap_sum(host)));
        out.dollars_per_interval += w * regions.price_of_pod(pod, 0.0);
        out.grams_per_interval += w * interval / 3600.0 *
                                  regions.carbon_of_pod(pod, 0.0);
    }
    return out;
}

struct cell {
    std::string name;
    double share_start = 0.0;
    double share_end = 0.0;
    std::int64_t region_moves = 0;
    steady_cost final_cost;
};

cell run_cell(const std::string& name, bool region_aware) {
    const auto model = make_model();
    const auto regions =
        econ::region_map(wl::two_region_spread(kCheapPrice, kExpensivePrice),
                         {0, 1});

    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    core::controller_builder builder;
    builder.sink(&sink);
    core::coordinator_options opts;
    if (region_aware) opts.regions = regions;
    std::vector<core::pod_spec> pods(2);
    pods[0].id = 0;
    pods[0].hosts = {0, 1, 2};
    pods[1].id = 1;
    pods[1].hosts = {3, 4, 5};
    core::global_coordinator coord(model, bench::measured_costs(),
                                   core::partition(model, std::move(pods)),
                                   builder, opts);

    auto cfg = packed_expensive(model);
    cell out;
    out.name = name;
    out.share_start = cheap_share(model, cfg);
    seconds t = 0.0;
    for (int i = 0; i < 10; ++i) {
        const auto decision = coord.decide({t, {40.0, 30.0}, cfg, 1.0});
        for (const auto& a : decision.actions) cfg = apply(model, cfg, a);
        t += 120.0;
    }
    out.share_end = cheap_share(model, cfg);
    out.region_moves = region_aware
                           ? registry.counter_value("mistral_econ_region_moves_total")
                           : coord.brokered_migrations();
    out.final_cost = cost_of(model, cfg, regions, 120.0);
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

    const auto blind = run_cell("region-blind", false);
    const auto aware = run_cell("region-aware", true);

    if (!smoke) {
        bench::print_header(
            "Two regions: region-aware migration brokering",
            "Economics subsystem, DESIGN.md §15; cheap $" +
                std::to_string(kCheapPrice) + " vs expensive $" +
                std::to_string(kExpensivePrice) + " per W·interval");
        table_printer t({"strategy", "cheap share start", "cheap share end",
                         "region moves", "$ / interval", "gCO2 / interval"});
        for (const auto* c : {&blind, &aware}) {
            t.add_row({c->name, table_printer::fmt(c->share_start, 2),
                       table_printer::fmt(c->share_end, 2),
                       std::to_string(c->region_moves),
                       table_printer::fmt(c->final_cost.dollars_per_interval, 3),
                       table_printer::fmt(c->final_cost.grams_per_interval, 0)});
        }
        t.print(std::cout);
        std::cout << "\nThe region-aware broker drains the packed expensive "
                     "pod into the\ncheap/green region; blind brokering "
                     "leaves the placement alone.\n";

        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "[\n    {\"strategy\": \"region-blind\", \"cheap_share_end\": %.4f, "
            "\"region_moves\": %lld, \"dollars_per_interval\": %.6f, "
            "\"grams_per_interval\": %.1f},\n"
            "    {\"strategy\": \"region-aware\", \"cheap_share_end\": %.4f, "
            "\"region_moves\": %lld, \"dollars_per_interval\": %.6f, "
            "\"grams_per_interval\": %.1f}\n  ]",
            blind.share_end, static_cast<long long>(blind.region_moves),
            blind.final_cost.dollars_per_interval,
            blind.final_cost.grams_per_interval, aware.share_end,
            static_cast<long long>(aware.region_moves),
            aware.final_cost.dollars_per_interval,
            aware.final_cost.grams_per_interval);
        if (bench::append_bench_section("BENCH_search.json",
                                        "econ_regions_cells", buf)) {
            std::cout << "appended econ_regions_cells to BENCH_search.json\n";
        }
        return 0;
    }

    // --- CI gate ---------------------------------------------------------
    int failures = 0;
    auto fail = [&](const char* what) {
        std::fprintf(stderr, "smoke FAILED: %s\n", what);
        ++failures;
    };
    std::printf("smoke: region-aware cheap share %.2f -> %.2f (%lld moves), "
                "$%.3f/interval vs blind $%.3f\n",
                aware.share_start, aware.share_end,
                static_cast<long long>(aware.region_moves),
                aware.final_cost.dollars_per_interval,
                blind.final_cost.dollars_per_interval);
    if (aware.region_moves < 1) {
        fail("region-aware broker made no moves toward the cheaper region");
    }
    if (!(aware.share_end > aware.share_start)) {
        fail("cheap-region share did not increase under region-aware brokering");
    }
    if (!(aware.share_end > blind.share_end)) {
        fail("region-aware run holds no more load in the cheap region than blind");
    }
    if (!(aware.final_cost.dollars_per_interval <
          blind.final_cost.dollars_per_interval)) {
        fail("region-aware final placement is not cheaper than region-blind");
    }
    if (failures == 0) std::printf("smoke OK\n");
    return failures == 0 ? 0 : 1;
}
