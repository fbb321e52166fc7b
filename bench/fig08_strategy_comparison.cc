// Fig. 8: comparison of control strategies.
//
// The headline experiment: RUBiS-1 and RUBiS-2 over the full 15:00–21:30
// day, controlled by Perf-Pwr, Perf-Cost, Pwr-Cost, and Mistral. Panels:
// per-application response times and total cluster power. The paper's
// qualitative findings to reproduce: Mistral runs slightly hotter than the
// over-provisioned baselines and briefly violates at the peaks, the cost-
// blind strategies spike during their adaptation storms, and Mistral draws
// the least power by consolidating onto fewer hosts.
//
// With --json the binary prints each strategy's run-summary row (mean power,
// both violation percentages, actions, invocations) instead, at the
// precision the table prints it — the "fig08" section of BENCH_paper.json,
// which CI compares exactly. All three baselines run the Perf-Pwr optimizer
// (Perf-Pwr its gradient, Perf-Cost its packer with per-app host pools,
// Pwr-Cost optimize_meeting_targets), so the section pins them too:
//
//   ./build/bench/fig08_strategy_comparison --json | python3 bench/paper_check.py fig08
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/time_series.h"

using namespace mistral;

int main(int argc, char** argv) {
    const bool json = argc > 1 && std::string(argv[1]) == "--json";
    if (!json) {
        bench::print_header("Fig. 8 — comparison of control strategies",
                            "response times (ms) and power (W), 15:00-21:30");
    }

    auto scn = core::make_rubis_scenario({.host_count = 4, .app_count = 2});
    const auto& costs = bench::measured_costs();

    std::vector<std::unique_ptr<core::strategy>> strategies;
    strategies.push_back(std::make_unique<core::perf_pwr_strategy>(scn.model));
    strategies.push_back(std::make_unique<core::perf_cost_strategy>(scn.model, costs));
    strategies.push_back(std::make_unique<core::pwr_cost_strategy>(scn.model, costs));
    strategies.push_back(std::make_unique<core::mistral_strategy>(scn.model, costs));

    series_bundle rt1, rt2, power;
    std::vector<core::run_result> results;
    for (auto& s : strategies) {
        auto r = core::run_scenario(scn, *s);
        // Re-sample to 12-minute rows to keep the printed series readable.
        const auto* src1 = r.series.find("rt_RUBiS-1");
        const auto* src2 = r.series.find("rt_RUBiS-2");
        const auto* srcp = r.series.find("power");
        for (std::size_t i = 0; i < src1->size(); i += 6) {
            const double hours = (scn.traces[0].start_time() +
                                  src1->samples()[i].time) / 3600.0;
            rt1.series(r.strategy_name).add(hours, src1->samples()[i].value);
            rt2.series(r.strategy_name).add(hours, src2->samples()[i].value);
            power.series(r.strategy_name).add(hours, srcp->samples()[i].value);
        }
        results.push_back(std::move(r));
    }

    if (json) {
        std::string out = "{\n  \"strategies\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto& r = results[i];
            out += "    {\"strategy\": \"" + r.strategy_name +
                   "\", \"mean_power_w\": " + table_printer::fmt(r.mean_power, 1) +
                   ", \"violation_r1_pct\": " +
                   table_printer::fmt(100.0 * r.violation_fraction[0], 1) +
                   ", \"violation_r2_pct\": " +
                   table_printer::fmt(100.0 * r.violation_fraction[1], 1) +
                   ", \"actions\": " + std::to_string(r.total_actions) +
                   ", \"invocations\": " + std::to_string(r.invocations) + "}" +
                   (i + 1 < results.size() ? ",\n" : "\n");
        }
        out += "  ]\n}\n";
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    std::cout << "\n(a) RUBiS-1 response time (ms); time in hours of day\n";
    rt1.print(std::cout, 10, 0);
    std::cout << "\n(b) RUBiS-2 response time (ms)\n";
    rt2.print(std::cout, 10, 0);
    std::cout << "\n(c) Power consumption (W)\n";
    power.print(std::cout, 10, 0);

    std::cout << "\nRun summary:\n";
    table_printer t({"strategy", "mean power (W)", "viol R1 %", "viol R2 %",
                     "actions", "invocations"});
    for (const auto& r : results) {
        t.add_row({r.strategy_name, table_printer::fmt(r.mean_power, 1),
                   table_printer::fmt(100.0 * r.violation_fraction[0], 1),
                   table_printer::fmt(100.0 * r.violation_fraction[1], 1),
                   std::to_string(r.total_actions), std::to_string(r.invocations)});
    }
    t.print(std::cout);

    // Each clause names the strategy that holds it in the table above.
    // results[0] is the cost-blind Perf-Pwr; the rest weigh adaptation costs.
    auto holder = [&](std::size_t first, auto better) {
        std::size_t best = first;
        for (std::size_t i = first + 1; i < results.size(); ++i) {
            if (better(results[i], results[best])) best = i;
        }
        return best;
    };
    auto less_power = [](const auto& x, const auto& y) {
        return x.mean_power < y.mean_power;
    };
    const auto lowest = holder(0, less_power);
    const auto highest = holder(0, [](const auto& x, const auto& y) {
        return x.mean_power > y.mean_power;
    });
    const auto lowest_cost_aware = holder(1, less_power);
    const auto busiest = holder(0, [](const auto& x, const auto& y) {
        return x.total_actions > y.total_actions;
    });
    auto line = [&](const char* clause, std::size_t i, const std::string& value,
                    const std::string& paper) {
        const auto& name = results[i].strategy_name;
        std::cout << "  " << clause << ": " << name << " (" << value << ")"
                  << (name == paper ? std::string(", as in the paper")
                                    : "; the paper has " + paper)
                  << "\n";
    };
    std::cout << "\nShape check vs. paper:\n";
    line("lowest mean power", lowest,
         table_printer::fmt(results[lowest].mean_power, 1) + " W", "Mistral");
    line("lowest mean power among cost-aware strategies", lowest_cost_aware,
         table_printer::fmt(results[lowest_cost_aware].mean_power, 1) + " W",
         "Mistral");
    line("highest mean power", highest,
         table_printer::fmt(results[highest].mean_power, 1) + " W", "Perf-Cost");
    line("most actions", busiest,
         std::to_string(results[busiest].total_actions), "Perf-Pwr");
    return 0;
}
