// Fig. 9: cumulative utility.
//
// The same four-strategy run as Fig. 8, scored by measured utility (Eq. 1 +
// Eq. 2 from metered response times and watts, minus the controllers' own
// decision power). The paper's totals — Mistral 152.3, Pwr-Cost 93.9,
// Perf-Cost 26.3, Perf-Pwr −47.1 — define the *ordering* this reproduction
// checks: Mistral > Pwr-Cost > Perf-Cost ≳ Perf-Pwr.
//
// With --json the binary prints the four strategies' cumulative utilities
// and the fault-injected run's table instead, at the precision the tables
// print them — the "fig09" section of BENCH_paper.json, which CI compares
// exactly:
//
//   ./build/bench/fig09_cumulative_utility --json | python3 bench/paper_check.py fig09
#include <array>
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
        bench::print_header("Fig. 9 — cumulative utility",
                            "cumulative utility ($) vs. time; four strategies");
    }

    auto scn = core::make_rubis_scenario({.host_count = 4, .app_count = 2});
    const auto& costs = bench::measured_costs();

    std::vector<std::unique_ptr<core::strategy>> strategies;
    strategies.push_back(std::make_unique<core::perf_pwr_strategy>(scn.model));
    strategies.push_back(std::make_unique<core::perf_cost_strategy>(scn.model, costs));
    strategies.push_back(std::make_unique<core::pwr_cost_strategy>(scn.model, costs));
    strategies.push_back(std::make_unique<core::mistral_strategy>(scn.model, costs));

    series_bundle cumulative;
    std::vector<std::pair<std::string, double>> totals;
    for (auto& s : strategies) {
        const auto r = core::run_scenario(scn, *s);
        const auto* cum = r.series.find("cum_utility");
        for (std::size_t i = 0; i < cum->size(); i += 6) {
            const double hours = (scn.traces[0].start_time() +
                                  cum->samples()[i].time) / 3600.0;
            cumulative.series(r.strategy_name).add(hours, cum->samples()[i].value);
        }
        totals.push_back({r.strategy_name, r.cumulative_utility});
    }

    const double mistral = totals[3].second;

    // Beyond the paper: the same run under fault injection, surfacing the
    // wasted-adaptation accounting — how much cumulative utility survives
    // when a fifth of the actions abort and a host crashes mid-run.
    core::scenario_options fopts;
    fopts.host_count = 4;
    fopts.app_count = 2;
    fopts.testbed.faults = sim::fault_options::uniform(0.2, 0.2);
    fopts.testbed.faults.host_crashes.push_back(
        {.at = 1800.0, .host = 3, .recover_after = 1200.0});
    fopts.sink = bench::journal_from_env();
    auto fscn = core::make_rubis_scenario(fopts);
    core::mistral_strategy faulty(fscn.model, costs);
    const auto fr = core::run_scenario(fscn, faulty);
    const seconds span = fscn.traces[0].end_time() - fscn.traces[0].start_time();
    const auto& ledger = faulty.controller().reconciliation();

    // The fault table's rows: printed label, JSON key, formatted value.
    const std::vector<std::array<std::string, 3>> fault_rows = {
        {"cumulative utility ($)", "cumulative_utility",
         table_printer::fmt(fr.cumulative_utility, 1)},
        {"utility kept vs fault-free (%)", "utility_kept_pct",
         table_printer::fmt(100.0 * fr.cumulative_utility / mistral, 1)},
        {"actions submitted", "actions_submitted", std::to_string(fr.total_actions)},
        {"actions aborted", "actions_aborted",
         std::to_string(fr.total_failed_actions)},
        {"wasted adaptation time (s)", "wasted_adaptation_s",
         table_printer::fmt(fr.total_wasted_seconds, 1)},
        {"wasted fraction of run (%)", "wasted_fraction_pct",
         table_printer::fmt(100.0 * fr.total_wasted_seconds / span, 2)},
        {"ledger: wasted time est. (s)", "ledger_wasted_time_s",
         table_printer::fmt(ledger.wasted_adaptation_time, 1)},
        {"ledger: wasted transient cost ($)", "ledger_wasted_transient_usd",
         table_printer::fmt(ledger.wasted_transient_cost, 3)},
        {"fault-triggered replans", "fault_replans",
         std::to_string(ledger.fault_replans)},
        {"structural repairs", "structural_repairs", std::to_string(ledger.repairs)},
    };

    if (json) {
        std::string out = "{\n  \"strategies\": [\n";
        for (std::size_t i = 0; i < totals.size(); ++i) {
            out += "    {\"strategy\": \"" + totals[i].first +
                   "\", \"cumulative_utility\": " +
                   table_printer::fmt(totals[i].second, 1) + "}" +
                   (i + 1 < totals.size() ? ",\n" : "\n");
        }
        out += "  ],\n  \"faults\": {\n";
        for (std::size_t i = 0; i < fault_rows.size(); ++i) {
            out += "    \"" + fault_rows[i][1] + "\": " + fault_rows[i][2] +
                   (i + 1 < fault_rows.size() ? ",\n" : "\n");
        }
        out += "  }\n}\n";
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    std::cout << "\nCumulative utility ($); time in hours of day\n";
    cumulative.print(std::cout, 10, 1);

    std::cout << "\nFinal cumulative utilities (paper: Mistral 152.3, Pwr-Cost "
                 "93.9,\nPerf-Cost 26.3, Perf-Pwr -47.1):\n";
    table_printer t({"strategy", "cumulative utility ($)"});
    for (const auto& [name, total] : totals) {
        t.add_row({name, table_printer::fmt(total, 1)});
    }
    t.print(std::cout);

    bool best = true;
    for (std::size_t i = 0; i + 1 < totals.size(); ++i) {
        if (totals[i].second >= mistral) best = false;
    }
    std::cout << "\nShape check: Mistral "
              << (best ? "achieves the highest utility (matches the paper)."
                       : "did NOT rank first on this seed — investigate.")
              << "\n";

    std::cout << "\nUnder fault injection (20% aborts, 20% stragglers, one "
                 "host crash):\n";
    table_printer ft({"measure", "value"});
    for (const auto& row : fault_rows) ft.add_row({row[0], row[2]});
    ft.print(std::cout);
    return 0;
}
