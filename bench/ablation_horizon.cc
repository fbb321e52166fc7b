// Ablation: the adaptation-benefit horizon (control window).
//
// Mistral predicts the stability interval with the adaptive ARMA filter and
// uses it as the horizon CW in Eq. 3. This sweep replaces the prediction
// with fixed horizons — too-short horizons make every adaptation look
// unprofitable, too-long ones overcommit during volatile phases — and
// compares against the ARMA-driven default.
//
// With --json the binary prints each row's horizon, invocations, actions,
// mean power and cumulative utility instead, at the precision the table
// prints them — the "ablation_horizon" section of BENCH_paper.json, which
// CI compares exactly. The ARMA row runs the control window the stability
// predictors set:
//
//   ./build/bench/ablation_horizon --json | python3 bench/paper_check.py ablation_horizon
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.h"

using namespace mistral;

int main(int argc, char** argv) {
    const bool json = argc > 1 && std::string(argv[1]) == "--json";
    if (!json) {
        bench::print_header("Ablation — control-window horizon",
                            "ARMA-predicted vs. fixed CW; utility and actions");
    }

    auto scn = core::make_rubis_scenario({.host_count = 4, .app_count = 2});
    const auto& costs = bench::measured_costs();

    table_printer t({"horizon", "invocations", "actions", "mean power (W)",
                     "cumulative utility"});
    std::string rows;

    auto run_with = [&](const std::string& label, core::controller_options opts) {
        core::mistral_strategy s(scn.model, costs, opts);
        const auto r = core::run_scenario(scn, s);
        const std::string invocations = std::to_string(r.invocations);
        const std::string actions = std::to_string(r.total_actions);
        const std::string power = table_printer::fmt(r.mean_power, 1);
        const std::string utility = table_printer::fmt(r.cumulative_utility, 1);
        t.add_row({label, invocations, actions, power, utility});
        rows += std::string(rows.empty() ? "" : ",\n") + "    {\"horizon\": \"" +
                label + "\", \"invocations\": " + invocations +
                ", \"actions\": " + actions + ", \"mean_power_w\": " + power +
                ", \"cumulative_utility\": " + utility + "}";
    };

    run_with("ARMA (paper)", {});
    for (const double fixed : {120.0, 360.0, 720.0, 1800.0}) {
        core::controller_options opts;
        opts.min_control_window = fixed;
        opts.max_control_window = fixed;
        run_with("fixed " + std::to_string(static_cast<int>(fixed)) + "s", opts);
    }
    if (json) {
        std::printf("{\n  \"rows\": [\n%s\n  ]\n}\n", rows.c_str());
        return 0;
    }
    t.print(std::cout);
    std::cout << "\nReading: a 120 s fixed horizon, one monitoring interval,\n"
                 "loses to the ARMA horizon (171.2 against 190.5) and draws\n"
                 "12 W more: migration costs rarely repay inside it. Every\n"
                 "longer fixed horizon beats the ARMA horizon by about 20\n"
                 "(210.4-211.1) with fewer actions and less power. The ARMA\n"
                 "windows of this day average 289 s, 45 of 58 below 360 s:\n"
                 "shorter than the consolidations need to repay.\n";
    return 0;
}
