// Ablation: workload-band width.
//
// Section II-C: wider bands mean longer stability intervals and less
// frequent — but more potent — adaptation. This sweep varies the single
// controller's band width and reports invocation counts, actions, and
// utility, exposing the stability/responsiveness tradeoff the hierarchy is
// built on.
//
// With --json the binary prints each band's invocations, actions, mean
// power, violation percentage and cumulative utility instead, at the
// precision the table prints them — the "ablation_band" section of
// BENCH_paper.json, which CI compares exactly. Five controller days through
// the workload monitor at five band widths:
//
//   ./build/bench/ablation_band --json | python3 bench/paper_check.py ablation_band
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.h"

using namespace mistral;

int main(int argc, char** argv) {
    const bool json = argc > 1 && std::string(argv[1]) == "--json";
    if (!json) {
        bench::print_header("Ablation — workload band width",
                            "band sweep; invocation frequency vs. utility");
    }

    auto scn = core::make_rubis_scenario({.host_count = 4, .app_count = 2});
    const auto& costs = bench::measured_costs();

    table_printer t({"band (req/s)", "invocations", "actions", "mean power (W)",
                     "viol %", "cumulative utility"});
    std::string rows;
    for (const double band : {0.0, 4.0, 8.0, 16.0, 32.0}) {
        core::controller_options opts;
        opts.band_width = band;
        core::mistral_strategy s(scn.model, costs, opts);
        const auto r = core::run_scenario(scn, s);
        const double viol =
            50.0 * (r.violation_fraction[0] + r.violation_fraction[1]);
        const std::string width = table_printer::fmt(band, 0);
        const std::string invocations = std::to_string(r.invocations);
        const std::string actions = std::to_string(r.total_actions);
        const std::string power = table_printer::fmt(r.mean_power, 1);
        const std::string violation = table_printer::fmt(viol, 1);
        const std::string utility = table_printer::fmt(r.cumulative_utility, 1);
        t.add_row({width, invocations, actions, power, violation, utility});
        rows += std::string(rows.empty() ? "" : ",\n") +
                "    {\"band_req_s\": " + width + ", \"invocations\": " +
                invocations + ", \"actions\": " + actions +
                ", \"mean_power_w\": " + power + ", \"violation_pct\": " +
                violation + ", \"cumulative_utility\": " + utility + "}";
    }
    if (json) {
        std::printf("{\n  \"rows\": [\n%s\n  ]\n}\n", rows.c_str());
        return 0;
    }
    t.print(std::cout);
    std::cout << "\nReading: 0, 4 and 8 req/s end within 4.4 of each other in\n"
                 "utility while invocations fall from 188 to 58, so below\n"
                 "16 req/s the extra triggers buy nothing. 16 req/s earns the\n"
                 "most (202.4) on the fewest actions; at 32 req/s the bands\n"
                 "sleep through workload moves and utility drops to 166.9 with\n"
                 "the most violations. Mean power stays within 188.9-195.8 W\n"
                 "at every width. The paper's two-level design takes both ends.\n";
    return 0;
}
