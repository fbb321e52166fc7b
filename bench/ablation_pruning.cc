// Ablation: the self-aware pruning fraction.
//
// Section IV-B prunes expansions to the top 5 % of children by distance to
// the ideal configuration. This sweep varies the kept fraction (0.02–1.0)
// and reports search effort and achieved utility on the 2-app day — the
// design question being how much optimality the beam narrowing costs.
//
// With --json the binary prints each row's keep fraction, mean and max
// search seconds, actions and cumulative utility instead, at the precision
// the table prints them — the "ablation_pruning" section of
// BENCH_paper.json, which CI compares exactly. The sweep keeps from as
// few as one child of a pruning expansion (0.02) to all of them (1.0), so
// the check also pins both edges of the kept prefix:
//
//   ./build/bench/ablation_pruning --json | python3 bench/paper_check.py ablation_pruning
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.h"

using namespace mistral;

int main(int argc, char** argv) {
    const bool json = argc > 1 && std::string(argv[1]) == "--json";
    if (!json) {
        bench::print_header("Ablation — pruning fraction",
                            "prune_keep_fraction sweep; search effort vs. utility");
    }

    auto scn = core::make_rubis_scenario({.host_count = 4, .app_count = 2});
    const auto& costs = bench::measured_costs();

    table_printer t({"keep fraction", "mean search (s)", "max search (s)",
                     "actions", "cumulative utility"});
    std::string rows;
    for (const double keep : {0.02, 0.05, 0.10, 0.25, 1.0}) {
        core::controller_options opts;
        opts.search.prune_keep_fraction = keep;
        core::mistral_strategy s(scn.model, costs, opts);
        const auto r = core::run_scenario(scn, s);
        const std::string fraction = table_printer::fmt(keep, 2);
        const std::string mean = table_printer::fmt(r.search_duration.mean(), 2);
        const std::string max = table_printer::fmt(r.search_duration.max(), 2);
        const std::string actions = std::to_string(r.total_actions);
        const std::string utility = table_printer::fmt(r.cumulative_utility, 1);
        t.add_row({fraction, mean, max, actions, utility});
        rows += std::string(rows.empty() ? "" : ",\n") +
                "    {\"keep_fraction\": " + fraction + ", \"mean_search_s\": " +
                mean + ", \"max_search_s\": " + max + ", \"actions\": " + actions +
                ", \"cumulative_utility\": " + utility + "}";
    }
    if (json) {
        std::printf("{\n  \"rows\": [\n%s\n  ]\n}\n", rows.c_str());
        return 0;
    }
    t.print(std::cout);
    std::cout << "\nReading: the paper's 5% keeps utility within noise of wider\n"
                 "beams while holding search time near the delay threshold.\n";
    return 0;
}
