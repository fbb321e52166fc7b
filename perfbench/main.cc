// perfbench — the repository benchmark.
//
//   perfbench --workload <flat_day|chaos_soak> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//   perfbench --short        # the benchmark's own tests
//
// --trace 0 prints the end-to-end metrics (setup_s, decide_ms_p50,
// decide_ms_p90, intervals_per_s, peak_rss_mb, utility_usd,
// modeled_decide_s); --trace 1 prints the per-layer metrics of one traced
// episode (see workloads.cc for the workloads and layers.h for the tracing).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Decision checks that fail make `correct` false and the exit code
// 1. Run it through perfbench/run.py, which builds it first.
//
// Why each workload (the layer table it was chosen against), with its
// baseline: medians over seeds 1–10 at --seconds 60 on a 4-vCPU Xeon VM at
// 2.1 GHz, GCC 12.2, Release. That host's speed steps by a third or more for
// tens of seconds at a time, which is why a run replays its days and keeps
// each decision's fastest play (workloads.cc); the deterministic figures
// (utility, modeled delay) do not move with it.
//   flat_day   — the paper's own setting; per-expansion search work
//                dominates. Heavy on search/draft/ideal/lqn; predicts no
//                change in coordinator, journal, snapshot, lookahead counts.
//                Baseline: p50 14.2 ms, p90 27.4 ms, 135 intervals/s, 43 MB,
//                $585/day, 13.6 s modeled per decision, setup 6.9 ms.
//   chaos_soak — the same search and evaluator layers used differently
//                (lookahead continuations, the greedy rung and tail replay
//                repeat ideal inputs) plus the coordinator's pod steps and
//                the journal and snapshot write paths flat_day runs with the
//                null sink. Heavy on lookahead/ladder/journal/snapshot.
//                Baseline: p50 1.9 ms, p90 41 ms, 132 intervals/s, 39 MB,
//                $516/day, 16.1 s modeled, setup 7.0 ms.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "core/experiment.h"
#include "core/snapshot.h"
#include "obs/journal.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[nodiscard]] std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

[[nodiscard]] int host_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

[[nodiscard]] std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("GCC ") + __VERSION__;
#else
    return "unknown";
#endif
}

[[nodiscard]] bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

void print_result(const run_report& rep) {
    for (const auto& n : rep.notes) std::cout << "perfbench: " << n << "\n";
    for (const auto& p : rep.problems) std::cout << "perfbench: CHECK FAILED: " << p << "\n";
    for (const auto& m : rep.metrics) {
        std::cout << "perfbench: " << m.name << " = " << number(m.value) << " " << m.unit
                  << "\n";
    }
    std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const auto& m = rep.metrics[i];
        std::cout << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
                  << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

// The checks must reject what they exist to reject: each mutation below is a
// deliberately broken input that one check has to flag.
bool self_test_checks() {
    using namespace mistral;
    bool ok = true;
    const auto expect = [&](const char* what, bool flagged) {
        std::cout << "perfbench: self-test " << what << ": "
                  << (flagged ? "flagged" : "MISSED") << "\n";
        ok = ok && flagged;
    };
    std::vector<std::string> sink;

    core::scenario_options small;
    small.host_count = 4;
    small.app_count = 2;
    const auto scn = core::make_rubis_scenario(small);
    // Powering off a host that still runs VMs is never applicable.
    const std::vector<cluster::action> bad_plan = {cluster::power_off{host_id{0}}};
    expect("inapplicable plan", !check_plan(scn.model, scn.initial, bad_plan, sink));
    expect("empty plan accepted", check_plan(scn.model, scn.initial, {}, sink));

    expect("budget off by 1 mW", !check_budgets({100.0, 99.999}, 200.0, sink));
    expect("exact budget accepted", check_budgets({100.0, 99.999, 0.001}, 200.0, sink));

    expect("app missing from partition", !check_partition({{0, 1}, {2}}, {}, 4, sink));
    expect("app owned twice", !check_partition({{0, 1}, {1, 2, 3}}, {}, 4, sink));
    expect("partition with strays accepted", check_partition({{0}, {1, 2}}, {3}, 4, sink));

    const std::string line = obs::to_json_line(obs::event("interval", 120.0).num("u", 1.5));
    expect("torn journal line", !check_journal(line + "\n" + line.substr(0, 9), 2, sink));
    expect("journal event count", !check_journal(line + "\n", 2, sink));
    expect("clean journal accepted", check_journal(line + "\n" + line + "\n", 2, sink));

    const std::string cp = core::to_json(core::snapshot{});
    expect("checkpoint accepted", check_checkpoint(cp, sink));
    expect("re-encoded checkpoint differs", !check_checkpoint(cp + " ", sink));
    expect("missing checkpoint", !check_checkpoint("", sink));
    return ok;
}

int run_short() {
    bool ok = self_test_checks();
    for (const auto& w : workload_names()) {
        run_config cfg;
        cfg.workload = w;
        cfg.seed = 1;
        cfg.trace = true;
        cfg.short_mode = true;
        const auto rep = run_workload(cfg);
        for (const auto& n : rep.notes) std::cout << "perfbench: " << w << ": " << n << "\n";
        for (const auto& p : rep.problems) {
            std::cout << "perfbench: " << w << ": CHECK FAILED: " << p << "\n";
        }
        std::cout << "perfbench: short " << w << ": " << (rep.correct ? "ok" : "FAILED")
                  << " (" << rep.attempted << " decisions)\n";
        ok = ok && rep.correct && rep.attempted > 0;
    }
    std::cout << "perfbench: short mode " << (ok ? "passed" : "FAILED") << std::endl;
    return ok ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>] | --short\n";
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    run_config cfg;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--short") {
            cfg.short_mode = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                cfg.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                cfg.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                cfg.seconds = std::stod(value);
            } else if (arg == "--trace") {
                cfg.trace = value == "1";
            } else if (arg == "--spans") {
                cfg.spans_path = value;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + arg).c_str());
        }
    }

    std::cout << "perfbench: host_cpus=" << host_cpus() << " compiler=\"" << compiler()
              << "\" build_type=" << PERFBENCH_BUILD_TYPE
              << " optimized=" << (optimized_build() ? "yes" : "no") << "\n";
    if (!optimized_build()) {
        std::cout << "perfbench: WARNING: not an optimized build; timings are not "
                     "comparable\n";
    }
    try {
        if (cfg.short_mode) return run_short();
        if (!have_workload) usage("no --workload");
        const auto& names = workload_names();
        if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
            usage(("unknown workload " + cfg.workload).c_str());
        }
        if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
        std::cout << "perfbench: workload=" << cfg.workload << " seed=" << cfg.seed
                  << " seconds=" << number(cfg.seconds) << " trace=" << cfg.trace << "\n";
        const auto rep = run_workload(cfg);
        print_result(rep);
        return rep.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
        return 1;
    }
}
