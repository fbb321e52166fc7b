// Golden ideals of perf_pwr_optimizer.
//
// Each case runs optimize() or optimize_meeting_targets() on a RUBiS cell
// for a seeded rate vector, a reference configuration (none, a packed ideal,
// or that ideal with its first host failed) and per-app host pools on or
// off. The ideal's placements and host power, hosts_used, and the bits of
// utility_rate, perf_rate, power_rate, power and every response time are
// pinned: a change to how the gradient builds, scores or picks its
// candidates, or to how the packer places a sizing, must leave each row as
// it is. EvaluatorOracle.PerfPwrOptimizerMatchesJointIsolatedSolve runs one
// optimizer over two engines, so it cannot see such a change.
//
// The rows were recorded from the optimizer that copied every candidate
// sizing and built a fresh packer per attempt. When a change means to move
// an ideal, the failure message prints the case's replacement row.
#include "core/perf_pwr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"

namespace mistral::core {
namespace {

enum class reference_kind { none, packed, failed_host };

struct golden_case {
    std::size_t hosts = 0;
    std::size_t apps = 0;
    std::uint64_t seed = 0;  // the rate vector's
    req_per_sec max_rate = 0.0;  // rates are drawn from [5, max_rate)
    reference_kind reference = reference_kind::none;
    bool pools = false;
    bool meeting_targets = false;
};

struct golden_result {
    std::string placements;  // per VM "host:milli-cap", "-" when dormant
    std::string power;       // per host 1 (on), 0 (off) or x (failed)
    std::size_t hosts_used = 0;
    bool feasible = false;
    double utility_rate = 0.0;
    double perf_rate = 0.0;
    double power_rate = 0.0;
    double watts = 0.0;
    std::vector<double> response_times;
};

// 2 cells × 2 rate vectors × 3 references × pools off/on × 2 variants. The
// second rate vector runs hot, so the variant that meets targets rejects
// reductions the plain one takes.
std::vector<golden_case> make_cases() {
    std::vector<golden_case> out;
    const std::size_t cells[2][2] = {{8, 4}, {4, 2}};
    for (const auto& cell : cells) {
        for (std::uint64_t k = 0; k < 2; ++k) {
            const req_per_sec max_rate = k == 0 ? 100.0 : 120.0;
            for (const auto ref : {reference_kind::none, reference_kind::packed,
                                   reference_kind::failed_host}) {
                for (const bool pools : {false, true}) {
                    for (const bool meeting : {false, true}) {
                        out.push_back({cell[0], cell[1], 300 + 10 * cell[1] + k,
                                       max_rate, ref, pools, meeting});
                    }
                }
            }
        }
    }
    return out;
}

const std::vector<golden_case>& cases() {
    static const std::vector<golden_case> all = make_cases();
    return all;
}

// Recorded from the optimizer before its candidates and packer were reused;
// one row per case, in cases() order.
const std::vector<golden_result>& goldens() {
    static const std::vector<golden_result> all = {
        {"3:200 2:400 - 1:500 - 3:200 4:200 - 1:300 - 4:200 2:400 - 0:700 - 4:200 4:200 - 3:400 -",
         "11111000", 5, true,
         0.045955769108954658, 0.080454300452386718, -0.034498531343432053, 413.98237612118464,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.092823332909577089}},
        {"3:200 2:400 - 1:500 - 3:200 4:200 - 1:300 - 4:200 2:400 - 0:700 - 4:200 4:200 - 3:400 -",
         "11111000", 5, true,
         0.045955769108954658, 0.080454300452386718, -0.034498531343432053, 413.98237612118464,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.092823332909577089}},
        {"0:200 3:400 - 2:500 - 3:200 3:200 - 2:300 - 5:200 5:400 - 4:700 - 1:200 0:600 - 1:600 -",
         "11111100", 6, true,
         0.04064370510168161, 0.080454300452386718, -0.039810595350705101, 477.72714420846125,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.04979262005079918}},
        {"0:200 3:400 - 2:500 - 3:200 3:200 - 2:300 - 5:200 5:400 - 4:700 - 1:200 0:600 - 1:600 -",
         "11111100", 6, true,
         0.04064370510168161, 0.080454300452386718, -0.039810595350705101, 477.72714420846125,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.04979262005079918}},
        {"1:200 0:400 - 2:500 - 1:200 4:200 - 2:300 - 4:200 0:400 - 3:700 - 4:200 4:200 - 1:300 -",
         "11111000", 5, true,
         0.045955769108954658, 0.080454300452386718, -0.034498531343432053, 413.98237612118464,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.10358583993398604}},
        {"1:200 0:400 - 2:500 - 1:200 4:200 - 2:300 - 4:200 0:400 - 3:700 - 4:200 4:200 - 1:300 -",
         "11111000", 5, true,
         0.045955769108954658, 0.080454300452386718, -0.034498531343432053, 413.98237612118464,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.10358583993398604}},
        {"0:200 0:400 - 2:500 - 5:200 5:200 - 2:300 - 6:200 5:400 - 4:700 - 0:200 6:200 - 6:200 -",
         "10101110", 5, true,
         0.045904874158909384, 0.080454300452386718, -0.034549426293477327, 414.5931155217279,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.13534982416564897}},
        {"0:200 0:400 - 2:500 - 5:200 5:200 - 2:300 - 6:200 5:400 - 4:700 - 0:200 6:200 - 6:200 -",
         "10101110", 5, true,
         0.045904874158909384, 0.080454300452386718, -0.034549426293477327, 414.5931155217279,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.13534982416564897}},
        {"4:200 1:400 - 2:500 - 4:200 5:200 - 2:300 - 5:200 1:400 - 3:700 - 5:200 5:200 - 4:400 -",
         "x1111100", 5, true,
         0.045955769108954658, 0.080454300452386718, -0.034498531343432053, 413.98237612118464,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.092823332909577089}},
        {"4:200 1:400 - 2:500 - 4:200 5:200 - 2:300 - 5:200 1:400 - 3:700 - 5:200 5:200 - 4:400 -",
         "x1111100", 5, true,
         0.045955769108954658, 0.080454300452386718, -0.034498531343432053, 413.98237612118464,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.092823332909577089}},
        {"1:200 1:400 - 2:500 - 5:200 5:200 - 2:300 - 6:200 5:400 - 4:700 - 1:200 6:200 - 6:200 -",
         "x1101110", 5, true,
         0.045904874158909384, 0.080454300452386718, -0.034549426293477327, 414.5931155217279,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.13534982416564897}},
        {"1:200 1:400 - 2:500 - 5:200 5:200 - 2:300 - 6:200 5:400 - 4:700 - 1:200 6:200 - 6:200 -",
         "x1101110", 5, true,
         0.045904874158909384, 0.080454300452386718, -0.034549426293477327, 414.5931155217279,
         {0.15308850234499669, 0.32390254017443665, 0.33798712565632238, 0.13534982416564897}},
        {"2:200 6:400 - 4:500 - 3:200 4:300 - 5:300 - 6:300 2:600 - 0:700 - 5:500 3:600 - 1:700 -",
         "11111110", 7, true,
         0.073787956047879397, 0.12385934677828236, -0.050071390730402961, 600.85668876483544,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"2:200 6:400 - 4:500 - 3:200 4:300 - 5:300 - 6:300 2:600 - 0:700 - 5:500 3:600 - 1:700 -",
         "11111110", 7, true,
         0.073787956047879397, 0.12385934677828236, -0.050071390730402961, 600.85668876483544,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"1:200 3:400 - 2:500 - 5:200 2:300 - 3:300 - 6:300 5:600 - 4:700 - 6:500 1:600 - 0:700 -",
         "11111110", 7, true,
         0.073796757209261238, 0.12385934677828236, -0.050062589569021113, 600.75107482825331,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"1:200 3:400 - 2:500 - 5:200 2:300 - 3:300 - 6:300 5:600 - 4:700 - 6:500 1:600 - 0:700 -",
         "11111110", 7, true,
         0.073796757209261238, 0.12385934677828236, -0.050062589569021113, 600.75107482825331,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"2:200 6:400 - 4:500 - 1:200 4:300 - 5:300 - 6:300 1:600 - 3:700 - 5:500 2:600 - 0:700 -",
         "11111110", 7, true,
         0.073781702849287714, 0.12385934677828236, -0.050077643928994643, 600.9317271479357,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"2:200 6:400 - 4:500 - 1:200 4:300 - 5:300 - 6:300 1:600 - 3:700 - 5:500 2:600 - 0:700 -",
         "11111110", 7, true,
         0.073781702849287714, 0.12385934677828236, -0.050077643928994643, 600.9317271479357,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"1:200 3:400 - 2:500 - 5:200 2:300 - 3:300 - 6:300 5:600 - 4:700 - 6:500 1:600 - 0:700 -",
         "11111110", 7, true,
         0.073796757209261238, 0.12385934677828236, -0.050062589569021113, 600.75107482825331,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"1:200 3:400 - 2:500 - 5:200 2:300 - 3:300 - 6:300 5:600 - 4:700 - 6:500 1:600 - 0:700 -",
         "11111110", 7, true,
         0.073796757209261238, 0.12385934677828236, -0.050062589569021113, 600.75107482825331,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"2:200 7:400 - 5:500 - 4:200 5:300 - 6:300 - 7:300 2:600 - 3:700 - 6:500 4:600 - 1:700 -",
         "x1111111", 7, true,
         0.073787956047879397, 0.12385934677828236, -0.050071390730402961, 600.85668876483544,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"2:200 7:400 - 5:500 - 4:200 5:300 - 6:300 - 7:300 2:600 - 3:700 - 6:500 4:600 - 1:700 -",
         "x1111111", 7, true,
         0.073787956047879397, 0.12385934677828236, -0.050071390730402961, 600.85668876483544,
         {0.18069655631461434, 0.22289625109276179, 0.29487537991009583, 0.12707332244654129}},
        {"3:200 3:400 - 2:500 - 3:200 5:200 - 2:300 - 7:300 5:600 - 4:700 - 6:200 6:600 - 1:700 -",
         "x1111111", 7, true,
         0.037048448510881377, 0.086915205467696766, -0.049866756956815389, 598.40108348178467,
         {0.18069655631461434, 1, 0.29487537991009583, 0.29640505147622254}},
        {"",
         "", 0, false,
         0, 0, 0, 0,
         {}},
        {"1:200 2:200 - 2:200 - 2:400 0:800 - 1:600 -",
         "1110", 3, true,
         0.02551522511155517, 0.046199136973500761, -0.020683911861945594, 248.20694234334715,
         {0.27711719522787642, 0.11807630570985908}},
        {"1:200 2:200 - 2:200 - 2:400 0:800 - 1:600 -",
         "1110", 3, true,
         0.02551522511155517, 0.046199136973500761, -0.020683911861945594, 248.20694234334715,
         {0.27711719522787642, 0.11807630570985908}},
        {"0:200 0:200 - 0:200 - 3:200 2:800 - 3:600 -",
         "1011", 3, true,
         0.025582140914542889, 0.046199136973500761, -0.020616996058957875, 247.40395270749448,
         {0.27711719522787642, 0.16904291450898626}},
        {"0:200 0:200 - 0:200 - 3:200 2:800 - 3:600 -",
         "1011", 3, true,
         0.025582140914542889, 0.046199136973500761, -0.020616996058957875, 247.40395270749448,
         {0.27711719522787642, 0.16904291450898626}},
        {"1:200 2:200 - 2:200 - 2:400 0:800 - 1:600 -",
         "1110", 3, true,
         0.02551522511155517, 0.046199136973500761, -0.020683911861945594, 248.20694234334715,
         {0.27711719522787642, 0.11807630570985908}},
        {"1:200 2:200 - 2:200 - 2:400 0:800 - 1:600 -",
         "1110", 3, true,
         0.02551522511155517, 0.046199136973500761, -0.020683911861945594, 248.20694234334715,
         {0.27711719522787642, 0.11807630570985908}},
        {"1:200 1:200 - 1:200 - 3:200 2:800 - 3:600 -",
         "0111", 3, true,
         0.025582140914542889, 0.046199136973500761, -0.020616996058957875, 247.40395270749448,
         {0.27711719522787642, 0.16904291450898626}},
        {"1:200 1:200 - 1:200 - 3:200 2:800 - 3:600 -",
         "0111", 3, true,
         0.025582140914542889, 0.046199136973500761, -0.020616996058957875, 247.40395270749448,
         {0.27711719522787642, 0.16904291450898626}},
        {"2:200 3:200 - 3:200 - 3:400 1:800 - 2:600 -",
         "x111", 3, true,
         0.02551522511155517, 0.046199136973500761, -0.020683911861945594, 248.20694234334715,
         {0.27711719522787642, 0.11807630570985908}},
        {"2:200 3:200 - 3:200 - 3:400 1:800 - 2:600 -",
         "x111", 3, true,
         0.02551522511155517, 0.046199136973500761, -0.020683911861945594, 248.20694234334715,
         {0.27711719522787642, 0.11807630570985908}},
        {"1:200 1:200 - 1:200 - 3:200 2:800 - 3:600 -",
         "x111", 3, true,
         0.025582140914542889, 0.046199136973500761, -0.020616996058957875, 247.40395270749448,
         {0.27711719522787642, 0.16904291450898626}},
        {"1:200 1:200 - 1:200 - 3:200 2:800 - 3:600 -",
         "x111", 3, true,
         0.025582140914542889, 0.046199136973500761, -0.020616996058957875, 247.40395270749448,
         {0.27711719522787642, 0.16904291450898626}},
        {"3:200 1:300 - 1:500 - 2:300 0:800 - 2:500 3:500",
         "1111", 4, true,
         0.035770498917655602, 0.06455427897522939, -0.028783780057573777, 345.40536069088535,
         {0.28797696619582014, 0.14763951785820426}},
        {"3:200 1:300 - 1:500 - 2:300 0:800 - 2:500 3:500",
         "1111", 4, true,
         0.035770498917655602, 0.06455427897522939, -0.028783780057573777, 345.40536069088535,
         {0.28797696619582014, 0.14763951785820426}},
        {"1:200 0:300 - 0:500 - 2:200 2:400 - 2:200 -",
         "1110", 3, true,
         -0.00037085065505667756, 0.02038761230856272, -0.020758462963619398, 249.10155556343278,
         {0.28797696619582014, 23.621288424275981}},
        {"",
         "", 0, false,
         0, 0, 0, 0,
         {}},
        {"2:200 3:300 - 2:500 - 1:300 0:800 - 1:500 3:500",
         "1111", 4, true,
         0.035792973199991064, 0.06455427897522939, -0.028761305775238319, 345.13566930285981,
         {0.28797696619582014, 0.14763951785820426}},
        {"2:200 3:300 - 2:500 - 1:300 0:800 - 1:500 3:500",
         "1111", 4, true,
         0.035792973199991064, 0.06455427897522939, -0.028761305775238319, 345.13566930285981,
         {0.28797696619582014, 0.14763951785820426}},
        {"1:200 0:300 - 0:500 - 2:200 2:400 - 2:200 -",
         "1110", 3, true,
         -0.00037085065505667756, 0.02038761230856272, -0.020758462963619398, 249.10155556343278,
         {0.28797696619582014, 23.621288424275981}},
        {"",
         "", 0, false,
         0, 0, 0, 0,
         {}},
        {"2:200 3:300 - 2:500 - 1:200 1:600 - 3:500 -",
         "x111", 3, true,
         -0.0021555207265235607, 0.02038761230856272, -0.022543133035086281, 270.51759642103536,
         {0.31720413823850063, 4.8885153697103938}},
        {"",
         "", 0, false,
         0, 0, 0, 0,
         {}},
        {"1:200 1:200 - 1:400 - 3:200 3:200 - 3:200 -",
         "x101", 2, true,
         -0.03347242512838617, -0.018063689988246222, -0.015408735140139953, 184.90482168167944,
         {3.3809485117481888, 23.621288424275981}},
        {"",
         "", 0, false,
         0, 0, 0, 0,
         {}},
    };
    return all;
}

std::vector<req_per_sec> seeded_rates(std::uint64_t seed, std::size_t apps,
                                      req_per_sec max_rate) {
    rng gen(seed);
    std::vector<req_per_sec> rates;
    for (std::size_t a = 0; a < apps; ++a) rates.push_back(gen.uniform(5.0, max_rate));
    return rates;
}

golden_result run(const golden_case& gc) {
    scenario_options so;
    so.host_count = gc.hosts;
    so.app_count = gc.apps;
    const auto scn = make_rubis_scenario(so);
    const auto& model = scn.model;

    perf_pwr_options options;
    if (gc.pools) {
        // Each app's pool: half the hosts (at least two), starting at its own
        // host pair.
        const std::size_t pool = std::max<std::size_t>(2, model.host_count() / 2);
        options.app_hosts.assign(model.app_count(),
                                 std::vector<bool>(model.host_count(), false));
        for (std::size_t a = 0; a < model.app_count(); ++a) {
            for (std::size_t k = 0; k < pool; ++k) {
                options.app_hosts[a][(2 * a + k) % model.host_count()] = true;
            }
        }
    }
    const perf_pwr_optimizer opt(model, utility_model{}, options);

    // The packed reference: the unrestricted ideal at another rate vector.
    std::optional<cluster::configuration> reference;
    if (gc.reference != reference_kind::none) {
        const perf_pwr_optimizer plain(model, utility_model{});
        reference =
            plain.optimize(seeded_rates(gc.seed + 1000, model.app_count(), 100.0)).ideal;
        if (gc.reference == reference_kind::failed_host) {
            reference->set_host_failed(host_id{0}, true);
        }
    }
    const auto* ref = reference ? &*reference : nullptr;
    const auto rates = seeded_rates(gc.seed, model.app_count(), gc.max_rate);
    const auto r = gc.meeting_targets ? opt.optimize_meeting_targets(rates, ref)
                                      : opt.optimize(rates, ref);

    golden_result out;
    if (r.ideal.vm_count() == model.vm_count()) {
        for (std::size_t v = 0; v < model.vm_count(); ++v) {
            if (v > 0) out.placements += ' ';
            const auto& p = r.ideal.placement(vm_id{static_cast<std::int32_t>(v)});
            out.placements += p ? std::to_string(p->host.index()) + ":" +
                                      std::to_string(std::llround(p->cpu_cap * 1000.0))
                                : "-";
        }
        for (std::size_t h = 0; h < model.host_count(); ++h) {
            const host_id host{static_cast<std::int32_t>(h)};
            out.power += r.ideal.host_failed(host) ? 'x' : r.ideal.host_on(host) ? '1' : '0';
        }
    }
    out.hosts_used = r.hosts_used;
    out.feasible = r.feasible;
    out.utility_rate = r.utility_rate;
    out.perf_rate = r.perf_rate;
    out.power_rate = r.power_rate;
    out.watts = r.power;
    out.response_times = r.response_times;
    return out;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const golden_result& a, const golden_result& b) {
    if (a.placements != b.placements || a.power != b.power ||
        a.hosts_used != b.hosts_used || a.feasible != b.feasible ||
        !same_bits(a.utility_rate, b.utility_rate) ||
        !same_bits(a.perf_rate, b.perf_rate) ||
        !same_bits(a.power_rate, b.power_rate) || !same_bits(a.watts, b.watts) ||
        a.response_times.size() != b.response_times.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.response_times.size(); ++i) {
        if (!same_bits(a.response_times[i], b.response_times[i])) return false;
    }
    return true;
}

// The case's row in the goldens() table's syntax.
std::string row(const golden_result& r) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "\", %zu, %s,\n         %.17g, %.17g, %.17g, %.17g,\n         {",
                  r.hosts_used, r.feasible ? "true" : "false", r.utility_rate,
                  r.perf_rate, r.power_rate, r.watts);
    std::string s = "        {\"" + r.placements + "\",\n         \"" + r.power + buf;
    for (std::size_t i = 0; i < r.response_times.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ",
                      r.response_times[i]);
        s += buf;
    }
    return s + "}},";
}

TEST(PerfPwrGoldenTable, OneRowPerCaseAndEveryPathTaken) {
    ASSERT_EQ(goldens().size(), cases().size());
    std::size_t infeasible = 0, consolidated = 0;
    for (std::size_t i = 0; i < cases().size(); ++i) {
        const auto& g = goldens()[i];
        if (!g.feasible) ++infeasible;
        if (g.feasible && g.hosts_used < cases()[i].hosts) ++consolidated;
    }
    // Most ideals consolidate below the cell's host count, so the gradient
    // and the packer both ran to the end.
    EXPECT_GE(2 * consolidated, cases().size());
    EXPECT_LT(infeasible, cases().size());
}

class PerfPwrGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PerfPwrGolden, IdealMatchesItsGoldenRow) {
    const std::size_t i = GetParam();
    const auto got = run(cases()[i]);
    ASSERT_LT(i, goldens().size()) << "no golden row; this case gave\n" << row(got);
    EXPECT_TRUE(same(got, goldens()[i])) << "this case gave\n" << row(got);
}

INSTANTIATE_TEST_SUITE_P(Cases, PerfPwrGolden,
                         ::testing::Range<std::size_t>(0, cases().size()));

}  // namespace
}  // namespace mistral::core
