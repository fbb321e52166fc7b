// Fig. 6: accuracy of stability-interval estimation.
//
// The ARMA filter of Section III-D predicts how long the workload stays
// within its band; the paper reports ~14 % average error over ~95 control
// windows using RUBiS-1 and RUBiS-2.
//
// With --json the binary prints each control window's measured and
// estimated interval in ms, the window count, both per-window MAPEs and the
// magnitude-weighted error instead, at the precision the figure prints them
// — the "fig06" section of BENCH_paper.json, which CI compares exactly. The
// run drives the workload monitor and the stability predictors (divergence
// guard on) with nothing else around them:
//
//   ./build/bench/fig06_stability_estimation --json | python3 bench/paper_check.py fig06
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/time_series.h"
#include "predict/arma.h"
#include "workload/generators.h"
#include "workload/monitor.h"

using namespace mistral;

int main(int argc, char** argv) {
    const bool json = argc > 1 && std::string(argv[1]) == "--json";
    if (!json) {
        bench::print_header("Fig. 6 — accuracy of stability interval estimation",
                            "measured vs. estimated stability interval (ms) per "
                            "control window, RUBiS-1/2, band 8 req/s");
    }

    // Real request streams jitter by a few req/s in absolute terms at every
    // load level (that is what exits an 8 req/s band even at night); the
    // additive AR(1) noise transform supplies that texture on top of the
    // Fig. 4 shapes.
    wl::generator_options gen;
    std::vector<wl::trace> traces = {
        wl::world_cup_trace(gen, 0).scaled_to_range(0.0, 100.0)
            .with_additive_noise(3.0, 77),
        wl::world_cup_trace(gen, 1).scaled_to_range(0.0, 100.0)
            .with_additive_noise(3.0, 78)};
    wl::workload_monitor monitor(2, 8.0);
    // Per-application predictors, as in Section III-D.
    predict::stability_predictor p0, p1;

    series_bundle bundle;
    auto& experiment = bundle.series("Experiment");
    auto& estimated = bundle.series("Model");
    std::string measured_ms, estimated_ms;

    int window = 0;
    double abs_err = 0.0, measured_sum = 0.0;
    const seconds start = traces[0].start_time();
    const seconds end = traces[0].end_time();
    for (seconds t = start; t <= end; t += 120.0) {
        const std::vector<req_per_sec> rates = {traces[0].rate_at(t),
                                                traces[1].rate_at(t)};
        const auto event = monitor.observe(t, rates);
        if (!event.any_exceeded) continue;
        for (std::size_t i = 0; i < event.exceeded.size(); ++i) {
            auto& p = event.exceeded[i] == 0 ? p0 : p1;
            const seconds measured = event.completed_intervals[i];
            ++window;
            experiment.add(window, measured * 1000.0);
            estimated.add(window, p.current_estimate() * 1000.0);
            if (window > 1) {
                measured_ms += ", ";
                estimated_ms += ", ";
            }
            measured_ms += table_printer::fmt(measured * 1000.0, 0);
            estimated_ms += table_printer::fmt(p.current_estimate() * 1000.0, 0);
            abs_err += std::abs(p.current_estimate() - measured);
            measured_sum += measured;
            p.observe(measured);
        }
        monitor.recenter(t, rates);
    }

    const std::string mape0 = table_printer::fmt(p0.mape_percent(), 1);
    const std::string mape1 = table_printer::fmt(p1.mape_percent(), 1);
    const std::string weighted = table_printer::fmt(100.0 * abs_err / measured_sum, 1);
    if (json) {
        std::printf("{\n  \"windows\": %d,\n  \"measured_ms\": [%s],\n"
                    "  \"estimated_ms\": [%s],\n  \"mape_rubis1_pct\": %s,\n"
                    "  \"mape_rubis2_pct\": %s,\n  \"weighted_error_pct\": %s\n}\n",
                    window, measured_ms.c_str(), estimated_ms.c_str(),
                    mape0.c_str(), mape1.c_str(), weighted.c_str());
        return 0;
    }
    std::cout << "\n(one row per control window; values in ms)\n";
    bundle.print(std::cout, 12, 0);
    std::cout << "\nControl windows observed: " << window << "\n"
              << "Per-window MAPE: RUBiS-1 " << mape0 << "%, RUBiS-2 " << mape1
              << "%\n"
              << "Magnitude-weighted error (sum |err| / sum measured): "
              << weighted << "%\n"
              << "\nNote: the paper reports ~14% average error. Our synthetic\n"
                 "traces yield a heavier-tailed interval distribution than the\n"
                 "authors' testbed traces, so the k=3 ARMA's relative error is\n"
                 "larger here; the qualitative behaviour (estimates tracking\n"
                 "the measured regime, fast recovery after shocks via the\n"
                 "adaptive beta) is what this figure checks.\n";
    return 0;
}
