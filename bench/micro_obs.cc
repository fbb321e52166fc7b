// Micro-benchmarks for the observability hot path.
//
// The disabled-path numbers are the acceptance criterion: a default
// (null-sink) build pays one predictable branch per hook — no mutex, no
// allocation, no virtual call — so instrumenting the A* inner loop and the
// LQN solver costs nothing when observability is off. The enabled paths
// quantify what a live registry costs (one relaxed atomic add) and what a
// journal line costs (string formatting; only paid on controller decisions,
// never per expansion).
#include <benchmark/benchmark.h>

#include <sstream>

#include "obs/journal.h"
#include "obs/metrics.h"

using namespace mistral;

namespace {

void BM_obs_counter_disabled(benchmark::State& state) {
    const obs::counter c;  // default-constructed: the null-sink path
    for (auto _ : state) {
        c.add();
        benchmark::DoNotOptimize(&c);
    }
}
BENCHMARK(BM_obs_counter_disabled);

void BM_obs_counter_enabled(benchmark::State& state) {
    obs::metrics_registry reg;
    const obs::counter c = reg.register_counter("bench_expansions_total");
    for (auto _ : state) {
        c.add();
        benchmark::DoNotOptimize(&c);
    }
}
BENCHMARK(BM_obs_counter_enabled);

void BM_obs_histogram_disabled(benchmark::State& state) {
    const obs::histogram h;
    double v = 0.0;
    for (auto _ : state) {
        h.observe(v);
        v += 0.1;
        benchmark::DoNotOptimize(&h);
    }
}
BENCHMARK(BM_obs_histogram_disabled);

void BM_obs_histogram_enabled(benchmark::State& state) {
    obs::metrics_registry reg;
    const obs::histogram h = reg.register_histogram(
        "bench_duration_seconds", {0.1, 0.5, 1.0, 2.5, 5.0, 10.0});
    double v = 0.0;
    for (auto _ : state) {
        h.observe(v);
        v += 0.1;
        if (v > 12.0) v = 0.0;
        benchmark::DoNotOptimize(&h);
    }
}
BENCHMARK(BM_obs_histogram_enabled);

void BM_obs_journaling_guard_off(benchmark::State& state) {
    obs::sink* sink = nullptr;  // the default in every options struct
    for (auto _ : state) {
        benchmark::DoNotOptimize(obs::journaling(sink));
    }
}
BENCHMARK(BM_obs_journaling_guard_off);

void BM_obs_decision_event(benchmark::State& state) {
    // The full journal cost of one controller decision record: build the
    // event, format it as a JSON line, write it to an in-memory stream.
    std::ostringstream out;
    obs::jsonl_sink sink(out);
    for (auto _ : state) {
        out.str("");
        obs::event e("decision", 1234.5);
        e.text("trigger", "band")
            .boolean("invoked", true)
            .num("cw", 300.0)
            .num("expected_utility", 12.5)
            .text_list("actions", {"migrate vm3 -> host2", "power_off host1"})
            .integer("expansions", 842)
            .num("search_duration", 1.7);
        sink.record(e);
        benchmark::DoNotOptimize(&out);
    }
}
BENCHMARK(BM_obs_decision_event);

}  // namespace
