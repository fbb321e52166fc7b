// Outside-in layer tracing for the benchmark (perfbench).
//
// Everything here wraps the controller's *public* calls from the outside:
// nothing under src/ is instrumented. Two pieces:
//
//  * tracer — in-memory spans (name, start, end, parent, decision id) with
//    per-name busy and self time; written out as JSONL when the run ends.
//  * timing_evaluator — a utility_evaluator that forwards to the engine
//    make_evaluator() builds and opens a span around each call, so a replayed
//    adaptation_search::find splits into steady evaluation, Perf-Pwr isolated
//    sizing and child drafting (parallel_for) without touching the search.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now().time_since_epoch())
        .count();
}

class tracer {
public:
    struct span {
        const char* name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1;
        std::int64_t decision = -1;
    };
    struct totals {
        std::int64_t count = 0;
        std::int64_t busy_ns = 0;
        std::int64_t self_ns = 0;  // busy minus the time child spans cover
    };

    // Opens a span as a child of the innermost open span; returns its index.
    std::int32_t open(const char* name, std::int64_t decision = -1);
    void close(std::int32_t index) noexcept;

    [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
    // Busy and self time per span name, over every closed span.
    [[nodiscard]] std::map<std::string, totals> aggregate() const;
    // One JSON object per line: name, start_ns, end_ns, parent, decision.
    void write_jsonl(const std::string& path) const;

private:
    std::vector<span> spans_;
    std::vector<std::int32_t> stack_;
};

// RAII span; a null tracer makes it a no-op.
class scoped_span {
public:
    scoped_span(tracer* t, const char* name, std::int64_t decision = -1)
        : tracer_(t), index_(t != nullptr ? t->open(name, decision) : -1) {}
    ~scoped_span() {
        if (tracer_ != nullptr) tracer_->close(index_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    tracer* tracer_;
    std::int32_t index_;
};

// Work counts the timing evaluator sees pass through the interface.
struct evaluator_counts {
    std::int64_t steady_configs = 0;    // configurations evaluate/evaluate_batch valued
    std::int64_t isolated_sizings = 0;  // Perf-Pwr sizings scored
    std::int64_t drafted_children = 0;  // parallel_for indices (children drafted)
};

class timing_evaluator final : public mistral::core::utility_evaluator {
public:
    // `sample_every` > 0 keeps every n-th configuration evaluate_batch sees
    // (with the bound rates) for the lqn::solve / is_candidate probes.
    timing_evaluator(std::shared_ptr<mistral::core::utility_evaluator> inner,
                     tracer* t, std::size_t sample_every = 0,
                     std::size_t sample_cap = 0);

    void begin_decision(const std::vector<mistral::req_per_sec>& rates) override;
    [[nodiscard]] const std::vector<mistral::seconds>& targets() const override {
        return inner_->targets();
    }
    [[nodiscard]] mistral::core::steady_utility evaluate(
        const mistral::cluster::configuration& config) override;
    [[nodiscard]] std::vector<mistral::core::steady_utility> evaluate_batch(
        const std::vector<mistral::cluster::configuration>& configs) override;
    [[nodiscard]] mistral::core::isolated_perf evaluate_isolated(
        const mistral::core::app_sizing& s) override;
    [[nodiscard]] std::vector<mistral::core::isolated_perf> evaluate_isolated_batch(
        const std::vector<mistral::core::app_sizing>& sizings) override;
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)>& fn) override;
    [[nodiscard]] std::size_t parallelism() const override {
        return inner_->parallelism();
    }
    void reset_memo() override { inner_->reset_memo(); }
    [[nodiscard]] const mistral::core::evaluation_stats& stats() const override {
        return inner_->stats();
    }

    [[nodiscard]] const evaluator_counts& counts() const { return counts_; }
    struct sample {
        mistral::cluster::configuration config;
        std::vector<mistral::req_per_sec> rates;
    };
    [[nodiscard]] const std::vector<sample>& samples() const { return samples_; }

private:
    std::shared_ptr<mistral::core::utility_evaluator> inner_;
    tracer* tracer_;
    std::size_t sample_every_;
    std::size_t sample_cap_;
    std::size_t seen_ = 0;
    std::vector<mistral::req_per_sec> rates_;
    std::vector<sample> samples_;
    evaluator_counts counts_;
};

}  // namespace perfbench
