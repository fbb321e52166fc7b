#include "layers.h"

#include <fstream>

#include "common/check.h"

namespace perfbench {

using namespace mistral;

std::int32_t tracer::open(const char* name, std::int64_t decision) {
    span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.decision = decision;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
}

// Called from scoped_span's destructor, so it must not throw; RAII scoping
// already closes spans innermost first.
void tracer::close(std::int32_t index) noexcept {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
}

std::map<std::string, tracer::totals> tracer::aggregate() const {
    MISTRAL_CHECK_MSG(stack_.empty(), "perfbench: aggregate with open spans");
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_) {
        if (s.parent >= 0) {
            child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
        }
    }
    std::map<std::string, totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        auto& t = out[s.name];
        ++t.count;
        t.busy_ns += s.end_ns - s.start_ns;
        t.self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
    return out;
}

void tracer::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    MISTRAL_CHECK_MSG(out, "perfbench: cannot write spans to " << path);
    for (const auto& s : spans_) {
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
            << ",\"decision\":" << s.decision << "}\n";
    }
}

timing_evaluator::timing_evaluator(std::shared_ptr<core::utility_evaluator> inner,
                                   tracer* t, std::size_t sample_every,
                                   std::size_t sample_cap)
    : inner_(std::move(inner)),
      tracer_(t),
      sample_every_(sample_every),
      sample_cap_(sample_cap) {
    MISTRAL_CHECK(inner_ != nullptr);
}

void timing_evaluator::begin_decision(const std::vector<req_per_sec>& rates) {
    scoped_span s(tracer_, "eval.begin_decision");
    rates_ = rates;
    inner_->begin_decision(rates);
}

core::steady_utility timing_evaluator::evaluate(const cluster::configuration& config) {
    scoped_span s(tracer_, "steady.evaluate");
    ++counts_.steady_configs;
    return inner_->evaluate(config);
}

std::vector<core::steady_utility> timing_evaluator::evaluate_batch(
    const std::vector<cluster::configuration>& configs) {
    if (sample_every_ > 0) {
        for (const auto& c : configs) {
            if (samples_.size() < sample_cap_ && seen_++ % sample_every_ == 0) {
                samples_.push_back({c, rates_});
            }
        }
    }
    scoped_span s(tracer_, "steady.evaluate_batch");
    counts_.steady_configs += static_cast<std::int64_t>(configs.size());
    return inner_->evaluate_batch(configs);
}

core::isolated_perf timing_evaluator::evaluate_isolated(const core::app_sizing& sizing) {
    scoped_span s(tracer_, "ideal.evaluate_isolated");
    ++counts_.isolated_sizings;
    return inner_->evaluate_isolated(sizing);
}

std::vector<core::isolated_perf> timing_evaluator::evaluate_isolated_batch(
    const std::vector<core::app_sizing>& sizings) {
    scoped_span s(tracer_, "ideal.evaluate_isolated_batch");
    counts_.isolated_sizings += static_cast<std::int64_t>(sizings.size());
    return inner_->evaluate_isolated_batch(sizings);
}

void timing_evaluator::parallel_for(std::size_t count,
                                    const std::function<void(std::size_t)>& fn) {
    scoped_span s(tracer_, "draft.parallel_for");
    counts_.drafted_children += static_cast<std::int64_t>(count);
    inner_->parallel_for(count, fn);
}

}  // namespace perfbench
