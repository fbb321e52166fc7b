#include "core/evaluator.h"

#include <cmath>
#include <utility>

#include "cluster/translate.h"
#include "common/check.h"
#include "lqn/solver.h"
#include "obs/journal.h"

namespace mistral::core {

// ---- app_solve_cache -------------------------------------------------------

app_solve_cache::app_solve_cache(std::size_t capacity) : capacity_(capacity) {
    MISTRAL_CHECK(capacity >= 1);
}

const lqn::app_result* app_solve_cache::find(const app_signature& sig) {
    const auto it = index_.find(sig);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return &it->second->second;
}

void app_solve_cache::insert(app_signature sig, lqn::app_result value) {
    const auto it = index_.find(sig);
    if (it != index_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(std::move(sig), std::move(value));
    index_.emplace(lru_.front().first, lru_.begin());
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

void app_solve_cache::clear() {
    lru_.clear();
    index_.clear();
}

app_signature make_app_signature(std::size_t app, std::int64_t rate_key,
                                 const lqn::app_deployment& dep,
                                 const std::vector<double>& inflation) {
    app_signature sig;
    std::size_t n = 2;
    for (const auto& tier : dep.tiers) n += 1 + 2 * tier.replicas.size();
    sig.words.reserve(n);
    sig.words.push_back(app);
    sig.words.push_back(static_cast<std::uint64_t>(rate_key));
    for (const auto& tier : dep.tiers) {
        sig.words.push_back(tier.replicas.size());
        for (const auto& rep : tier.replicas) {
            // Caps are multiples of 1e-3 (configuration rounds on write), so
            // the milli count pins the cap's exact double bits; inflation is
            // an arbitrary double and is keyed by bit pattern directly.
            sig.words.push_back(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(std::llround(rep.cpu_cap * 1000.0))));
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(double));
            __builtin_memcpy(&bits, &inflation[rep.host], sizeof(bits));
            sig.words.push_back(bits);
        }
    }
    return sig;
}

// ---- serial_evaluator ------------------------------------------------------

namespace {

// The per-app rate words app signatures embed: each rate's exact bit
// pattern, so a cached sub-solve is only ever reused under the identical
// rate — the delta path's bit-identity proof leans on this. A NaN rate would
// silently poison every key it touches (NaN never compares equal); a
// negative rate is a caller bug.
std::vector<std::int64_t> rate_bits(const std::vector<req_per_sec>& rates) {
    std::vector<std::int64_t> key;
    key.reserve(rates.size());
    for (const req_per_sec r : rates) {
        MISTRAL_CHECK_MSG(std::isfinite(r) && r >= 0.0,
                          "request rates must be finite and non-negative");
        std::int64_t bits;
        static_assert(sizeof(bits) == sizeof(r));
        __builtin_memcpy(&bits, &r, sizeof(bits));
        key.push_back(bits);
    }
    return key;
}

}  // namespace

serial_evaluator::serial_evaluator(const cluster::cluster_model& model,
                                   utility_model utility, lqn::model_options lqn,
                                   evaluation_options options)
    : model_(&model),
      utility_(utility),
      lqn_(lqn),
      app_cache_(app_cache_entries) {
    if (auto* reg = obs::metrics_of(options.sink)) {
        obs_solves_ = reg->register_counter(
            "mistral_eval_solves_total", "configuration evaluations performed");
        obs_app_solves_ = reg->register_counter(
            "mistral_eval_app_solves_total", "per-app LQN sub-solves performed");
        obs_app_hits_ = reg->register_counter(
            "mistral_eval_app_cache_hits_total", "per-app sub-solves reused");
        obs_app_misses_ = reg->register_counter(
            "mistral_eval_app_cache_misses_total",
            "per-app sub-solves that missed the cache");
    }
}

void serial_evaluator::begin_decision(const std::vector<req_per_sec>& rates) {
    MISTRAL_CHECK(rates.size() == model_->app_count());
    // The app cache is *not* cleared: rates are part of its keys, so
    // sub-solves persist across decisions and re-hit when the workload
    // returns to a previously seen level. Prices never enter a sub-solve, so
    // a tariff change (utility_model::update_econ) cannot stale one either.
    rate_key_ = rate_bits(rates);
    rates_ = rates;
    targets_.resize(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        targets_[a] = utility_.planning_target(
            model_->app(app_id{static_cast<std::int32_t>(a)})
                .target_response_time(rates[a]));
    }
}

steady_utility serial_evaluator::assemble(
    const cluster::configuration& config,
    const std::vector<lqn::app_result>& apps,
    const std::vector<fraction>& host_utilization) const {
    steady_utility out;
    out.power = cluster::predicted_power(*model_, config, host_utilization);
    out.power_rate = utility_.power_rate(out.power);
    out.response_times.reserve(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        const seconds rt = apps[a].mean_response_time;
        out.response_times.push_back(rt);
        out.perf_rate += utility_.perf_rate(rates_[a], rt, targets_[a]);
        if (rt > targets_[a]) out.meets_targets = false;
    }
    // steady_rate() accumulates power-first; summing the components here
    // instead would drift by an ulp and is a different number to callers
    // that compare utilities at 1e-12.
    out.rate = utility_.steady_rate(rates_, out.response_times, targets_, out.power);
    out.candidate = is_candidate(*model_, config);
    return out;
}

steady_utility serial_evaluator::evaluate(const cluster::configuration& config) {
    MISTRAL_CHECK_MSG(!rates_.empty(), "begin_decision() before evaluate()");
    ++stats_.cache_misses;
    ++stats_.evaluations;
    obs_solves_.add();
    const auto deps = cluster::to_lqn(*model_, config, rates_);
    const auto loads = lqn::compute_host_loads(deps, model_->host_count(), lqn_);
    std::vector<lqn::app_result> apps(deps.size());
    for (std::size_t a = 0; a < deps.size(); ++a) {
        auto sig = make_app_signature(a, rate_key_[a], deps[a], loads.inflation);
        if (const auto* hit = app_cache_.find(sig)) {
            ++stats_.app_cache_hits;
            obs_app_hits_.add();
            apps[a] = *hit;
            continue;
        }
        ++stats_.app_cache_misses;
        ++stats_.app_solves;
        obs_app_misses_.add();
        obs_app_solves_.add();
        apps[a] = lqn::solve_app(deps[a], loads.inflation, lqn_);
        app_cache_.insert(std::move(sig), apps[a]);
    }
    return assemble(config, apps, loads.utilization);
}

std::vector<steady_utility> serial_evaluator::evaluate_batch(
    const std::vector<cluster::configuration>& configs) {
    std::vector<steady_utility> out;
    out.reserve(configs.size());
    for (const auto& c : configs) out.push_back(evaluate(c));
    return out;
}

isolated_perf serial_evaluator::compute_isolated(const app_sizing& s) const {
    MISTRAL_CHECK(s.size() == model_->app_count());
    std::vector<lqn::app_deployment> deps;
    std::size_t fake_host = 0;
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        lqn::app_deployment dep;
        dep.spec = &model_->app(app_id{static_cast<std::int32_t>(a)});
        dep.rate = rates_[a];
        dep.tiers.resize(dep.spec->tier_count());
        for (std::size_t t = 0; t < dep.spec->tier_count(); ++t) {
            for (int r = 0; r < s[a][t].replicas; ++r) {
                dep.tiers[t].replicas.push_back({fake_host++, s[a][t].cap});
            }
        }
        deps.push_back(std::move(dep));
    }
    const auto solved = lqn::solve(deps, fake_host, lqn_);
    isolated_perf out;
    out.response_times.reserve(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        const seconds rt = solved.apps[a].mean_response_time;
        out.response_times.push_back(rt);
        out.perf_rate += utility_.perf_rate(rates_[a], rt, targets_[a]);
        if (rt > targets_[a]) out.meets_all_targets = false;
    }
    return out;
}

isolated_perf serial_evaluator::evaluate_isolated(const app_sizing& s) {
    MISTRAL_CHECK_MSG(!rates_.empty(), "begin_decision() before evaluate_isolated()");
    ++stats_.evaluations;
    obs_solves_.add();
    return compute_isolated(s);
}

std::vector<isolated_perf> serial_evaluator::evaluate_isolated_batch(
    const std::vector<app_sizing>& sizings) {
    std::vector<isolated_perf> out;
    out.reserve(sizings.size());
    for (const auto& s : sizings) out.push_back(evaluate_isolated(s));
    return out;
}

void serial_evaluator::reset_memo() {
    app_cache_.clear();
    stats_ = {};
}

// ---- factory ---------------------------------------------------------------

std::shared_ptr<utility_evaluator> make_evaluator(const cluster::cluster_model& model,
                                                  utility_model utility,
                                                  lqn::model_options lqn,
                                                  evaluation_options options) {
    return std::make_shared<serial_evaluator>(model, utility, lqn, options);
}

}  // namespace mistral::core
