#include "core/evaluator.h"

#include <bit>
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

const lqn::app_result* app_solve_cache::find(const app_signature& sig) const {
    const auto it = entries_.find(sig);
    return it == entries_.end() ? nullptr : &it->second;
}

void app_solve_cache::insert(app_signature sig, lqn::app_result value) {
    if (entries_.size() >= capacity_) entries_.clear();
    entries_.insert_or_assign(std::move(sig), std::move(value));
}

void make_app_signature(std::size_t app, std::int64_t rate_key,
                        const lqn::app_deployment& dep,
                        const std::vector<double>& inflation, app_signature& out) {
    auto& words = out.words;
    std::size_t n = 2;
    for (const auto& tier : dep.tiers) n += 1 + 2 * tier.replicas.size();
    words.clear();
    words.reserve(n);
    words.push_back(app);
    words.push_back(static_cast<std::uint64_t>(rate_key));
    for (const auto& tier : dep.tiers) {
        words.push_back(tier.replicas.size());
        for (const auto& rep : tier.replicas) {
            // Caps are multiples of 1e-3 (configuration rounds on write), so
            // the milli count pins the cap's exact double bits; inflation is
            // an arbitrary double and is keyed by bit pattern directly.
            words.push_back(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(std::llround(rep.cpu_cap * 1000.0))));
            words.push_back(std::bit_cast<std::uint64_t>(inflation[rep.host]));
        }
    }
}

app_signature make_app_signature(std::size_t app, std::int64_t rate_key,
                                 const lqn::app_deployment& dep,
                                 const std::vector<double>& inflation) {
    app_signature sig;
    make_app_signature(app, rate_key, dep, inflation, sig);
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
    isolated_rt_.clear();
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
    cluster::to_lqn(*model_, config, rates_, deps_);
    lqn::compute_host_loads(deps_, model_->host_count(), lqn_, loads_);
    apps_.resize(deps_.size());
    for (std::size_t a = 0; a < deps_.size(); ++a) {
        make_app_signature(a, rate_key_[a], deps_[a], loads_.inflation, probe_);
        if (const auto* hit = app_cache_.find(probe_)) {
            ++stats_.app_cache_hits;
            obs_app_hits_.add();
            // Copied out before the next insert, which may clear the cache.
            apps_[a] = *hit;
            continue;
        }
        ++stats_.app_cache_misses;
        ++stats_.app_solves;
        obs_app_misses_.add();
        obs_app_solves_.add();
        lqn::solve_app(deps_[a], loads_.inflation, lqn_, apps_[a]);
        app_cache_.insert(probe_, apps_[a]);
    }
    return assemble(config, apps_, loads_.utilization);
}

std::vector<steady_utility> serial_evaluator::evaluate_batch(
    const std::vector<cluster::configuration>& configs) {
    std::vector<steady_utility> out;
    out.reserve(configs.size());
    for (const auto& c : configs) out.push_back(evaluate(c));
    return out;
}

seconds serial_evaluator::isolated_response_time(
    std::size_t a, const std::vector<tier_sizing>& tiers) {
    const auto& spec = model_->app(app_id{static_cast<std::int32_t>(a)});
    MISTRAL_CHECK(tiers.size() == spec.tier_count());
    auto& key = isolated_key_.words;
    key.clear();
    key.push_back(a);
    for (const auto& t : tiers) {
        key.push_back(static_cast<std::uint64_t>(t.replicas));
        key.push_back(std::bit_cast<std::uint64_t>(t.cap));
    }
    if (const auto it = isolated_rt_.find(isolated_key_); it != isolated_rt_.end()) {
        return it->second;
    }
    // Every replica alone on a synthetic host: a host's load, and so its
    // inflation, is its one replica's, whichever other apps are sized
    // alongside. Solving the app on hosts of its own is therefore
    // bit-identical to the whole sizing's joint lqn::solve.
    auto& dep = isolated_dep_[0];
    dep.spec = &spec;
    dep.rate = rates_[a];
    dep.tiers.resize(spec.tier_count());
    std::size_t fake_host = 0;
    for (std::size_t t = 0; t < spec.tier_count(); ++t) {
        auto& replicas = dep.tiers[t].replicas;
        replicas.clear();
        for (int r = 0; r < tiers[t].replicas; ++r) {
            replicas.push_back({fake_host++, tiers[t].cap});
        }
    }
    lqn::compute_host_loads(isolated_dep_, fake_host, lqn_, isolated_loads_);
    lqn::solve_app(dep, isolated_loads_.inflation, lqn_, isolated_result_);
    const seconds rt = isolated_result_.mean_response_time;
    ++stats_.isolated_solves;
    isolated_rt_.emplace(isolated_key_, rt);
    return rt;
}

namespace {

// Equal replica counts and equal cap bits in every tier: the isolated
// table's key equality.
bool same_sizing(const std::vector<tier_sizing>& x, const std::vector<tier_sizing>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t t = 0; t < x.size(); ++t) {
        if (x[t].replicas != y[t].replicas ||
            std::bit_cast<std::uint64_t>(x[t].cap) !=
                std::bit_cast<std::uint64_t>(y[t].cap)) {
            return false;
        }
    }
    return true;
}

}  // namespace

isolated_perf serial_evaluator::score_isolated(const app_sizing& s,
                                               const app_sizing* base,
                                               const isolated_perf* base_perf) {
    MISTRAL_CHECK_MSG(!rates_.empty(), "begin_decision() before evaluate_isolated()");
    MISTRAL_CHECK(s.size() == model_->app_count());
    ++stats_.evaluations;
    obs_solves_.add();
    isolated_perf out;
    out.response_times.reserve(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        const seconds rt = base != nullptr && same_sizing(s[a], (*base)[a])
                               ? base_perf->response_times[a]
                               : isolated_response_time(a, s[a]);
        out.response_times.push_back(rt);
        out.perf_rate += utility_.perf_rate(rates_[a], rt, targets_[a]);
        if (rt > targets_[a]) out.meets_all_targets = false;
    }
    return out;
}

isolated_perf serial_evaluator::evaluate_isolated(const app_sizing& s) {
    return score_isolated(s, nullptr, nullptr);
}

std::vector<isolated_perf> serial_evaluator::evaluate_isolated_batch(
    const std::vector<app_sizing>& sizings) {
    // A gradient step's candidates each change one (app, tier) of the base
    // sizing in sizings[0], so every other app reuses the base's result.
    std::vector<isolated_perf> out;
    out.reserve(sizings.size());
    for (const auto& s : sizings) {
        auto perf = out.empty() ? score_isolated(s, nullptr, nullptr)
                                : score_isolated(s, &sizings[0], &out[0]);
        out.push_back(std::move(perf));
    }
    return out;
}

void serial_evaluator::reset_memo() {
    app_cache_.clear();
    isolated_rt_.clear();
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
