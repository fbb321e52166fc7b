#include "core/utility.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mistral::core {

utility_model::utility_model(utility_params params) : params_(params) {
    MISTRAL_CHECK(params_.monitoring_interval > 0.0);
    MISTRAL_CHECK(std::isfinite(params_.monitoring_interval));
    MISTRAL_CHECK(params_.max_rate > 0.0);
    MISTRAL_CHECK(std::isfinite(params_.max_rate));
    MISTRAL_CHECK(std::isfinite(params_.reward_lo) && std::isfinite(params_.reward_hi));
    MISTRAL_CHECK(std::isfinite(params_.penalty_lo) && std::isfinite(params_.penalty_hi));
    MISTRAL_CHECK(params_.reward_hi >= params_.reward_lo);
    MISTRAL_CHECK(params_.penalty_hi >= params_.penalty_lo);
    MISTRAL_CHECK(params_.penalty_hi <= 0.0);
    MISTRAL_CHECK(std::isfinite(params_.power_cost_per_watt_interval));
    MISTRAL_CHECK(params_.power_cost_per_watt_interval >= 0.0);
    MISTRAL_CHECK(std::isfinite(params_.power_weight));
    MISTRAL_CHECK(params_.power_weight >= 0.0);
    MISTRAL_CHECK(std::isfinite(params_.rt_margin));
    MISTRAL_CHECK(params_.rt_margin > 0.0);
}

dollars utility_model::reward(req_per_sec rate) const {
    const double x = std::clamp(rate / params_.max_rate, 0.0, 1.0);
    return params_.reward_lo + (params_.reward_hi - params_.reward_lo) * x;
}

dollars utility_model::penalty(req_per_sec rate) const {
    const double x = std::clamp(rate / params_.max_rate, 0.0, 1.0);
    return params_.penalty_lo + (params_.penalty_hi - params_.penalty_lo) * x;
}

double utility_model::perf_rate(req_per_sec rate, seconds response_time,
                                seconds target) const {
    if (econ_ == nullptr || !econ_->factors.performance_based) {
        // The paper's Eq. 1 cliff — also the flat-pricing econ path, so a
        // flat-econ run computes revenue through the exact same expressions.
        const dollars per_interval =
            response_time <= target ? reward(rate) : penalty(rate);
        return per_interval / params_.monitoring_interval;
    }
    return pbp_revenue(rate, response_time, target) / params_.monitoring_interval;
}

dollars utility_model::pbp_revenue(req_per_sec rate, seconds response_time,
                                   seconds target) const {
    // Continuous revenue: full reward at rt <= target, linearly degrading to
    // the full penalty at rt >= grace·target. Continuity in rt keeps the
    // search landscape smooth near the target instead of cliff-edged.
    const double grace = econ_->factors.pbp_grace;
    double x;
    if (target > 0.0) {
        x = std::clamp((response_time - target) / ((grace - 1.0) * target), 0.0, 1.0);
    } else {
        // Degenerate target: fall back to the cliff semantics.
        x = response_time <= target ? 0.0 : 1.0;
    }
    return reward(rate) + (penalty(rate) - reward(rate)) * x;
}

double utility_model::power_rate(watts power) const {
    MISTRAL_CHECK(power >= 0.0);
    if (econ_ == nullptr) {
        return -params_.power_weight * power * params_.power_cost_per_watt_interval /
               params_.monitoring_interval;
    }
    // Same expression shape with the time-indexed price substituted: when the
    // tariff is flat at the default price this is bit-identical to the branch
    // above. The carbon term only perturbs the sum when a carbon price is
    // actually configured.
    const econ_factors& f = econ_->factors;
    double rate = -params_.power_weight * power * f.power_price /
                  params_.monitoring_interval;
    if (f.carbon_dollars_per_watt_interval != 0.0) {
        rate += -params_.power_weight * power * f.carbon_dollars_per_watt_interval /
                params_.monitoring_interval;
    }
    return rate;
}

double utility_model::steady_rate(std::span<const req_per_sec> rates,
                                  std::span<const seconds> response_times,
                                  std::span<const seconds> targets,
                                  watts power) const {
    MISTRAL_CHECK(rates.size() == response_times.size());
    MISTRAL_CHECK(rates.size() == targets.size());
    double rate = power_rate(power);
    for (std::size_t s = 0; s < rates.size(); ++s) {
        rate += perf_rate(rates[s], response_times[s], targets[s]);
    }
    return rate;
}

dollars utility_model::interval_utility(std::span<const req_per_sec> rates,
                                        std::span<const seconds> response_times,
                                        std::span<const seconds> targets,
                                        watts mean_power) const {
    return steady_rate(rates, response_times, targets, mean_power) *
           params_.monitoring_interval;
}

void utility_model::bind_econ(const econ_profile& profile) {
    MISTRAL_CHECK_MSG(profile.enabled, "binding a disabled econ profile");
    MISTRAL_CHECK_MSG(econ_ == nullptr, "econ profile already bound");
    econ::validate(profile.pricing);
    MISTRAL_CHECK(std::isfinite(profile.carbon_price_per_kg));
    MISTRAL_CHECK(profile.carbon_price_per_kg >= 0.0);
    if (profile.power_cap_schedule) {
        for (const auto& p : profile.power_cap_schedule->points()) {
            MISTRAL_CHECK_MSG(p.value > 0.0, "power caps must be positive watts");
        }
    }
    econ_ = std::make_shared<econ_state>();
    econ_->profile = profile;
    econ_->factors.performance_based =
        profile.pricing.kind == econ::pricing_kind::performance_based;
    econ_->factors.pbp_grace = profile.pricing.grace;
    // Index the tariff at t=0 so factors are coherent even before the first
    // update_econ; the controller re-indexes at its first step's timestamp.
    update_econ(0.0);
}

bool utility_model::update_econ(seconds now) {
    if (econ_ == nullptr) return false;
    const dollars price = econ_->profile.tariff.price_at(now);
    const double carbon = econ_->profile.tariff.carbon_at(now);
    econ_factors& f = econ_->factors;
    if (price == f.power_price && carbon == f.carbon_intensity) return false;
    f.power_price = price;
    f.carbon_intensity = carbon;
    // gCO2/Wh · (M/3600) h · $/g — the dollars one watt-interval of draw
    // emits, priced at carbon_price_per_kg / 1000 per gram.
    f.carbon_dollars_per_watt_interval =
        econ_->profile.carbon_price_per_kg <= 0.0
            ? 0.0
            : carbon * (params_.monitoring_interval / 3600.0) *
                  (econ_->profile.carbon_price_per_kg / 1000.0);
    return true;
}

const econ_factors& utility_model::econ_now() const {
    MISTRAL_CHECK_MSG(econ_ != nullptr, "no econ profile bound");
    return econ_->factors;
}

const econ_profile& utility_model::econ_profile_ref() const {
    MISTRAL_CHECK_MSG(econ_ != nullptr, "no econ profile bound");
    return econ_->profile;
}

}  // namespace mistral::core
