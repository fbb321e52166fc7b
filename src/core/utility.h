// The utility model (Section II-B, Equations 1–3, Fig. 3).
//
// All controller decisions reduce to dollars: each application accrues a
// reward R(w) per monitoring interval while it meets its target response
// time and a (negative) penalty P(w) while it misses it (Eq. 1); the cluster
// accrues −pwr·PC_Wh for its power draw (Eq. 2); and an adaptation sequence
// is scored by Eq. 3 — transient accrual at the perturbed rates during each
// action plus steady accrual in the final configuration for the remainder of
// the stability interval.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/units.h"
#include "econ/pricing.h"
#include "econ/tariff.h"

namespace mistral::core {

struct utility_params {
    seconds monitoring_interval = default_monitoring_interval;
    // $ per watt consumed over one monitoring interval (Section V-A: $0.01).
    dollars power_cost_per_watt_interval = default_power_cost_per_watt_interval;
    // Fig. 3: reward grows and |penalty| shrinks linearly with request rate,
    // reflecting the increasingly "best-effort" nature of heavy load. Values
    // are $ per monitoring interval. The defaults are sized like the paper's:
    // "rewards were chosen so as to yield a 20% net profit over the power
    // costs incurred in the default configuration, and then scaled according
    // to the workload".
    dollars reward_lo = 0.4;     // reward at rate 0
    dollars reward_hi = 5.0;     // reward at max_rate
    dollars penalty_lo = -3.5;   // penalty at rate 0
    dollars penalty_hi = -0.3;   // penalty at max_rate
    req_per_sec max_rate = 100.0;
    // Scales the power term; baselines that ignore power set it to 0.
    double power_weight = 1.0;
    // Safety margin applied to response-time targets on the *prediction*
    // side: controllers plan against rt_margin · TRT so that model error and
    // measurement noise do not flip a just-meeting configuration into a
    // penalty. Measured utility (interval_utility) always uses the real
    // target — this only shapes what the optimizer aims for.
    double rt_margin = 0.85;
};

// The economics layer a controller can bind on top of utility_params: a
// time-of-use tariff (price + carbon intensity), a revenue model, an optional
// carbon price, and an optional power-cap schedule. Disabled (the default)
// means the binding never happens and every utility expression is the
// original paper arithmetic. With `enabled` and all-default members the
// bound model is *bit-identical* to the unbound one: the flat tariff equals
// default_power_cost_per_watt_interval, carbon contributes nothing, and flat
// pricing takes the exact Eq. 1 code path — proven by ctest -L econ.
struct econ_profile {
    bool enabled = false;
    econ::tariff_schedule tariff{};
    econ::pricing_options pricing{};
    // $ per kg of CO2; > 0 adds a carbon term to power_rate using the
    // tariff's carbon-intensity series (gCO2/Wh).
    dollars carbon_price_per_kg = 0.0;
    // Cluster power cap in watts over time; the controller applies it each
    // step on top of search_options::power_cap terminal legality (stepped
    // cap emergencies, CloudPowerCap-style).
    std::optional<econ::step_series> power_cap_schedule{};
};

// The tariff factors in force at the controller's current timestamp. One
// struct shared (via utility_model copies) by the controller, both searches,
// the lookahead planner, and the evaluators, so a single update_econ() call
// re-prices every layer coherently.
struct econ_factors {
    dollars power_price = default_power_cost_per_watt_interval;  // $/W·interval
    double carbon_intensity = 0.0;                               // gCO2/Wh
    // The carbon term pre-folded to the power-price unit: intensity ·
    // (M/3600 h) · price_per_gram. Zero unless carbon_price_per_kg > 0.
    dollars carbon_dollars_per_watt_interval = 0.0;
    bool performance_based = false;
    double pbp_grace = 1.5;
};

class utility_model {
public:
    explicit utility_model(utility_params params = {});

    [[nodiscard]] const utility_params& params() const { return params_; }

    // R(w) and P(w), $ per monitoring interval (Fig. 3, clamped at max_rate).
    [[nodiscard]] dollars reward(req_per_sec rate) const;
    [[nodiscard]] dollars penalty(req_per_sec rate) const;

    // Eq. 1 as an accrual *rate* in $/s: (R or P)(w) / M.
    [[nodiscard]] double perf_rate(req_per_sec rate, seconds response_time,
                                   seconds target) const;

    // The tightened target the predictors plan against (rt_margin · TRT).
    [[nodiscard]] seconds planning_target(seconds target) const {
        return params_.rt_margin * target;
    }

    // Eq. 2 as an accrual rate in $/s: −pwr · PC / M (≤ 0).
    [[nodiscard]] double power_rate(watts power) const;

    // Combined steady accrual rate for a system state: Σ_s perf + power.
    [[nodiscard]] double steady_rate(std::span<const req_per_sec> rates,
                                     std::span<const seconds> response_times,
                                     std::span<const seconds> targets,
                                     watts power) const;

    // Eq. 1 + Eq. 2 evaluated over one whole monitoring interval, in $ — the
    // "measured utility" the experiment harness accumulates (Fig. 9).
    [[nodiscard]] dollars interval_utility(std::span<const req_per_sec> rates,
                                           std::span<const seconds> response_times,
                                           std::span<const seconds> targets,
                                           watts mean_power) const;

    // --- Economics binding -------------------------------------------------
    //
    // bind_econ attaches a shared econ state; *copies of a bound model share
    // it* (shared_ptr semantics), which is how the controller keeps its own
    // model, the searches' models, and the evaluators' models priced
    // identically. update_econ re-indexes the tariff at `now` and returns
    // true when any factor changed (the controller's tariff_change trigger).
    // An unbound model's update_econ is a no-op returning false, and it
    // behaves exactly as before this layer existed.
    void bind_econ(const econ_profile& profile);
    bool update_econ(seconds now);
    [[nodiscard]] bool econ_bound() const { return econ_ != nullptr; }
    [[nodiscard]] const econ_factors& econ_now() const;
    [[nodiscard]] const econ_profile& econ_profile_ref() const;

private:
    struct econ_state {
        econ_profile profile;
        econ_factors factors;
    };

    [[nodiscard]] dollars pbp_revenue(req_per_sec rate, seconds response_time,
                                      seconds target) const;

    utility_params params_;
    std::shared_ptr<econ_state> econ_;
};

}  // namespace mistral::core
