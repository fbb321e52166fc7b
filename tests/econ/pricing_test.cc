#include "econ/pricing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "core/utility.h"

namespace mistral::econ {
namespace {

core::utility_model bound_model(pricing_options pricing,
                                core::utility_params params = {}) {
    core::econ_profile profile;
    profile.enabled = true;
    profile.pricing = pricing;
    core::utility_model u{params};
    u.bind_econ(profile);
    return u;
}

TEST(Pricing, ValidateAcceptsFlatAndSanePbp) {
    validate(pricing_options{});
    validate(pricing_options{pricing_kind::performance_based, 2.0});
    // Flat ignores grace entirely.
    validate(pricing_options{pricing_kind::flat, -7.0});
}

TEST(Pricing, ValidateRejectsDegenerateGrace) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(validate({pricing_kind::performance_based, 1.0}),
                 invariant_error);
    EXPECT_THROW(validate({pricing_kind::performance_based, 0.5}),
                 invariant_error);
    EXPECT_THROW(validate({pricing_kind::performance_based, inf}),
                 invariant_error);
    EXPECT_THROW(validate({pricing_kind::performance_based, nan}),
                 invariant_error);
}

TEST(Pricing, FlatEconPathIsBitIdenticalToTheUnboundModel) {
    // The differential at the unit level: a flat-pricing flat-tariff bound
    // model computes perf_rate/power_rate through the exact original
    // expressions, so the doubles are equal bit for bit, not just close.
    const core::utility_model plain;
    core::econ_profile profile;
    profile.enabled = true;  // all other members default = flat everything
    core::utility_model econ;
    econ.bind_econ(profile);

    rng r(0xECD1FFULL);
    for (int i = 0; i < 2000; ++i) {
        const double rate = r.uniform(0.0, 120.0);
        const double target = r.uniform(0.05, 1.0);
        const double rt = target * r.uniform(0.25, 2.5);
        const double power = r.uniform(0.0, 3000.0);
        EXPECT_EQ(plain.perf_rate(rate, rt, target),
                  econ.perf_rate(rate, rt, target));
        EXPECT_EQ(plain.power_rate(power), econ.power_rate(power));
        const std::vector<req_per_sec> rates = {rate};
        const std::vector<seconds> rts = {rt};
        const std::vector<seconds> targets = {target};
        EXPECT_EQ(plain.interval_utility(rates, rts, targets, power),
                  econ.interval_utility(rates, rts, targets, power));
    }
}

TEST(Pricing, PbpPaysFullRewardAtTargetAndFullPenaltyAtGrace) {
    auto u = bound_model({pricing_kind::performance_based, 1.5});
    const double M = u.params().monitoring_interval;
    const double rate = 50.0;
    const double target = 0.4;
    EXPECT_DOUBLE_EQ(u.perf_rate(rate, 0.1, target), u.reward(rate) / M);
    EXPECT_DOUBLE_EQ(u.perf_rate(rate, target, target), u.reward(rate) / M);
    EXPECT_DOUBLE_EQ(u.perf_rate(rate, 1.5 * target, target),
                     u.penalty(rate) / M);
    EXPECT_DOUBLE_EQ(u.perf_rate(rate, 10.0 * target, target),
                     u.penalty(rate) / M);
    // Halfway through the grace window: exactly the midpoint.
    EXPECT_NEAR(u.perf_rate(rate, 1.25 * target, target),
                0.5 * (u.reward(rate) + u.penalty(rate)) / M, 1e-12);
}

TEST(Pricing, PbpIsContinuousAndMonotoneInResponseTime) {
    auto u = bound_model({pricing_kind::performance_based, 2.0});
    const double rate = 60.0;
    const double target = 0.4;
    double prev = u.perf_rate(rate, 0.0, target);
    for (double rt = 0.0; rt <= 1.2; rt += 1e-3) {
        const double v = u.perf_rate(rate, rt, target);
        EXPECT_LE(v, prev + 1e-12) << "rt " << rt;  // non-increasing
        EXPECT_LE(std::abs(v - prev), 5e-2) << "rt " << rt;  // no cliffs
        prev = v;
    }
    const double M = u.params().monitoring_interval;
    EXPECT_DOUBLE_EQ(prev, u.penalty(rate) / M);
}

TEST(Pricing, PbpRevenueStaysBetweenPenaltyAndReward) {
    auto u = bound_model({pricing_kind::performance_based, 1.2});
    const double M = u.params().monitoring_interval;
    rng r(0x9b9ULL);
    for (int i = 0; i < 2000; ++i) {
        const double rate = r.uniform(0.0, 150.0);
        const double target = r.uniform(0.01, 2.0);
        const double rt = r.uniform(0.0, 5.0);
        const double v = u.perf_rate(rate, rt, target) * M;
        EXPECT_GE(v, u.penalty(rate) - 1e-12);
        EXPECT_LE(v, u.reward(rate) + 1e-12);
    }
}

TEST(Pricing, PbpDegenerateTargetFallsBackToTheCliff) {
    auto u = bound_model({pricing_kind::performance_based, 1.5});
    const core::utility_model plain;
    EXPECT_EQ(u.perf_rate(50.0, 0.0, 0.0), plain.perf_rate(50.0, 0.0, 0.0));
    EXPECT_EQ(u.perf_rate(50.0, 0.3, 0.0), plain.perf_rate(50.0, 0.3, 0.0));
}

TEST(Pricing, BindEconRejectsMisuse) {
    core::utility_model u;
    core::econ_profile off;  // enabled = false
    EXPECT_THROW(u.bind_econ(off), invariant_error);

    core::econ_profile bad_pricing;
    bad_pricing.enabled = true;
    bad_pricing.pricing = {pricing_kind::performance_based, 1.0};
    EXPECT_THROW(u.bind_econ(bad_pricing), invariant_error);

    core::econ_profile bad_carbon;
    bad_carbon.enabled = true;
    bad_carbon.carbon_price_per_kg = -1.0;
    EXPECT_THROW(u.bind_econ(bad_carbon), invariant_error);

    core::econ_profile bad_cap;
    bad_cap.enabled = true;
    bad_cap.power_cap_schedule = step_series::constant(0.0);
    EXPECT_THROW(u.bind_econ(bad_cap), invariant_error);

    core::econ_profile ok;
    ok.enabled = true;
    u.bind_econ(ok);
    EXPECT_THROW(u.bind_econ(ok), invariant_error);  // double bind
}

TEST(Pricing, CarbonPriceAddsToThePowerRate) {
    core::econ_profile profile;
    profile.enabled = true;
    profile.tariff.carbon = step_series::constant(450.0);  // gCO2/Wh
    profile.carbon_price_per_kg = 0.05;
    core::utility_model u;
    u.bind_econ(profile);
    const core::utility_model plain;
    // 450 g/Wh · (120 s / 3600 s) h · $0.05/kg / 1000 = $7.5e-4 per W·interval.
    const double M = u.params().monitoring_interval;
    const double carbon_term = 450.0 * (M / 3600.0) * (0.05 / 1000.0);
    EXPECT_NEAR(u.power_rate(100.0),
                plain.power_rate(100.0) - 100.0 * carbon_term / M, 1e-15);
    EXPECT_LT(u.power_rate(100.0), plain.power_rate(100.0));
}

TEST(Pricing, UpdateEconTracksTheTariffAndReportsChanges) {
    core::econ_profile profile;
    profile.enabled = true;
    profile.tariff.price =
        step_series({{0.0, 0.01}, {100.0, 0.03}}, 200.0);
    core::utility_model u;
    u.bind_econ(profile);
    EXPECT_FALSE(u.update_econ(50.0));  // same block: no change
    EXPECT_EQ(u.econ_now().power_price, 0.01);
    EXPECT_TRUE(u.update_econ(150.0));  // crossed into the expensive block
    EXPECT_EQ(u.econ_now().power_price, 0.03);
    EXPECT_FALSE(u.update_econ(180.0));
    EXPECT_TRUE(u.update_econ(250.0));  // wrapped back to the cheap block
    EXPECT_EQ(u.econ_now().power_price, 0.01);

    // Copies share the binding: re-pricing one re-prices the other, and the
    // copy sees no further change to report.
    core::utility_model copy = u;
    EXPECT_TRUE(u.update_econ(150.0));
    EXPECT_EQ(copy.econ_now().power_price, 0.03);
    EXPECT_FALSE(copy.update_econ(150.0));
}

TEST(Pricing, UnboundModelReportsNoEconBinding) {
    core::utility_model u;
    EXPECT_FALSE(u.econ_bound());
    EXPECT_FALSE(u.update_econ(100.0));
    EXPECT_THROW(u.econ_now(), invariant_error);
}

}  // namespace
}  // namespace mistral::econ
