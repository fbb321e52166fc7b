#include "core/search_meter.h"

#include <gtest/gtest.h>

namespace mistral::core {
namespace {

TEST(ModelClockMeter, ChargesPerEvaluation) {
    model_clock_meter m;
    m.begin();
    EXPECT_DOUBLE_EQ(m.elapsed(), 0.0);
    for (int i = 0; i < 25; ++i) m.on_expansion();
    EXPECT_DOUBLE_EQ(m.elapsed(), 25 * model_clock_meter::per_expansion);
    EXPECT_DOUBLE_EQ(m.elapsed(), 0.05);
    EXPECT_EQ(m.expansions(), 25u);
}

TEST(ModelClockMeter, BeginResets) {
    model_clock_meter m;
    m.on_expansion();
    m.on_expansion();
    m.begin();
    EXPECT_DOUBLE_EQ(m.elapsed(), 0.0);
    EXPECT_EQ(m.expansions(), 0u);
}

TEST(ModelClockMeter, DefaultPowerMatchesPaperTwelvePercent) {
    // Fig. 10a: the search draws up to 12% over a 60 W idle controller host.
    EXPECT_NEAR(model_clock_meter::search_power / 60.0, 0.12, 0.001);
}

TEST(ModelClockMeter, BatchChargePricesWorkNotCalendar) {
    // A batch charge of 8 evaluations advances the model clock exactly as
    // far as 8 single expansions: the clock prices work, never wall time.
    model_clock_meter batched, single;
    batched.begin();
    single.begin();
    batched.charge(8);
    for (int i = 0; i < 8; ++i) single.on_expansion();
    EXPECT_EQ(batched.elapsed(), single.elapsed());
    EXPECT_EQ(batched.expansions(), 8u);
}

}  // namespace
}  // namespace mistral::core
