#include "cost/table_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/check.h"

namespace mistral::cost {
namespace {

using cluster::action_kind;

TEST(CostTableIo, ParseActionKindRoundTripsAllKinds) {
    for (const auto kind :
         {action_kind::increase_cpu, action_kind::decrease_cpu,
          action_kind::add_replica, action_kind::remove_replica,
          action_kind::migrate, action_kind::power_on, action_kind::power_off}) {
        EXPECT_EQ(parse_action_kind(cluster::to_string(kind)), kind);
    }
    EXPECT_THROW(parse_action_kind("teleport"), invariant_error);
}

TEST(CostTableIo, RoundTripsPaperDefaults) {
    const auto original = cost_table::paper_defaults();
    std::ostringstream out;
    write_cost_table_csv(out, original);
    std::istringstream in(out.str());
    const auto restored = read_cost_table_csv(in);

    // Every lookup the controller could make must agree exactly.
    for (const auto kind : {action_kind::migrate, action_kind::add_replica,
                            action_kind::remove_replica, action_kind::increase_cpu}) {
        for (std::size_t tier = 0; tier < 3; ++tier) {
            if (!original.has(kind, tier)) continue;
            for (double w : {5.0, 30.0, 60.0, 95.0}) {
                const auto a = original.lookup(kind, tier, w);
                const auto b = restored.lookup(kind, tier, w);
                EXPECT_DOUBLE_EQ(a.duration, b.duration);
                EXPECT_DOUBLE_EQ(a.delta_rt_target, b.delta_rt_target);
                EXPECT_DOUBLE_EQ(a.delta_rt_colocated, b.delta_rt_colocated);
                EXPECT_DOUBLE_EQ(a.delta_power, b.delta_power);
            }
        }
    }
    EXPECT_DOUBLE_EQ(original.lookup(action_kind::power_on, 0, 0.0).duration,
                     restored.lookup(action_kind::power_on, 0, 0.0).duration);
}

TEST(CostTableIo, ToleratesCommentsAndHeader) {
    std::istringstream in(
        "kind,tier,workload,duration,delta_rt_target,delta_rt_colocated,delta_power\n"
        "# hand-added entry\n"
        "migrate,2,50,39.5,0.35,0.07,21\n"
        "# blanks around numbers and a CRLF line end\n"
        "add_replica, 1 ,40, 12.5,0.2,0.05,18\r\n");
    const auto t = read_cost_table_csv(in);
    ASSERT_TRUE(t.has(action_kind::migrate, 2));
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::migrate, 2, 50.0).duration, 39.5);
    ASSERT_TRUE(t.has(action_kind::add_replica, 1));
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::add_replica, 1, 40.0).delta_power, 18.0);
}

TEST(CostTableIo, RejectsMalformedRows) {
    std::istringstream short_row("migrate,2,50,39.5\n");
    EXPECT_THROW(read_cost_table_csv(short_row), invariant_error);
    std::istringstream bad_kind("teleport,2,50,1,0,0,0\n");
    EXPECT_THROW(read_cost_table_csv(bad_kind), invariant_error);
    std::istringstream bad_number("migrate,2,50,abc,0,0,0\n");
    EXPECT_THROW(read_cost_table_csv(bad_number), invariant_error);
    std::istringstream negative_duration("migrate,2,50,-1,0,0,0\n");
    EXPECT_THROW(read_cost_table_csv(negative_duration), invariant_error);
    std::istringstream trailing_comma("migrate,2,50,39.5,0.35,0.07,21,\n");
    EXPECT_THROW(read_cost_table_csv(trailing_comma), invariant_error);
}

// The shapes below all parsed before the reader checked its fields whole:
// each must be refused rather than stored.
void expect_refused(const std::string& row) {
    std::istringstream in(row + "\n");
    EXPECT_THROW(read_cost_table_csv(in), invariant_error) << row;
}

TEST(CostTableIo, RejectsNonFiniteDeltas) {
    for (const char* bad : {"nan", "inf", "-inf"}) {
        const std::string v(bad);
        expect_refused("migrate,2,50,39.5," + v + ",0.07,21");
        expect_refused("migrate,2,50,39.5,0.35," + v + ",21");
        expect_refused("migrate,2,50,39.5,0.35,0.07," + v);
    }
}

TEST(CostTableIo, RejectsInfiniteDuration) {
    expect_refused("migrate,2,50,inf,0.35,0.07,21");
}

// An infinite workload key used to poison every lookup near it with NaN.
TEST(CostTableIo, RejectsInfiniteWorkload) {
    expect_refused("migrate,2,inf,39.5,0.35,0.07,21");
}

// std::stoul wrapped "-1" to 2^64 - 1 and stored it as the tier.
TEST(CostTableIo, RejectsNegativeTier) {
    expect_refused("migrate,-1,50,39.5,0.35,0.07,21");
}

TEST(CostTableIo, RejectsPartialFields) {
    expect_refused("migrate,2,50,39.5abc,0.35,0.07,21");
    expect_refused("migrate,2.7,50,39.5,0.35,0.07,21");
    expect_refused("migrate,2,50,39.5,0.35,0.07,21 watts");
}

TEST(CostTableIo, FileRoundTrip) {
    const auto original = cost_table::paper_defaults();
    const std::string path = ::testing::TempDir() + "/mistral_costs.csv";
    save_cost_table_csv(path, original);
    const auto restored = load_cost_table_csv(path);
    EXPECT_DOUBLE_EQ(original.lookup(action_kind::migrate, 2, 50.0).delta_power,
                     restored.lookup(action_kind::migrate, 2, 50.0).delta_power);
    EXPECT_THROW(load_cost_table_csv("/nonexistent/costs.csv"), invariant_error);
}

TEST(CostTableIo, EmptyTableWritesHeaderOnly) {
    std::ostringstream out;
    write_cost_table_csv(out, cost_table{});
    EXPECT_EQ(out.str(),
              "kind,tier,workload,duration,delta_rt_target,delta_rt_colocated,"
              "delta_power\n");
}

}  // namespace
}  // namespace mistral::cost
