#include "obs/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/json.h"

namespace mistral::obs {
namespace {

TEST(Json, FormatNumberRoundTrips) {
    const double values[] = {0.0,   1.0,    -1.0,       0.1,  1.0 / 3.0,
                             1e300, 1e-300, 1234.56789, -0.25};
    for (const double v : values) {
        const std::string s = format_number(v);
        EXPECT_EQ(json::value::parse(s).as_number(), v) << s;
    }
    EXPECT_EQ(format_number(5.0), "5");
    EXPECT_EQ(format_number(0.25), "0.25");
}

TEST(Json, NonFiniteNumbersEmitQuotedMarkers) {
    EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()),
              "\"nan\"");
    EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()),
              "\"inf\"");
    EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()),
              "\"-inf\"");
    // They stay parseable — as strings, since JSON has no non-finite numbers.
    EXPECT_EQ(json::value::parse("\"nan\"").as_text(), "nan");
}

TEST(Json, QuoteEscapes) {
    EXPECT_EQ(quote("plain"), "\"plain\"");
    EXPECT_EQ(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(json::value::parse(quote("a\"b\\c\n")).as_text(), "a\"b\\c\n");
}

TEST(Json, ParserCoversJournalSubset) {
    const auto v = json::value::parse(
        R"({"type":"x","t":1.5,"n":null,"b":true,"list":[1,2.5,-3],"s":"hi","o":{"k":"v"}})");
    EXPECT_EQ(v.find("type")->as_text(), "x");
    EXPECT_EQ(v.find("t")->as_number(), 1.5);
    EXPECT_TRUE(v.find("n")->is_null());
    EXPECT_TRUE(v.find("b")->as_bool());
    const auto& list = v.find("list")->items();
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[1].as_number(), 2.5);
    EXPECT_EQ(list[2].as_number(), -3.0);
    EXPECT_EQ(v.find("o")->find("k")->as_text(), "v");
    EXPECT_EQ(v.find("absent"), nullptr);
    // Member order is preserved, so dump() is the identity on parsed text.
    EXPECT_EQ(v.members().front().first, "type");
}

TEST(Json, MalformedInputThrows) {
    EXPECT_THROW(json::value::parse(""), invariant_error);
    EXPECT_THROW(json::value::parse("{"), invariant_error);
    EXPECT_THROW(json::value::parse("{\"a\":1,}"), invariant_error);
    EXPECT_THROW(json::value::parse("[1 2]"), invariant_error);
    EXPECT_THROW(json::value::parse("tru"), invariant_error);
    EXPECT_THROW(json::value::parse("{} trailing"), invariant_error);
}

// Each nesting level is one recursive call, so depth is bounded before the
// stack is: 64 levels of arrays or objects parse, the 65th and a
// 100,000-bracket run throw.
TEST(Json, NestingDepthIsBounded) {
    const auto nested = [](std::size_t depth, const std::string& open,
                           const std::string& close) {
        std::string s;
        for (std::size_t i = 0; i < depth; ++i) s += open;
        s += '1';
        for (std::size_t i = 0; i < depth; ++i) s += close;
        return s;
    };
    EXPECT_NO_THROW((void)json::value::parse(nested(64, "[", "]")));
    EXPECT_THROW((void)json::value::parse(nested(65, "[", "]")), invariant_error);
    EXPECT_NO_THROW((void)json::value::parse(nested(64, "{\"k\":", "}")));
    EXPECT_THROW((void)json::value::parse(nested(65, "{\"k\":", "}")),
                 invariant_error);
    EXPECT_THROW((void)json::value::parse(std::string(100000, '[')),
                 invariant_error);
}

// The tentpole round-trip contract: emit → parse → compare field-for-field,
// and re-dumping the parsed value reproduces the emitted line byte-for-byte.
TEST(Journal, EventRoundTripsThroughJsonl) {
    event e("decision", 321.0625);
    e.text("trigger", "band")
        .boolean("invoked", true)
        .boolean("pruned", false)
        .num("cw", 300.5)
        .num("expected_utility", -12.25)
        .integer("expansions", 842)
        .num_list("depth_time", {0.0, 0.125, 2.5})
        .text_list("actions", {"migrate vm1 -> host2", "power_off \"h3\""});

    const std::string line = to_json_line(e);
    const auto v = json::value::parse(line);

    EXPECT_EQ(v.find("type")->as_text(), "decision");
    EXPECT_EQ(v.find("t")->as_number(), 321.0625);
    EXPECT_EQ(v.find("trigger")->as_text(), "band");
    EXPECT_TRUE(v.find("invoked")->as_bool());
    EXPECT_FALSE(v.find("pruned")->as_bool());
    EXPECT_EQ(v.find("cw")->as_number(), 300.5);
    EXPECT_EQ(v.find("expected_utility")->as_number(), -12.25);
    EXPECT_EQ(v.find("expansions")->as_number(), 842.0);
    const auto& depth = v.find("depth_time")->items();
    ASSERT_EQ(depth.size(), 3u);
    EXPECT_EQ(depth[0].as_number(), 0.0);
    EXPECT_EQ(depth[1].as_number(), 0.125);
    EXPECT_EQ(depth[2].as_number(), 2.5);
    const auto& acts = v.find("actions")->items();
    ASSERT_EQ(acts.size(), 2u);
    EXPECT_EQ(acts[0].as_text(), "migrate vm1 -> host2");
    EXPECT_EQ(acts[1].as_text(), "power_off \"h3\"");

    // String identity: parse ∘ dump is the identity on journal lines.
    EXPECT_EQ(v.dump(), line);
}

// The degraded-mode event types carry a fixed field order; journal readers
// may rely on it, so each is pinned by the same parse ∘ dump identity.
TEST(Journal, DegradedModeEventsRoundTripWithFixedFieldOrder) {
    event fault("telemetry_fault", 120.0);
    fault.integer("app", 1).text("kind", "spike");

    event ladder("ladder_transition", 240.0);
    ladder.text("direction", "demote")
        .text("from", "full")
        .text("to", "greedy")
        .text("reason", "telemetry_garbage");

    event divergence("predictor_divergence", 360.0);
    divergence.integer("app", 0)
        .boolean("trusted", false)
        .num("drift", 6.5)
        .integer("reestimation_attempts", 1)
        .boolean("reestimation_active", true);

    for (const event* e : {&fault, &ladder, &divergence}) {
        const std::string line = to_json_line(*e);
        const auto v = json::value::parse(line);
        EXPECT_EQ(v.find("type")->as_text(), e->type);
        EXPECT_EQ(v.dump(), line) << line;
    }
    // Spot-check field order survives the trip.
    const auto v = json::value::parse(to_json_line(ladder));
    ASSERT_EQ(v.members().size(), 6u);
    EXPECT_EQ(v.members()[2].first, "direction");
    EXPECT_EQ(v.members()[3].first, "from");
    EXPECT_EQ(v.members()[4].first, "to");
    EXPECT_EQ(v.members()[5].first, "reason");
}

// The lookahead planner's event: fixed field order (horizon, commit,
// preprovision, total_value, step_utilities, searches, first_duration,
// total_duration), pinned by the parse ∘ dump identity like every other type.
TEST(Journal, LookaheadEventRoundTripsWithFixedFieldOrder) {
    event e("lookahead", 480.0);
    e.integer("horizon", 3)
        .text("commit", "preprovision")
        .boolean("preprovision", true)
        .num("total_value", 6120.5)
        .num_list("step_utilities", {2100.25, 2010.0, 2010.25})
        .integer("searches", 5)
        .num("first_duration", 1.75)
        .num("total_duration", 4.5);

    const std::string line = to_json_line(e);
    const auto v = json::value::parse(line);
    EXPECT_EQ(v.find("type")->as_text(), "lookahead");
    EXPECT_EQ(v.find("horizon")->as_number(), 3.0);
    EXPECT_EQ(v.find("commit")->as_text(), "preprovision");
    EXPECT_TRUE(v.find("preprovision")->as_bool());
    EXPECT_EQ(v.find("total_value")->as_number(), 6120.5);
    ASSERT_EQ(v.find("step_utilities")->items().size(), 3u);
    EXPECT_EQ(v.find("step_utilities")->items()[2].as_number(), 2010.25);
    EXPECT_EQ(v.find("searches")->as_number(), 5.0);
    EXPECT_EQ(v.find("first_duration")->as_number(), 1.75);
    EXPECT_EQ(v.find("total_duration")->as_number(), 4.5);
    EXPECT_EQ(v.dump(), line);

    const auto& m = v.members();
    ASSERT_EQ(m.size(), 10u);
    const char* expected[] = {"type",        "t",
                              "horizon",     "commit",
                              "preprovision", "total_value",
                              "step_utilities", "searches",
                              "first_duration", "total_duration"};
    for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_EQ(m[i].first, expected[i]) << "position " << i;
    }
}

// A representative sample of every event type an emitter produces. A new
// event type must be added to known_event_types() *and* here, or the
// coverage test below fails — event schemas cannot ship untested.
std::vector<event> event_samples() {
    std::vector<event> samples;
    auto add = [&samples](const char* type) -> event& {
        samples.emplace_back(type, 100.0);
        return samples.back();
    };
    add("action_start").integer("id", 1).text("action", "migrate vm0 -> h1");
    add("action_finish").integer("id", 1).num("duration", 22.5);
    add("action_fail").integer("id", 2).text("action", "power_on h3")
        .text("reason", "host_crash");
    add("checkpoint").integer("version", 1).integer("intervals", 8)
        .integer("bytes", 4096);
    add("decision").text("trigger", "band").boolean("invoked", true)
        .boolean("pruned", false).num("cw", 300.0)
        .num("expected_utility", 15.5).integer("expansions", 64);
    add("econ_decision").num("price", 0.012).num("carbon_intensity", 450.0)
        .num("carbon_dollars_per_watt_interval", 0.0005)
        .boolean("performance_based", false).num("power_cap", 1200.0)
        .num("expected_utility", 14.25);
    add("failsafe_decision").integer("pod", 2).text("reason", "crash")
        .integer("repair_actions", 0).boolean("held", true);
    add("host_crash").integer("host", 3);
    add("host_recover").integer("host", 3);
    add("interval").num("rate", 42.5).num("power", 910.0);
    add("ladder_transition").text("direction", "demote").text("from", "full")
        .text("to", "greedy").text("reason", "deadline");
    add("lookahead").integer("horizon", 3).text("commit", "reactive")
        .boolean("preprovision", false).num("total_value", 123.0)
        .num_list("step_utilities", {41.0, 41.0, 41.0}).integer("searches", 4)
        .num("first_duration", 0.5).num("total_duration", 1.25);
    add("migration_abort").integer("app", 1).integer("from", 0)
        .integer("to", 2).text("reason", "timeout").integer("vms", 3);
    add("pod_budget").integer("pod", 0).num("power_budget", 1200.0);
    add("pod_decision").integer("pod", 1).boolean("invoked", true);
    add("pod_migration").integer("vm", 7).integer("from_pod", 0)
        .integer("to_pod", 1);
    add("pod_quarantine").integer("pod", 1).text("action", "enter")
        .text("reason", "crash").integer("clean", 0);
    add("pod_reconcile").integer("pods", 4).num("total_power", 3600.0);
    add("predictor_divergence").integer("app", 0).boolean("trusted", false)
        .num("drift", 6.5);
    add("region_decision").num_list("pod_prices", {0.01, 0.03})
        .num("budget_watts", 900.0).integer("brokered_moves", 1);
    add("restart").integer("replayed", 5).num("checkpoint_t", 3600.0);
    add("search").integer("expansions", 128).num("duration", 0.25)
        .boolean("pruned", false);
    add("tariff_change").num("price", 0.018).num("carbon_intensity", 300.0)
        .num("prev_price", 0.012).num("prev_carbon_intensity", 450.0);
    add("telemetry_fault").integer("app", 1).text("kind", "spike");
    return samples;
}

// Registry coverage: every known event type has a round-trip sample, and no
// sample covers an unregistered type. Adding an emitter without extending
// both the registry and the samples breaks this test by construction.
TEST(Journal, EveryKnownEventTypeHasARoundTripSample) {
    const auto& registry = known_event_types();
    // Registry is sorted and duplicate-free (it doubles as documentation).
    for (std::size_t i = 1; i < registry.size(); ++i) {
        EXPECT_LT(registry[i - 1], registry[i]);
    }

    std::vector<std::string> covered;
    for (const auto& e : event_samples()) {
        const std::string line = to_json_line(e);
        const auto v = json::value::parse(line);
        EXPECT_EQ(v.find("type")->as_text(), e.type);
        EXPECT_EQ(v.dump(), line) << line;
        covered.push_back(e.type);
    }
    std::sort(covered.begin(), covered.end());
    covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
    EXPECT_EQ(covered, registry)
        << "known_event_types() and event_samples() must cover the same set";
}

TEST(Journal, EventFindReturnsTypedFields) {
    event e("x", 0.0);
    e.num("a", 1.5).integer("b", 7);
    ASSERT_NE(e.find("a"), nullptr);
    EXPECT_EQ(e.find("a")->num, 1.5);
    EXPECT_EQ(e.find("b")->integer, 7);
    EXPECT_EQ(e.find("zzz"), nullptr);
}

TEST(Journal, NullSinkAndGuards) {
    null_sink off;
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(off.metrics(), nullptr);
    EXPECT_FALSE(journaling(nullptr));
    EXPECT_FALSE(journaling(&off));
    EXPECT_EQ(metrics_of(nullptr), nullptr);
    EXPECT_EQ(metrics_of(&off), nullptr);

    memory_sink on;
    EXPECT_TRUE(journaling(&on));
    metrics_registry reg;
    memory_sink with_metrics(&reg);
    EXPECT_EQ(metrics_of(&with_metrics), &reg);
}

TEST(Journal, JsonlSinkWritesOneLinePerEvent) {
    std::ostringstream out;
    jsonl_sink sink(out);
    sink.record(event("a", 1.0));
    event b("b", 2.0);
    b.integer("n", 3);
    sink.record(b);
    EXPECT_EQ(out.str(),
              "{\"type\":\"a\",\"t\":1}\n"
              "{\"type\":\"b\",\"t\":2,\"n\":3}\n");
}

TEST(Journal, MemorySinkRetainsAndCounts) {
    memory_sink sink;
    sink.record(event("a", 1.0));
    sink.record(event("b", 2.0));
    sink.record(event("a", 3.0));
    EXPECT_EQ(sink.events().size(), 3u);
    EXPECT_EQ(sink.count("a"), 2u);
    EXPECT_EQ(sink.count("b"), 1u);
    EXPECT_EQ(sink.count("c"), 0u);
    sink.clear();
    EXPECT_EQ(sink.events().size(), 0u);
}

}  // namespace
}  // namespace mistral::obs
