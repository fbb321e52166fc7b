// core/snapshot.h: the codecs round-trip *exactly* (bit-equal doubles, not
// tolerances), version mismatches are refused, and importing an exported
// coordinator state reproduces the exact decision stream.
#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "apps/rubis.h"
#include "common/check.h"
#include "core/experiment.h"
#include "workload/generators.h"

#include "snapshot_golden.h"

namespace mistral::core {
namespace {

cluster::cluster_model two_app_model(std::size_t hosts) {
    std::vector<apps::application_spec> specs;
    specs.push_back(apps::rubis_browsing("A"));
    specs.push_back(apps::rubis_browsing("B"));
    return cluster::cluster_model(cluster::uniform_hosts(hosts),
                                  std::move(specs));
}

TEST(SnapshotCodec, EveryActionKindRoundTrips) {
    const std::vector<cluster::action> all = {
        cluster::increase_cpu{vm_id{3}},
        cluster::decrease_cpu{vm_id{1}},
        cluster::add_replica{vm_id{2}, host_id{4}, 0.35},
        cluster::remove_replica{vm_id{5}},
        cluster::migrate{vm_id{0}, host_id{3}},
        cluster::power_on{host_id{2}},
        cluster::power_off{host_id{1}},
    };
    for (const auto& a : all) {
        const auto back = action_from_json(to_json(a));
        EXPECT_EQ(back, a) << to_json(a);
    }
}

TEST(SnapshotCodec, ConfigurationRoundTripsExactlyIncludingFailureMarks) {
    const auto model = two_app_model(4);
    cluster::configuration c(model.vm_count(), model.host_count());
    c.set_host_power(host_id{0}, true);
    c.set_host_power(host_id{1}, true);
    c.set_host_power(host_id{3}, true);
    c.deploy(vm_id{0}, host_id{0}, 0.381);  // milli-exact caps
    c.deploy(vm_id{1}, host_id{1}, 0.2);
    c.deploy(vm_id{2}, host_id{3}, 0.555);
    c.set_host_failed(host_id{2}, true);

    const auto back = configuration_from_json(to_json(c));
    EXPECT_EQ(back, c);
    // Equality covers placements/power/failure; the incremental hash is
    // derived state and must land on the same value too.
    EXPECT_EQ(back.hash(), c.hash());
    // And serialization is deterministic: same state, same bytes.
    EXPECT_EQ(to_json(back), to_json(c));
}

TEST(SnapshotCodec, DecisionInputRoundTripsAllChannels) {
    const auto model = two_app_model(4);
    decision_input in;
    in.now = 1234.5;
    in.rates = {41.25, 0.1 + 0.2};  // deliberately non-representable sum
    in.current = cluster::configuration(model.vm_count(), model.host_count());
    in.current.set_host_power(host_id{0}, true);
    in.current.deploy(vm_id{0}, host_id{0}, 0.4);
    in.last_interval_utility = -3.7e-9;
    in.failed = {cluster::migrate{vm_id{1}, host_id{2}}};
    in.in_flight = {cluster::power_on{host_id{3}},
                    cluster::add_replica{vm_id{2}, host_id{1}, 0.25}};
    in.hosts_failed = {2};
    in.hosts_recovered = {1, 3};
    in.response_times = {0.012, 0.5};
    in.samples = {120.0, 0.0};

    const auto back = decision_input_from_json(to_json(in));
    EXPECT_EQ(back.now, in.now);
    EXPECT_EQ(back.rates, in.rates);  // bit-equal, not approximately
    EXPECT_EQ(back.current, in.current);
    EXPECT_EQ(back.last_interval_utility, in.last_interval_utility);
    EXPECT_EQ(back.failed, in.failed);
    EXPECT_EQ(back.in_flight, in.in_flight);
    EXPECT_EQ(back.hosts_failed, in.hosts_failed);
    EXPECT_EQ(back.hosts_recovered, in.hosts_recovered);
    EXPECT_EQ(back.response_times, in.response_times);
    EXPECT_EQ(back.samples, in.samples);
}

TEST(SnapshotCodec, NonFiniteValuesSurviveTheRoundTrip) {
    decision_input in;
    in.now = 0.0;
    in.rates = {std::numeric_limits<double>::infinity()};
    in.current = cluster::configuration(1, 1);
    const auto back = decision_input_from_json(to_json(in));
    EXPECT_TRUE(std::isinf(back.rates[0]));
    EXPECT_GT(back.rates[0], 0.0);
}

// Integer fields never alias: an id past the destination type's range, or a
// fractional one, is refused instead of being rounded or wrapped onto a
// different, valid host or VM.
TEST(SnapshotCodec, OutOfRangeAndFractionalIntegersAreRefused) {
    const std::string config_ok =
        R"({"vms":2,"hosts":2,"on":[1],"down":[],"placed":[[0,1,0.5]]})";
    ASSERT_NO_THROW((void)configuration_from_json(config_ok));
    EXPECT_THROW((void)configuration_from_json(
                     R"({"vms":2,"hosts":2,"on":[4294967297],"down":[],"placed":[]})"),
                 invariant_error);
    EXPECT_THROW((void)configuration_from_json(
                     R"({"vms":2,"hosts":2,"on":[0.6],"down":[],"placed":[]})"),
                 invariant_error);
    EXPECT_THROW(
        (void)configuration_from_json(
            R"({"vms":2,"hosts":2,"on":[1],"down":[],"placed":[[4294967296,1,0.5]]})"),
        invariant_error);

    ASSERT_NO_THROW((void)action_from_json(R"({"kind":"migrate","vm":0,"to":1})"));
    EXPECT_THROW((void)action_from_json(
                     R"({"kind":"migrate","vm":4294967296,"to":1.4})"),
                 invariant_error);

    decision_input in;
    in.rates = {10.0};
    in.current = cluster::configuration(1, 2);
    in.hosts_failed = {0};
    const std::string input_ok = to_json(in);
    ASSERT_NO_THROW((void)decision_input_from_json(input_ok));
    std::string bad = input_ok;
    const std::string needle = "\"hosts_failed\":[0]";
    ASSERT_NE(bad.find(needle), std::string::npos);
    bad.replace(bad.find(needle), needle.size(), "\"hosts_failed\":[4294967296]");
    EXPECT_THROW((void)decision_input_from_json(bad), invariant_error);
}

// Pinned bytes: every checkpointed field, non-default, encodes to the
// literal in snapshot_golden.h, decodes back to the same state and
// re-encodes to the same bytes. A dropped, renamed or reordered key fails.
TEST(SnapshotGolden, EveryCheckpointFieldEncodesToThePinnedBytes) {
    const snapshot s = golden::full_snapshot();
    const std::string text = to_json(s);
    EXPECT_EQ(text, golden::snapshot_json);
    const snapshot back = snapshot_from_json(golden::snapshot_json);
    EXPECT_EQ(back.version, s.version);
    EXPECT_EQ(back.taken_at, s.taken_at);
    EXPECT_TRUE(back.state == s.state);
    EXPECT_EQ(to_json(back), golden::snapshot_json);
}

TEST(SnapshotGolden, EveryDecisionInputChannelEncodesToThePinnedBytes) {
    const decision_input in = golden::full_decision_input();
    EXPECT_EQ(to_json(in), golden::decision_input_json);
    const decision_input back =
        decision_input_from_json(golden::decision_input_json);
    EXPECT_EQ(back.now, in.now);
    EXPECT_EQ(back.rates, in.rates);
    EXPECT_EQ(back.current, in.current);
    EXPECT_EQ(back.last_interval_utility, in.last_interval_utility);
    EXPECT_EQ(back.failed, in.failed);
    EXPECT_EQ(back.in_flight, in.in_flight);
    EXPECT_EQ(back.hosts_failed, in.hosts_failed);
    EXPECT_EQ(back.hosts_recovered, in.hosts_recovered);
    EXPECT_EQ(back.response_times, in.response_times);
    EXPECT_EQ(back.samples, in.samples);
    EXPECT_EQ(to_json(back), golden::decision_input_json);
}

// A run of open brackets throws instead of exhausting the parser's stack.
TEST(SnapshotCodec, DeepNestingIsRefusedNotACrash) {
    const std::string deep(100000, '[');
    EXPECT_THROW((void)snapshot_from_json(deep), invariant_error);
    EXPECT_THROW((void)decision_input_from_json(deep), invariant_error);
}

// "vms" and "hosts" are checked before the configuration allocates: at most
// 2^20 each, the width the Zobrist placement key gives a host index.
TEST(SnapshotCodec, OversizedConfigurationIsRefusedBeforeAllocating) {
    const auto config = [](const std::string& vms, const std::string& hosts) {
        return R"({"vms":)" + vms + R"(,"hosts":)" + hosts +
               R"(,"on":[],"down":[],"placed":[]})";
    };
    EXPECT_THROW((void)configuration_from_json(config("99999999999", "2")),
                 invariant_error);
    EXPECT_THROW((void)configuration_from_json(config("20000000", "20000000")),
                 invariant_error);
    EXPECT_THROW((void)configuration_from_json(config("2", "1048577")),
                 invariant_error);
    EXPECT_THROW((void)configuration_from_json(config("1048577", "2")),
                 invariant_error);
    const auto widest = configuration_from_json(config("1048576", "1048576"));
    EXPECT_EQ(widest.vm_count(), 1048576u);
    EXPECT_EQ(widest.host_count(), 1048576u);

    // Both checkpoints and decision inputs reach the same decoder.
    std::string input = std::string(golden::decision_input_json);
    const std::string needle = R"("vms":4)";
    ASSERT_NE(input.find(needle), std::string::npos);
    input.replace(input.find(needle), needle.size(), R"("vms":99999999999)");
    EXPECT_THROW((void)decision_input_from_json(input), invariant_error);
}

TEST(Snapshot, LiveCoordinatorStateRoundTripsExactly) {
    const auto model = two_app_model(6);
    const auto costs = cost::cost_table::paper_defaults();
    coordinator_options opts;
    opts.power_budget = 900.0;  // arm the budget broker: budgets_ non-empty
    global_coordinator coord(model, costs,
                             partition(model, {{0, {0, 1, 2}}, {1, {3, 4, 5}}}),
                             {}, opts);

    cluster::configuration cfg(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 6; ++h) cfg.set_host_power(host_id{h}, true);
    for (std::size_t t = 0; t < 3; ++t) {
        cfg.deploy(model.tier_vms(app_id{0}, t)[0],
                   host_id{static_cast<std::int32_t>(t)}, 0.3);
        cfg.deploy(model.tier_vms(app_id{1}, t)[0],
                   host_id{static_cast<std::int32_t>(3 + t)}, 0.3);
    }
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0, 85.0}) {
        const auto out = coord.decide({t, {rate, rate * 0.8}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = cluster::apply(model, cfg, a);
        t += 120.0;
    }

    const coordinator_state exported = coord.export_state();
    const std::string text = to_json(snapshot{snapshot_version, t, exported});
    const snapshot back = snapshot_from_json(text);
    EXPECT_EQ(back.version, snapshot_version);
    EXPECT_EQ(back.taken_at, t);
    EXPECT_TRUE(back.state == exported);
    // Determinism of the byte format itself.
    EXPECT_EQ(to_json(back), text);
}

TEST(Snapshot, ImportedCoordinatorContinuesTheExactDecisionStream) {
    const auto model = two_app_model(6);
    const auto costs = cost::cost_table::paper_defaults();
    const auto parts = partition(model, {{0, {0, 1, 2}}, {1, {3, 4, 5}}});
    coordinator_options opts;
    opts.power_budget = 900.0;
    global_coordinator original(model, costs, parts, {}, opts);
    global_coordinator restored(model, costs, parts, {}, opts);

    cluster::configuration cfg(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 6; ++h) cfg.set_host_power(host_id{h}, true);
    for (std::size_t tier = 0; tier < 3; ++tier) {
        cfg.deploy(model.tier_vms(app_id{0}, tier)[0],
                   host_id{static_cast<std::int32_t>(tier)}, 0.3);
        cfg.deploy(model.tier_vms(app_id{1}, tier)[0],
                   host_id{static_cast<std::int32_t>(3 + tier)}, 0.3);
    }
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0}) {
        const auto out = original.decide({t, {rate, rate * 0.8}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = cluster::apply(model, cfg, a);
        t += 120.0;
    }
    // Checkpoint through the serialized form, restore into the twin.
    const snapshot snap =
        snapshot_from_json(to_json(snapshot{snapshot_version, t,
                                            original.export_state()}));
    restored.import_state(snap.state, snap.taken_at);

    auto cfg2 = cfg;
    for (const double rate : {85.0, 30.0, 12.0}) {
        const auto oo = original.decide({t, {rate, rate * 0.8}, cfg, 1.0});
        const auto rr = restored.decide({t, {rate, rate * 0.8}, cfg2, 1.0});
        ASSERT_EQ(oo.invoked, rr.invoked) << "t=" << t;
        ASSERT_EQ(oo.actions, rr.actions) << "t=" << t;
        EXPECT_EQ(oo.decision_delay, rr.decision_delay);
        EXPECT_EQ(oo.decision_power_cost, rr.decision_power_cost);
        for (const auto& a : oo.actions) {
            cfg = cluster::apply(model, cfg, a);
            cfg2 = cluster::apply(model, cfg2, a);
        }
        t += 120.0;
    }
    EXPECT_TRUE(original.export_state() == restored.export_state());
}

// A checkpoint read back from disk is refused when a shape that the next
// decide() would index past is wrong. Each mutant of a live two-pod
// checkpoint (lookahead on, so the forecasters' trust flags are
// checkpointed) survives the codec and must make import_state throw
// invariant_error; importing it used to read out of bounds.
TEST(Snapshot, ImportRefusesShapesTheNextDecisionWouldIndexPast) {
    const auto model = two_app_model(6);
    const auto costs = cost::cost_table::paper_defaults();
    const auto parts = partition(model, {{0, {0, 1, 2}}, {1, {3, 4, 5}}});
    const controller_builder builder = controller_builder().lookahead(1);
    global_coordinator live(model, costs, parts, builder);

    cluster::configuration cfg(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 6; ++h) cfg.set_host_power(host_id{h}, true);
    for (std::size_t tier = 0; tier < 3; ++tier) {
        cfg.deploy(model.tier_vms(app_id{0}, tier)[0],
                   host_id{static_cast<std::int32_t>(tier)}, 0.3);
        cfg.deploy(model.tier_vms(app_id{1}, tier)[0],
                   host_id{static_cast<std::int32_t>(3 + tier)}, 0.3);
    }
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0}) {
        const auto out = live.decide({t, {rate, rate * 0.8}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = cluster::apply(model, cfg, a);
        t += 120.0;
    }
    const coordinator_state checkpoint = live.export_state();
    ASSERT_TRUE(checkpoint.pods[0].controller.has_value());
    ASSERT_FALSE(checkpoint.pods[0].controller->prev_forecaster_trusted.empty());

    const auto import_mutant = [&](const auto& mutate) {
        coordinator_state s = checkpoint;
        mutate(s);
        const snapshot back =
            snapshot_from_json(to_json(snapshot{snapshot_version, t, s}));
        global_coordinator twin(model, costs, parts, builder);
        twin.import_state(back.state, back.taken_at);
    };
    const auto controller = [](coordinator_state& s) -> controller_state& {
        return *s.pods[0].controller;
    };
    EXPECT_NO_THROW(import_mutant([](coordinator_state&) {}));

    pending_migration pm;
    pm.app = 1;
    pm.from = 0;
    pm.to = 7;
    pm.intervals_left = 2;
    EXPECT_THROW(import_mutant([&](coordinator_state& s) { s.pending = {pm}; }),
                 invariant_error);
    std::swap(pm.from, pm.to);
    EXPECT_THROW(import_mutant([&](coordinator_state& s) { s.pending = {pm}; }),
                 invariant_error);

    EXPECT_THROW(import_mutant([&](coordinator_state& s) {
                     controller(s).validator.last_good.clear();
                 }),
                 invariant_error);
    EXPECT_THROW(import_mutant([&](coordinator_state& s) {
                     controller(s).validator.has_last_good.clear();
                 }),
                 invariant_error);
    EXPECT_THROW(import_mutant([&](coordinator_state& s) {
                     controller(s).validator.last_seen.clear();
                 }),
                 invariant_error);
    EXPECT_THROW(import_mutant([&](coordinator_state& s) {
                     controller(s).validator.repeat_count.clear();
                 }),
                 invariant_error);
    EXPECT_THROW(import_mutant([&](coordinator_state& s) {
                     controller(s).prev_trusted.clear();
                 }),
                 invariant_error);
    EXPECT_THROW(import_mutant([&](coordinator_state& s) {
                     controller(s).prev_forecaster_trusted.clear();
                 }),
                 invariant_error);
    EXPECT_THROW(import_mutant([&](coordinator_state& s) {
                     controller(s).predictors[0].all_measured.push_back(600.0);
                 }),
                 invariant_error);
}

TEST(Snapshot, PreFirstDecideCheckpointRestoresLazily) {
    const auto model = two_app_model(4);
    const auto costs = cost::cost_table::paper_defaults();
    global_coordinator coord(model, costs, uniform_partition(model, 2));
    const coordinator_state s = coord.export_state();
    EXPECT_TRUE(s.pods.empty());  // pods materialize on the first decide
    global_coordinator twin(model, costs, uniform_partition(model, 2));
    twin.import_state(snapshot_from_json(
                          to_json(snapshot{snapshot_version, 0.0, s}))
                          .state,
                      0.0);
    EXPECT_TRUE(twin.export_state() == s);
}

TEST(Snapshot, VersionMismatchIsRefused) {
    const std::string good =
        to_json(snapshot{snapshot_version, 0.0, coordinator_state{}});
    std::string bad = good;
    const std::string needle = "\"version\":" + std::to_string(snapshot_version);
    bad.replace(bad.find(needle), needle.size(), "\"version\":99");
    EXPECT_THROW((void)snapshot_from_json(bad), invariant_error);
    EXPECT_NO_THROW((void)snapshot_from_json(good));
}

}  // namespace
}  // namespace mistral::core
