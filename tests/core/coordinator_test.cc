// global_coordinator: budget-redistribution conservation, cross-pod
// migration legality, and the pod_decision journal schema.
#include "core/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <variant>

#include "apps/rubis.h"
#include "common/check.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "sim/testbed.h"
#include "workload/generators.h"

namespace mistral::core {
namespace {

std::int64_t milliwatts(watts w) { return std::llround(w * 1000.0); }

struct CoordinatorTest : ::testing::Test {
    cluster::cluster_model model = [] {
        std::vector<apps::application_spec> specs;
        for (int a = 0; a < 2; ++a) {
            specs.push_back(apps::rubis_browsing("R" + std::to_string(a)));
        }
        return cluster::cluster_model(cluster::uniform_hosts(6), std::move(specs));
    }();
    cost::cost_table costs = cost::cost_table::paper_defaults();

    // Both applications packed into pod {0,1,2}; pod {3,4,5} powered but
    // empty — the shape the migration broker exists to fix.
    cluster::configuration packed() const {
        cluster::configuration c(model.vm_count(), model.host_count());
        for (std::int32_t h = 0; h < 6; ++h) c.set_host_power(host_id{h}, true);
        for (std::size_t t = 0; t < 3; ++t) {
            c.deploy(model.tier_vms(app_id{0}, t)[0],
                     host_id{static_cast<std::int32_t>(t)}, 0.38);
            c.deploy(model.tier_vms(app_id{1}, t)[0],
                     host_id{static_cast<std::int32_t>(t)}, 0.30);
        }
        return c;
    }

    partition halves() const {
        return partition(model, {{0, {0, 1, 2}}, {1, {3, 4, 5}}});
    }
};

// --- Budget redistribution -------------------------------------------------

TEST_F(CoordinatorTest, RedistributeConservesTheBudgetExactly) {
    // Awkward totals and demand mixes: the milliwatt shares must sum to the
    // cluster budget exactly, never to "close enough".
    const std::vector<std::vector<pod_report>> cases = {
        {{100.0, 300.0, 0.9}, {50.0, 300.0, 0.2}, {200.0, 300.0, 1.0}},
        {{0.0, 285.0, 0.0}, {0.0, 285.0, 0.0}},             // all idle
        {{33.333, 100.0, 0.5}, {33.333, 100.0, 0.5}, {33.334, 100.0, 0.5}},
        {{1.0, 1.0, 2.0}, {1.0, 1.0, 2.0}},                 // pressure clamps
        {{120.0, 95.0, 0.7}},                               // one pod
    };
    for (const watts total : {500.0, 333.333, 0.001, 1234.567}) {
        for (const auto& reports : cases) {
            const auto shares = global_coordinator::redistribute(total, reports);
            ASSERT_EQ(shares.size(), reports.size());
            std::int64_t sum = 0;
            for (const watts s : shares) {
                EXPECT_GE(s, 0.0);
                sum += milliwatts(s);
            }
            EXPECT_EQ(sum, milliwatts(total))
                << "total=" << total << " pods=" << reports.size();
        }
    }
}

TEST_F(CoordinatorTest, RedistributeFavorsPressuredPods) {
    // Equal draw, different pressure: the pressured pod gets the headroom.
    const std::vector<pod_report> reports = {{100.0, 300.0, 1.0},
                                             {100.0, 300.0, 0.0}};
    const auto shares = global_coordinator::redistribute(400.0, reports);
    EXPECT_GT(shares[0], shares[1]);
    // All-zero demand degenerates to an equal split.
    const std::vector<pod_report> idle = {{0.0, 300.0, 0.0}, {0.0, 300.0, 0.0}};
    const auto even = global_coordinator::redistribute(400.0, idle);
    EXPECT_EQ(even[0], even[1]);
}

TEST_F(CoordinatorTest, LiveBudgetsConserveEveryInterval) {
    coordinator_options opts;
    opts.power_budget = 500.0;
    opts.migration_broker = false;
    global_coordinator coord(model, costs, halves(), {}, opts);
    auto cfg = packed();
    seconds t = 0.0;
    for (int i = 0; i < 4; ++i) {
        const auto out = coord.decide({t, {40.0 + 5.0 * i, 30.0}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = apply(model, cfg, a);
        ASSERT_EQ(coord.budgets().size(), 2u);
        std::int64_t sum = 0;
        for (const watts b : coord.budgets()) sum += milliwatts(b);
        EXPECT_EQ(sum, milliwatts(opts.power_budget)) << "interval " << i;
        t += 120.0;
    }
}

// --- Migration broker ------------------------------------------------------

TEST_F(CoordinatorTest, BrokeredMigrationIsLegalAndWholeApp) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    coordinator_options opts;
    // Low watermarks so the packed pod proposes no matter how its own
    // controller trims caps first.
    opts.donor_pressure = 0.2;
    opts.accept_pressure = 0.5;
    global_coordinator coord(model, costs, halves(), builder, opts);

    auto cfg = packed();
    const auto out = coord.decide({0.0, {40.0, 30.0}, cfg, 1.0});
    ASSERT_GE(coord.brokered_migrations(), 1);
    ASSERT_GE(sink.count("pod_migration"), 1u);

    // Every action — the pods' own and the brokered moves — must compose
    // applicably, and the composed configuration must respect the packing
    // limits the search itself honours.
    for (const auto& a : out.actions) {
        std::string why;
        ASSERT_TRUE(applicable(model, cfg, a, &why))
            << to_string(model, a) << ": " << why;
        cfg = apply(model, cfg, a);
    }
    std::string why;
    EXPECT_TRUE(structurally_valid(model, cfg, &why)) << why;
    for (std::int32_t h = 0; h < 6; ++h) {
        const host_id host{h};
        if (!cfg.host_on(host)) continue;
        EXPECT_LE(cfg.cap_sum(host), model.limits().host_cpu_cap + 1e-9);
        EXPECT_LE(cfg.vm_count_on(host),
                  static_cast<std::size_t>(model.limits().max_vms_per_host));
        EXPECT_LE(cfg.memory_sum(model, host) + model.limits().dom0_memory_mb,
                  model.hosts()[static_cast<std::size_t>(h)].memory_mb + 1e-9);
    }

    // The handshake moves the app *whole*: every deployed VM of the brokered
    // app now sits on the acceptor pod — no half-moved (double-homed) apps.
    const auto* ev = &sink.events()[0];
    for (const auto& e : sink.events()) {
        if (e.type == "pod_migration") ev = &e;
    }
    const std::size_t app = static_cast<std::size_t>(ev->find("app")->integer);
    const std::size_t to = static_cast<std::size_t>(ev->find("to")->integer);
    const auto& hosts = coord.pods()[to]->spec().hosts;
    for (const auto& vm : model.vms()) {
        if (vm.app.index() != app) continue;
        const auto& p = cfg.placement(vm.vm);
        if (!p) continue;
        EXPECT_NE(std::find(hosts.begin(), hosts.end(),
                            static_cast<std::size_t>(p->host.index())),
                  hosts.end())
            << "vm of app " << app << " left behind on host " << p->host.value;
    }
    // Ownership followed the app.
    EXPECT_EQ(coord.pods()[to]->apps().size(), 1u);
    EXPECT_EQ(coord.pods()[to]->apps()[0], app);
}

// The broker's migrate actions are *plans* the executor can abort. When the
// whole plan fails, the next decide() must re-derive ownership from the
// placements (the app never left the donor) instead of crashing in the
// acceptor's view projection.
TEST_F(CoordinatorTest, ReconcileRecoversFromAFullyAbortedBrokeredPlan) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    coordinator_options opts;
    opts.donor_pressure = 0.2;
    opts.accept_pressure = 0.5;
    global_coordinator coord(model, costs, halves(), builder, opts);

    const auto cfg = packed();
    const auto out = coord.decide({0.0, {40.0, 30.0}, cfg, 1.0});
    ASSERT_GE(coord.brokered_migrations(), 1);

    // Every submitted action aborted: the testbed still runs `cfg`, yet the
    // acceptor owns the brokered app. Deciding again must not throw.
    decision_input next{120.0, {40.0, 30.0}, cfg, 1.0};
    next.failed = out.actions;
    strategy::outcome out2;
    ASSERT_NO_THROW(out2 = coord.decide(next));

    // Ownership was handed back to the pod actually hosting the VMs before
    // any pod stepped, and the hand-back was journaled.
    EXPECT_GE(registry.counter_value("mistral_pod_ownership_reconciles_total"), 1);
    const obs::event* rec = nullptr;
    for (const auto& e : sink.events()) {
        if (e.type == "pod_reconcile") rec = &e;
    }
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->find("to")->integer, 0);    // back to the donor pod
    EXPECT_EQ(rec->find("from")->integer, 1);  // from the would-be acceptor
}

// A plan aborted midway leaves the app straddling two pods — a state no
// pod's view can contain. Reconciliation parks it unowned and the gather
// pass emits the completing migrations.
TEST_F(CoordinatorTest, GatherReunifiesAHalfMovedApp) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    coordinator_options opts;
    opts.donor_pressure = 0.2;
    opts.accept_pressure = 0.5;
    global_coordinator coord(model, costs, halves(), builder, opts);

    auto cfg = packed();
    const auto out = coord.decide({0.0, {40.0, 30.0}, cfg, 1.0});
    ASSERT_GE(coord.brokered_migrations(), 1);
    const obs::event* ev = nullptr;
    for (const auto& e : sink.events()) {
        if (e.type == "pod_migration") ev = &e;
    }
    ASSERT_NE(ev, nullptr);
    const auto app = static_cast<std::size_t>(ev->find("app")->integer);

    const auto app_of = [&](vm_id vm) -> std::size_t {
        for (const auto& v : model.vms()) {
            if (v.vm == vm) return v.app.index();
        }
        return model.app_count();
    };
    const auto pod_of = [&](host_id h) {
        const auto& p0 = coord.pods()[0]->spec().hosts;
        return std::find(p0.begin(), p0.end(),
                         static_cast<std::size_t>(h.index())) != p0.end()
                   ? 0
                   : 1;
    };

    // The brokered moves are the tail of the plan; abort just the last one.
    // The app is left half-moved, straddling both pods.
    const auto* tail = std::get_if<cluster::migrate>(&out.actions.back());
    ASSERT_NE(tail, nullptr);
    ASSERT_EQ(app_of(tail->vm), app);
    for (std::size_t i = 0; i + 1 < out.actions.size(); ++i) {
        cfg = apply(model, cfg, out.actions[i]);
    }

    decision_input next{120.0, {40.0, 30.0}, cfg, 1.0};
    next.failed = {out.actions.back()};
    strategy::outcome out2;
    ASSERT_NO_THROW(out2 = coord.decide(next));

    // The app was parked unowned (journaled with to = -1)…
    bool parked = false;
    for (const auto& e : sink.events()) {
        if (e.type == "pod_reconcile" &&
            e.find("app")->integer == static_cast<std::int64_t>(app) &&
            e.find("to")->integer == -1) {
            parked = true;
        }
    }
    EXPECT_TRUE(parked);

    // …and the gather's completing migrations make it whole again.
    auto cfg2 = cfg;
    for (const auto& a : out2.actions) {
        std::string why;
        ASSERT_TRUE(applicable(model, cfg2, a, &why))
            << to_string(model, a) << ": " << why;
        cfg2 = apply(model, cfg2, a);
    }
    int home = -1;
    bool straddles = false;
    for (const auto& vm : model.vms()) {
        if (vm.app.index() != app) continue;
        const auto& p = cfg2.placement(vm.vm);
        if (!p) continue;
        const int pod = pod_of(p->host);
        if (home < 0) home = pod;
        straddles = straddles || pod != home;
    }
    ASSERT_GE(home, 0);
    EXPECT_FALSE(straddles) << "gather left app " << app << " half-moved";

    // Once the gather executed, ownership follows to exactly one pod.
    ASSERT_NO_THROW(coord.decide({240.0, {40.0, 30.0}, cfg2, 1.0}));
    int owners = 0;
    for (const auto& pod : coord.pods()) {
        owners += std::count(pod->apps().begin(), pod->apps().end(), app);
    }
    EXPECT_EQ(owners, 1);
}

TEST_F(CoordinatorTest, AppliedBudgetFloorStillConservesTheBudget) {
    coordinator_options opts;
    opts.power_budget = 500.0;
    opts.migration_broker = false;
    global_coordinator coord(model, costs, halves(), {}, opts);
    // Pod 1 dark and empty: zero draw, zero pressure, zero demand — its
    // redistributed share is exactly zero and the one-milliwatt floor must
    // borrow from pod 0 rather than overspend the cluster budget.
    auto cfg = packed();
    for (std::int32_t h = 3; h < 6; ++h) cfg.set_host_power(host_id{h}, false);
    (void)coord.decide({0.0, {40.0, 30.0}, cfg, 1.0});

    ASSERT_EQ(coord.budgets().size(), 2u);
    EXPECT_EQ(milliwatts(coord.budgets()[1]), 1);  // the floored idle pod
    std::int64_t stored = 0;
    for (const watts b : coord.budgets()) stored += milliwatts(b);
    EXPECT_EQ(stored, milliwatts(opts.power_budget));
    // budgets() reflects the *applied* caps, not pre-floor shares.
    std::int64_t applied = 0;
    for (const auto& pod : coord.pods()) {
        EXPECT_GT(pod->budget(), 0.0);
        applied += milliwatts(pod->budget());
    }
    EXPECT_EQ(applied, milliwatts(opts.power_budget));
}

TEST_F(CoordinatorTest, BrokerRespectsDisableAndWatermarks) {
    coordinator_options off;
    off.migration_broker = false;
    global_coordinator no_broker(model, costs, halves(), {}, off);
    auto cfg = packed();
    (void)no_broker.decide({0.0, {40.0, 30.0}, cfg, 1.0});
    EXPECT_EQ(no_broker.brokered_migrations(), 0);

    coordinator_options high;
    high.donor_pressure = 10.0;  // pressure can never clear this
    global_coordinator calm(model, costs, halves(), {}, high);
    (void)calm.decide({0.0, {40.0, 30.0}, cfg, 1.0});
    EXPECT_EQ(calm.brokered_migrations(), 0);
}

// The reviewer scenario end-to-end: a fault-injecting testbed aborts a large
// share of the broker's migrate actions across many intervals. The sharded
// control loop must survive every abort/partial-plan shape the injector
// produces — ownership follows placements, never the plan.
TEST_F(CoordinatorTest, ShardedLoopSurvivesAbortedMigrationsUnderFaultInjection) {
    for (const std::uint64_t seed : {7ULL, 21ULL, 1337ULL}) {
        sim::testbed_options tb_opts;
        tb_opts.seed = seed;
        // Every action kind flaky, migrations most of all.
        for (auto& p : tb_opts.faults.failure_probability) p = 0.3;
        tb_opts.faults
            .failure_probability[static_cast<std::size_t>(
                cluster::action_kind::migrate)] = 0.6;
        sim::testbed tb(model, packed(), tb_opts);

        coordinator_options opts;
        opts.donor_pressure = 0.2;  // broker fires whenever it can
        opts.accept_pressure = 0.5;
        opts.max_brokered_moves = 2;
        global_coordinator coord(model, costs, halves(), {}, opts);

        std::vector<cluster::action> pending_failed;
        seconds t = 0.0;
        for (int i = 0; i < 12; ++i) {
            if (!tb.busy()) {
                decision_input in{t, {40.0, 30.0}, tb.config(), 1.0};
                in.failed = std::move(pending_failed);
                pending_failed.clear();
                strategy::outcome out;
                ASSERT_NO_THROW(out = coord.decide(in))
                    << "seed " << seed << " interval " << i;
                if (!out.actions.empty()) {
                    tb.submit(out.actions, out.decision_delay);
                }
            }
            const auto obs = tb.advance(120.0, {40.0, 30.0});
            pending_failed.insert(pending_failed.end(), obs.failed.begin(),
                                  obs.failed.end());
            std::string why;
            ASSERT_TRUE(structurally_valid(model, tb.config(), &why))
                << "seed " << seed << " interval " << i << ": " << why;
            t += 120.0;
        }
    }
}

// --- Journal schema --------------------------------------------------------

TEST_F(CoordinatorTest, PodDecisionEventHasFixedFieldOrderAndRoundTrips) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    global_coordinator coord(model, costs, halves(), builder, {});
    auto cfg = packed();
    (void)coord.decide({0.0, {40.0, 30.0}, cfg, 1.0});
    ASSERT_GE(sink.count("pod_decision"), 1u);

    const std::vector<std::string> expected = {
        "type",       "t",         "pod",        "level",
        "invoked",    "actions",   "duration",   "expansions",
        "generated",  "expected_utility",        "budget_watts",
        "draw_watts", "pressure",  "mode"};
    for (const auto& e : sink.events()) {
        if (e.type != "pod_decision") continue;
        const std::string line = to_json_line(e);
        const auto v = obs::json::value::parse(line);
        // parse ∘ dump is the identity, and the members arrive in schema
        // order — journal readers may index by position.
        EXPECT_EQ(v.dump(), line);
        const auto& members = v.members();
        ASSERT_EQ(members.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(members[i].first, expected[i]) << "position " << i;
        }
        // No budget broker configured: the sentinel marks the pod uncapped
        // (JSON has no infinity).
        EXPECT_EQ(v.find("budget_watts")->as_number(), -1.0);
    }
}

// With regions set, two emitters journal economics each interval: every
// econ-bound pod controller writes its pricing context as `econ_decision`,
// and the coordinator writes the regional context as `region_decision`.
// The two types keep disjoint, fixed field orders.
TEST_F(CoordinatorTest, RegionDecisionEventHasFixedFieldOrderAndRoundTrips) {
    obs::memory_sink sink;
    controller_builder builder;
    builder.sink(&sink);
    coordinator_options opts;
    opts.regions = econ::region_map(wl::two_region_spread(0.01, 0.03), {0, 1});
    global_coordinator coord(model, costs, halves(), builder, opts);
    auto cfg = packed();
    for (int i = 0; i < 3; ++i) {
        const auto out =
            coord.decide({120.0 * i, {40.0, 30.0}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = cluster::apply(model, cfg, a);
    }
    EXPECT_EQ(sink.count("region_decision"), 3u);
    EXPECT_GE(sink.count("econ_decision"), 1u);

    const std::vector<std::string> region_fields = {
        "type", "t", "pod_prices", "budget_watts", "brokered_moves"};
    const std::vector<std::string> econ_fields = {
        "type",         "t",
        "price",        "carbon_intensity",
        "carbon_dollars_per_watt_interval",
        "performance_based",
        "power_cap",    "expected_utility"};
    for (const auto& e : sink.events()) {
        if (e.type != "region_decision" && e.type != "econ_decision") continue;
        const std::string line = to_json_line(e);
        const auto v = obs::json::value::parse(line);
        EXPECT_EQ(v.dump(), line);
        const auto& expected =
            e.type == "region_decision" ? region_fields : econ_fields;
        const auto& members = v.members();
        ASSERT_EQ(members.size(), expected.size()) << line;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(members[i].first, expected[i]) << "position " << i;
        }
        if (e.type == "region_decision") {
            // One price per pod; no budget broker, so the sentinel.
            EXPECT_EQ(v.find("pod_prices")->items().size(), 2u);
            EXPECT_EQ(v.find("budget_watts")->as_number(), -1.0);
        }
    }
}

}  // namespace
}  // namespace mistral::core
