// Randomized fault-injection invariant harness.
//
// Each episode derives a random fault schedule (per-kind failure and
// straggler probabilities, host crashes with optional recovery) from its
// seed, then drives the full Mistral controller against a fault-injecting
// testbed for a dozen monitoring intervals. Invariants checked every
// interval:
//
//  * every action the controller emits is applicable, in sequence, from the
//    configuration the testbed actually reports;
//  * the actual configuration stays structurally valid (degraded validity —
//    replica minimums excepted — while hosts are crashed; full validity when
//    the schedule contains no crashes, because a failed action leaves the
//    configuration in its pre-action state);
//  * metered wasted time stays within the adapting time, and the
//    controller's wasted-adaptation ledger agrees with the failure notices
//    it received;
//  * accrued utility stays finite and the online cumulative sum matches an
//    independent re-accumulation of the interval ledger.
//
// The episode count is a CMake knob (-DMISTRAL_FAULT_EPISODES=N, default
// 200) so CI can dial coverage against wall-clock.
//
// The harness also proves it can catch a broken controller: in its mutated
// form it feeds step() the configuration the previous plan would reach
// instead of the one the testbed reports — a controller that plans from what
// it intended, not from what happened — and that must produce action
// sequences illegal against the actual configuration under a hostile fault
// schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/rubis.h"
#include "common/rng.h"
#include "core/controller.h"
#include "core/planner.h"
#include "sim/testbed.h"

#ifndef MISTRAL_FAULT_EPISODES
#define MISTRAL_FAULT_EPISODES 200
#endif

namespace mistral {
namespace {

cluster::cluster_model make_model(std::size_t hosts, std::size_t apps) {
    std::vector<apps::application_spec> specs;
    for (std::size_t a = 0; a < apps; ++a) {
        specs.push_back(apps::rubis_browsing("R" + std::to_string(a)));
    }
    return cluster::cluster_model(cluster::uniform_hosts(hosts), std::move(specs));
}

cluster::configuration base_config(const cluster::cluster_model& model) {
    cluster::configuration c(model.vm_count(), model.host_count());
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
    }
    const std::size_t per_app =
        std::max<std::size_t>(1, model.host_count() / model.app_count());
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            const std::size_t h = (a * per_app + t % per_app) % model.host_count();
            c.deploy(model.tier_vms(app, t)[0],
                     host_id{static_cast<std::int32_t>(h)}, 0.4);
        }
    }
    return c;
}

constexpr seconds kInterval = 120.0;
constexpr int kIntervals = 12;

// Random fault schedule for one episode, derived entirely from the seed.
sim::fault_options random_faults(rng& r, bool with_crashes) {
    sim::fault_options f;
    for (std::size_t k = 0; k < sim::action_kind_count; ++k) {
        f.failure_probability[k] = r.uniform(0.0, 0.25);
        f.straggler_probability[k] = r.uniform(0.0, 0.25);
    }
    f.straggler_multiplier = r.uniform(1.5, 4.0);
    f.failure_duration_fraction = r.uniform(0.1, 0.9);
    if (with_crashes) {
        const std::size_t crashes = r.uniform_index(3);  // 0, 1 or 2
        for (std::size_t i = 0; i < crashes; ++i) {
            sim::host_crash_event e;
            e.at = r.uniform(60.0, 0.7 * kIntervals * kInterval);
            e.host = static_cast<std::int32_t>(r.uniform_index(3));
            // Half the crashes recover, half are permanent.
            e.recover_after = r.uniform() < 0.5 ? r.uniform(100.0, 500.0) : 0.0;
            f.host_crashes.push_back(e);
        }
    }
    return f;
}

// Cheap but real search settings: the invariants concern legality and
// accounting, not plan quality, and the harness runs hundreds of episodes.
core::controller_options episode_controller_options() {
    core::controller_options opts;
    opts.search.max_expansions = 60;
    opts.search.stop_factor = 1.2;
    opts.band_width = 12.0;
    return opts;
}

struct episode_tally {
    std::int64_t notices_delivered = 0;  // failure notices handed to step()
    std::int64_t violations = 0;         // illegal emitted sequences
};

// Runs one controller-vs-testbed episode. With `expect_legal`, any illegal
// emitted action fails the test; otherwise (the mutation check) illegal
// sequences are counted and dropped. With `plan_against_intended` the
// controller is shown where its last plan would have landed instead of the
// configuration the testbed reports (the mutation); legality is checked
// against the testbed's configuration either way.
episode_tally run_episode(const cluster::cluster_model& model,
                          std::uint64_t seed, const sim::fault_options& faults,
                          bool plan_against_intended, bool expect_legal) {
    sim::testbed_options tb_opts;
    tb_opts.seed = seed;
    tb_opts.faults = faults;
    sim::testbed tb(model, base_config(model), tb_opts);

    const auto ctl_opts = episode_controller_options();
    core::mistral_controller ctl(model, cost::cost_table::paper_defaults(),
                                 ctl_opts);
    std::optional<cluster::configuration> intended;  // where the last plan lands
    const core::utility_model util{ctl_opts.utility};

    rng workload(seed ^ 0xabcdULL);
    const bool crash_free = faults.host_crashes.empty();

    episode_tally tally;
    std::vector<cluster::action> pending_failed;
    std::vector<std::int32_t> pending_down, pending_up;
    std::int64_t failures_seen = 0;  // delivered + still pending
    double metered_wasted = 0.0;
    dollars cumulative = 0.0;
    std::vector<dollars> ledger;  // per-interval utilities
    dollars last_utility = 0.0;
    req_per_sec rate = 45.0;

    for (int i = 0; i < kIntervals; ++i) {
        const seconds t = i * kInterval;
        rate = std::clamp(rate + workload.uniform(-18.0, 18.0), 15.0, 75.0);
        const std::vector<req_per_sec> rates(model.app_count(), rate);

        if (!tb.busy()) {
            core::decision_input din{
                t, rates,
                plan_against_intended && intended ? *intended : tb.config(),
                last_utility};
            din.failed = pending_failed;
            din.hosts_failed = pending_down;
            din.hosts_recovered = pending_up;
            tally.notices_delivered +=
                static_cast<std::int64_t>(pending_failed.size());
            pending_failed.clear();
            pending_down.clear();
            pending_up.clear();

            const auto d = ctl.step(din);
            if (!d.actions.empty()) {
                intended = core::apply_plan(model, din.current, d.actions);
                // Legality against the *actual* configuration, in sequence.
                auto cfg = tb.config();
                bool legal = true;
                for (const auto& a : d.actions) {
                    std::string why;
                    if (!applicable(model, cfg, a, &why)) {
                        legal = false;
                        if (expect_legal) {
                            ADD_FAILURE()
                                << "seed " << seed << " t=" << t << ": illegal "
                                << to_string(model, a) << ": " << why;
                        }
                        break;
                    }
                    cfg = apply(model, cfg, a);
                }
                if (legal) {
                    tb.submit(d.actions, d.stats.duration);
                } else {
                    ++tally.violations;
                }
            }
        }

        const auto obs = tb.advance(kInterval, rates);
        pending_failed.insert(pending_failed.end(), obs.failed.begin(),
                              obs.failed.end());
        pending_down.insert(pending_down.end(), obs.hosts_failed.begin(),
                            obs.hosts_failed.end());
        pending_up.insert(pending_up.end(), obs.hosts_recovered.begin(),
                          obs.hosts_recovered.end());
        failures_seen += static_cast<std::int64_t>(obs.failed.size());

        // Structural invariants on the actual configuration.
        std::string why;
        EXPECT_TRUE(cluster::structurally_valid_degraded(model, tb.config(), &why))
            << "seed " << seed << " t=" << obs.time << ": " << why;
        if (crash_free) {
            EXPECT_TRUE(cluster::structurally_valid(model, tb.config(), &why))
                << "seed " << seed << " t=" << obs.time << ": " << why;
        }

        // Metering invariants.
        EXPECT_GE(obs.wasted_fraction, 0.0);
        EXPECT_LE(obs.wasted_fraction, obs.adapting_fraction + 1e-9)
            << "seed " << seed << " t=" << obs.time;
        metered_wasted += obs.wasted_fraction * obs.window;

        std::vector<seconds> targets(model.app_count());
        for (std::size_t a = 0; a < model.app_count(); ++a) {
            targets[a] = model.app(app_id{static_cast<std::int32_t>(a)})
                             .target_response_time(rates[a]);
        }
        const dollars u =
            util.interval_utility(rates, obs.response_time, targets, obs.power);
        EXPECT_TRUE(std::isfinite(u)) << "seed " << seed << " t=" << obs.time;
        cumulative += u;
        ledger.push_back(u);
        last_utility = u;
    }

    // The controller's failure ledger is exactly the notices delivered to it.
    const auto& rs = ctl.reconciliation();
    EXPECT_EQ(rs.failed_actions, tally.notices_delivered) << "seed " << seed;
    EXPECT_GE(rs.wasted_adaptation_time, 0.0);
    EXPECT_GE(rs.wasted_transient_cost, 0.0);
    if (tally.notices_delivered == 0) {
        EXPECT_EQ(rs.wasted_adaptation_time, 0.0) << "seed " << seed;
        EXPECT_EQ(rs.wasted_transient_cost, 0.0) << "seed " << seed;
    } else {
        EXPECT_GT(rs.wasted_adaptation_time, 0.0) << "seed " << seed;
    }
    // Wasted execution time can only come from failures or crashes.
    if (failures_seen == 0 && crash_free) {
        EXPECT_EQ(metered_wasted, 0.0) << "seed " << seed;
    }

    // Accrued utility matches an independent re-accumulation of the ledger.
    dollars replay = 0.0;
    for (const dollars u : ledger) replay += u;
    EXPECT_NEAR(replay, cumulative, 1e-9 * (1.0 + std::abs(cumulative)))
        << "seed " << seed;

    return tally;
}

const cluster::cluster_model& shared_model() {
    static const cluster::cluster_model model = make_model(3, 1);
    return model;
}

// The headline harness: MISTRAL_FAULT_EPISODES random fault schedules, zero
// invariant violations.
TEST(FaultProperty, RandomEpisodesPreserveInvariants) {
    const auto& model = shared_model();
    std::int64_t failures_total = 0;
    for (int ep = 0; ep < MISTRAL_FAULT_EPISODES; ++ep) {
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(ep);
        rng r(seed ^ 0x5eedULL);
        const auto faults = random_faults(r, /*with_crashes=*/true);
        const auto tally = run_episode(model, seed, faults,
                                       /*plan_against_intended=*/false,
                                       /*expect_legal=*/true);
        EXPECT_EQ(tally.violations, 0) << "episode " << ep;
        failures_total += tally.notices_delivered;
        if (::testing::Test::HasFailure()) break;  // first bad episode is enough
    }
    // The schedules must actually bite: across all episodes some actions fail.
    EXPECT_GT(failures_total, 0);
}

// With the injector disabled the controller must see no fault signals and
// the reconciliation ledger must stay all-zero.
TEST(FaultProperty, InertScheduleLeavesLedgerUntouched) {
    const auto& model = shared_model();
    for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
        const auto tally = run_episode(model, seed, {},
                                       /*plan_against_intended=*/false,
                                       /*expect_legal=*/true);
        EXPECT_EQ(tally.notices_delivered, 0);
        EXPECT_EQ(tally.violations, 0);
    }
}

// Mutation check: a reconciler that plans from what it *intended* instead of
// what the testbed reports must be caught by this harness — under a hostile
// schedule it emits action sequences that are illegal against reality.
TEST(FaultProperty, BrokenReconcilerIsCaught) {
    const auto& model = shared_model();
    auto faults = sim::fault_options::uniform(0.5, 0.0);

    std::int64_t violations = 0;
    for (int ep = 0; ep < 30 && violations == 0; ++ep) {
        const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(ep);
        const auto tally = run_episode(model, seed, faults,
                                       /*plan_against_intended=*/true,
                                       /*expect_legal=*/false);
        violations += tally.violations;
    }
    EXPECT_GT(violations, 0)
        << "the mutated controller was never caught planning against stale state";
}

}  // namespace
}  // namespace mistral
