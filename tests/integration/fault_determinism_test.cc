// Determinism under fault injection.
//
// The same seed and fault schedule must produce a bit-identical
// decision-and-measurement trace on every run: faults are drawn from their
// own forked RNG stream keyed only by the action sequence, and the
// evaluation engine's memo, per-app sub-solve cache (delta evaluation) and
// incremental configuration hash are deterministic functions of that
// sequence too — so no cache state may leak into a decision. That delta
// evaluation matches whole-configuration solves bit for bit is proven at the
// unit level (EvaluatorOracle in tests/core/evaluator_test.cc). Runs under
// the `sanitize` CTest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "apps/rubis.h"
#include "common/rng.h"
#include "core/controller.h"
#include "sim/testbed.h"

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

// One line per interval capturing everything cache or hash state could
// perturb: decision flags, the exact action strings, the bit pattern of the
// expected utility, the configuration hash, and the fault notices. Every
// action kind fails and straggles with `fault_probability`; host 2 crashes
// at t = 400 s and recovers 300 s later.
std::string run_trace(const cluster::cluster_model& model, std::uint64_t seed,
                      double fault_probability, std::uint64_t workload_salt) {
    sim::testbed_options tb_opts;
    tb_opts.seed = seed;
    auto& f = tb_opts.faults;
    for (std::size_t k = 0; k < sim::action_kind_count; ++k) {
        f.failure_probability[k] = fault_probability;
        f.straggler_probability[k] = fault_probability;
    }
    f.host_crashes.push_back({.at = 400.0, .host = 2, .recover_after = 300.0});
    sim::testbed tb(model, base_config(model), tb_opts);

    core::controller_options opts;
    opts.search.max_expansions = 80;
    core::mistral_controller ctl(model, cost::cost_table::paper_defaults(), opts);

    rng workload(seed ^ workload_salt);
    std::ostringstream trace;
    trace.precision(17);
    std::vector<cluster::action> pending_failed;
    std::vector<std::int32_t> pending_down, pending_up;
    dollars last_utility = 0.0;

    for (int i = 0; i < 10; ++i) {
        const seconds t = i * 120.0;
        const std::vector<req_per_sec> rates(model.app_count(),
                                             workload.uniform(20.0, 70.0));
        if (!tb.busy()) {
            core::decision_input din{t, rates, tb.config(), last_utility};
            din.failed = pending_failed;
            din.hosts_failed = pending_down;
            din.hosts_recovered = pending_up;
            pending_failed.clear();
            pending_down.clear();
            pending_up.clear();
            const auto d = ctl.step(din);
            trace << i << " invoked=" << d.invoked << " repair=" << d.repair
                  << " reconciled=" << d.reconciled;
            for (const auto& a : d.actions) trace << " [" << to_string(model, a) << "]";
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(d.expected_utility));
            std::memcpy(&bits, &d.expected_utility, sizeof(bits));
            trace << " eu=" << bits << "\n";
            if (!d.actions.empty()) tb.submit(d.actions, d.stats.duration);
        } else {
            trace << i << " busy\n";
        }

        const auto obs = tb.advance(120.0, rates);
        pending_failed.insert(pending_failed.end(), obs.failed.begin(),
                              obs.failed.end());
        pending_down.insert(pending_down.end(), obs.hosts_failed.begin(),
                            obs.hosts_failed.end());
        pending_up.insert(pending_up.end(), obs.hosts_recovered.begin(),
                          obs.hosts_recovered.end());
        trace << "  hash=" << tb.config().hash()
              << " failed=" << obs.failed.size()
              << " down=" << obs.hosts_failed.size()
              << " up=" << obs.hosts_recovered.size() << " power=" << obs.power;
        for (const double rt : obs.response_time) trace << " rt=" << rt;
        trace << "\n";
        last_utility = obs.power;  // any deterministic feedback value works
    }
    trace << "failed_total=" << ctl.reconciliation().failed_actions
          << " replans=" << ctl.reconciliation().fault_replans
          << " repairs=" << ctl.reconciliation().repairs << "\n";
    return trace.str();
}

// The same run repeated with identical settings replays bit-identically —
// the determinism the resumable harness and the episode seeds rely on.
TEST(FaultDeterminism, SameSeedReplaysBitIdentically) {
    const auto model = make_model(3, 1);
    EXPECT_EQ(run_trace(model, 21, 0.3, 0x777), run_trace(model, 21, 0.3, 0x777));
}

// Two apps sharing hosts: sub-solves are reused across neighbors and
// decisions, and the app cache's LRU state is a deterministic function of
// the action sequence, so replays stay bit-identical through a host crash.
TEST(DeltaEval, DeltaOnReplaysBitIdentically) {
    const auto model = make_model(4, 2);
    const auto trace = run_trace(model, 9, 0.25, 0x5a5a);
    EXPECT_EQ(trace, run_trace(model, 9, 0.25, 0x5a5a));
    // The schedule must actually exercise the host crash for the replay to
    // mean anything.
    EXPECT_NE(trace.find("down=1"), std::string::npos);
}

}  // namespace
}  // namespace mistral
