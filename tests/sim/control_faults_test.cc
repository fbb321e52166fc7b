// control_fault_injector: provable inertness at zero probabilities and the
// two-draw-per-pod determinism discipline.
#include "sim/faults.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace mistral::sim {
namespace {

TEST(ControlFaults, DefaultConstructedIsInert) {
    control_fault_injector inj;
    EXPECT_TRUE(inj.inert());
    for (std::size_t pod = 0; pod < 8; ++pod) {
        const auto f = inj.on_pod_step(pod);
        EXPECT_FALSE(f.crashed);
        EXPECT_EQ(f.hang_multiplier, 1.0);
    }
}

TEST(ControlFaults, ZeroProbabilitiesAreInert) {
    control_fault_options opts;  // all zero
    EXPECT_TRUE(opts.inert());
    control_fault_injector inj(opts, 123);
    EXPECT_TRUE(inj.inert());
    const auto f = inj.on_pod_step(0);
    EXPECT_FALSE(f.crashed);
    EXPECT_EQ(f.hang_multiplier, 1.0);
}

TEST(ControlFaults, SameSeedReproducesTheExactVerdictStream) {
    control_fault_options opts;
    opts.crash_probability = 0.25;
    opts.hang_probability = 0.25;
    control_fault_injector a(opts, 99);
    control_fault_injector b(opts, 99);
    for (int interval = 0; interval < 50; ++interval) {
        for (std::size_t pod = 0; pod < 4; ++pod) {
            const auto fa = a.on_pod_step(pod);
            const auto fb = b.on_pod_step(pod);
            EXPECT_EQ(fa.crashed, fb.crashed);
            EXPECT_EQ(fa.hang_multiplier, fb.hang_multiplier);
        }
    }
}

TEST(ControlFaults, CertainCrashAlwaysCrashes) {
    control_fault_options opts;
    opts.crash_probability = 1.0;
    control_fault_injector inj(opts, 7);
    for (std::size_t pod = 0; pod < 16; ++pod) {
        const auto f = inj.on_pod_step(pod);
        EXPECT_TRUE(f.crashed);
        EXPECT_EQ(f.hang_multiplier, 1.0);  // crashed pods do not also hang
    }
}

TEST(ControlFaults, CertainHangInflatesWithinTheConfiguredRange) {
    control_fault_options opts;
    opts.hang_probability = 1.0;
    opts.hang_multiplier = 6.0;
    control_fault_injector inj(opts, 7);
    for (std::size_t pod = 0; pod < 16; ++pod) {
        const auto f = inj.on_pod_step(pod);
        EXPECT_FALSE(f.crashed);
        EXPECT_GE(f.hang_multiplier, 1.0);
        EXPECT_LE(f.hang_multiplier, opts.hang_multiplier);
    }
}

// The "always both draws" discipline: mixed probabilities consume exactly two
// draws per verdict, so the verdict for draw k never depends on what earlier
// verdicts were. Two injectors fed different pod ids must still produce the
// same k-th verdict — the stream depends only on seed and call count.
TEST(ControlFaults, VerdictStreamIsPositionalNotPodDependent) {
    control_fault_options opts;
    opts.crash_probability = 0.3;
    opts.hang_probability = 0.3;
    control_fault_injector a(opts, 2024);
    control_fault_injector b(opts, 2024);
    for (int k = 0; k < 64; ++k) {
        const auto fa = a.on_pod_step(static_cast<std::size_t>(k % 3));
        const auto fb = b.on_pod_step(static_cast<std::size_t>(k % 7));
        EXPECT_EQ(fa.crashed, fb.crashed) << "draw " << k;
        EXPECT_EQ(fa.hang_multiplier, fb.hang_multiplier) << "draw " << k;
    }
}

TEST(ControlFaults, RejectsIllegalOptions) {
    {
        control_fault_options opts;
        opts.crash_probability = -0.1;
        EXPECT_THROW(control_fault_injector(opts, 1), invariant_error);
    }
    {
        control_fault_options opts;
        opts.crash_probability = 0.7;
        opts.hang_probability = 0.7;  // sum > 1
        EXPECT_THROW(control_fault_injector(opts, 1), invariant_error);
    }
    {
        control_fault_options opts;
        opts.hang_probability = 0.5;
        opts.hang_multiplier = 0.5;  // < 1 would *shrink* decisions
        EXPECT_THROW(control_fault_injector(opts, 1), invariant_error);
    }
}

}  // namespace
}  // namespace mistral::sim
