#include "lqn/erlang.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"

namespace mistral::lqn {
namespace {

TEST(ErlangC, SingleServerMatchesMm1) {
    // For m = 1, C(1, a) = a (probability of waiting equals utilization).
    for (double a : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        EXPECT_NEAR(erlang_c(a, 1), a, 1e-9);
    }
}

TEST(ErlangC, ZeroLoadNeverWaits) {
    EXPECT_DOUBLE_EQ(erlang_c(0.0, 4), 0.0);
}

TEST(ErlangC, SaturationAlwaysWaits) {
    EXPECT_DOUBLE_EQ(erlang_c(4.0, 4), 1.0);
    EXPECT_DOUBLE_EQ(erlang_c(10.0, 4), 1.0);
}

TEST(ErlangC, KnownTextbookValue) {
    // C(m=2, a=1) = 1/3 for an M/M/2 at rho = 0.5.
    EXPECT_NEAR(erlang_c(1.0, 2), 1.0 / 3.0, 1e-9);
}

// Independent oracle: Erlang-C by direct summation,
//   C(m, a) = T·m/(m − a) / (Σ_{k<m} a^k/k! + T·m/(m − a)),  T = a^m/m!,
// with a^k/k! carried as a running term. Stable for a < m ≤ 64 (the
// largest term stays below e^64).
double erlang_c_by_summation(double a, int m) {
    double term = 1.0;  // a^0 / 0!
    double below = 0.0;
    for (int k = 0; k < m; ++k) {
        below += term;
        term *= a / static_cast<double>(k + 1);
    }
    const double servers = static_cast<double>(m);
    const double waiting = term * servers / (servers - a);
    return waiting / (below + waiting);
}

TEST(ErlangC, MatchesDirectSummationAcrossServerCounts) {
    for (int m = 1; m <= 64; ++m) {
        for (int step = 1; step < 50; ++step) {
            const double a = static_cast<double>(m) * step / 50.0;
            const double want = erlang_c_by_summation(a, m);
            const double got = erlang_c(a, m);
            ASSERT_LE(std::abs(got - want), 1e-12 * want)
                << "m=" << m << " a=" << a;
        }
    }
}

TEST(ErlangC, TextbookValues) {
    EXPECT_NEAR(erlang_c(2.0, 3), 4.0 / 9.0, 1e-15);
    EXPECT_NEAR(erlang_c(2.0, 4), 4.0 / 23.0, 1e-15);
}

TEST(MmmWait, MatchesTheErlangCOracleUpToTheOverloadClamp) {
    for (const int m : {1, 2, 3, 8, 16, 64}) {
        for (const double s : {0.01, 0.25, 1.0}) {
            for (int step = 1; step <= 49; ++step) {
                const double rho = 0.02 * step;  // 0.02 … 0.98
                const double lambda = rho * m / s;
                const double a = lambda * s;
                if (a / m > 0.98) continue;  // the overload branch takes over
                const double want =
                    erlang_c_by_summation(a, m) * s / (static_cast<double>(m) - a);
                const double got = mm_m_wait(lambda, s, m);
                ASSERT_LE(std::abs(got - want), 1e-12 * want)
                    << "m=" << m << " s=" << s << " rho=" << rho;
            }
        }
    }
}

TEST(ErlangC, MonotoneInOfferedLoad) {
    double prev = -1.0;
    for (double a = 0.0; a < 8.0; a += 0.1) {
        const double c = erlang_c(a, 8);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

TEST(ErlangC, MoreServersWaitLessAtSameRho) {
    // At equal per-server utilization, pooling reduces waiting probability.
    const double rho = 0.8;
    EXPECT_GT(erlang_c(rho * 2, 2), erlang_c(rho * 8, 8));
}

TEST(ErlangC, RejectsBadArguments) {
    EXPECT_THROW(erlang_c(1.0, 0), invariant_error);
    EXPECT_THROW(erlang_c(-1.0, 2), invariant_error);
}

TEST(MmmWait, ZeroArrivalsNoWait) {
    EXPECT_DOUBLE_EQ(mm_m_wait(0.0, 1.0, 4), 0.0);
}

TEST(MmmWait, Mm1ClosedForm) {
    // W_q = rho·s / (1 − rho) for M/M/1: 0.5·1/(1−0.5) = 1.
    const double lambda = 0.5, s = 1.0;
    EXPECT_NEAR(mm_m_wait(lambda, s, 1), 1.0, 1e-9);
}

TEST(MmmWait, MonotoneInArrivalRateThroughOverload) {
    double prev = -1.0;
    for (double lambda = 0.0; lambda < 20.0; lambda += 0.25) {
        const double w = mm_m_wait(lambda, 1.0, 8);
        EXPECT_GE(w, prev - 1e-12) << "at lambda " << lambda;
        prev = w;
    }
}

TEST(MmmWait, FiniteUnderDeepOverload) {
    const double w = mm_m_wait(100.0, 1.0, 4);
    EXPECT_TRUE(std::isfinite(w));
    EXPECT_GT(w, mm_m_wait(4.0, 1.0, 4));
}

TEST(MmmWait, ContinuousAcrossOverloadClamp) {
    // Values just below and above the 0.98 occupancy clamp stay close.
    const int m = 10;
    const double s = 0.5;
    const double below = mm_m_wait(0.979 * m / s, s, m);
    const double above = mm_m_wait(0.981 * m / s, s, m);
    EXPECT_NEAR(below, above, below * 0.5 + 0.2);
}

TEST(MmmWait, ScalesWithHoldingTime) {
    const double w1 = mm_m_wait(2.0, 1.0, 4);
    const double w2 = mm_m_wait(1.0, 2.0, 4);  // same offered load
    EXPECT_NEAR(w2, 2.0 * w1, 1e-9);
}

}  // namespace
}  // namespace mistral::lqn
