// Metering the optimizer's own execution cost.
//
// Section IV-B: "Mistral measures the elapsed time of the search, T, the
// utility accrued of the current configuration, UT, and the power usage of
// the search procedure itself, UpwrT" — the controller is, uniquely, aware of
// the cost of its own decision making ("consuming power to save power").
//
// The meter is a deterministic model clock: it charges a fixed cost per child
// evaluation, calibrated so search durations land in the paper's regime
// (seconds for realistic searches, tens of seconds for the naive algorithm
// on 4-app scenarios — Fig. 10b / Table I). It prices the search's *work*
// (evaluations charged), not the calendar, so decision logic (self-aware
// pruning, hard stops) and every journaled duration replay identically on
// any host. The search charges its power self-cost on elapsed(): one busy
// worker for the search's duration.
#pragma once

#include <cstddef>

#include "common/units.h"

namespace mistral::core {

class model_clock_meter {
public:
    // Modeled seconds per child evaluation (cost lookup + utility estimate),
    // calibrated to the paper's Pentium-4 testbed.
    static constexpr seconds per_expansion = 0.002;
    // Extra power the busy search worker draws. The paper's Fig. 10a
    // measures up to 12 % over a 60 W idle host ≈ 7 W.
    static constexpr watts search_power = 7.2;

    // Called when a search starts; resets elapsed time.
    void begin() { expansions_ = 0; }
    // A batch of `evaluations` child evaluations (one expansion's children).
    void charge(std::size_t evaluations) { expansions_ += evaluations; }
    // One child evaluation.
    void on_expansion() { charge(1); }
    // Time spent searching since begin() — also the base the search's power
    // self-cost is charged against.
    [[nodiscard]] seconds elapsed() const {
        return per_expansion * static_cast<double>(expansions_);
    }
    [[nodiscard]] std::size_t expansions() const { return expansions_; }

private:
    std::size_t expansions_ = 0;
};

}  // namespace mistral::core
