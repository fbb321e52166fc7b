// Workload bands, stability-interval measurement, and telemetry validation.
//
// Section II-B / III-D: the stability interval for an application at time t
// is how long its workload stays within ±b/2 of the level measured at t. The
// monitor maintains one band per application, reports band exits (which are
// what trigger a Mistral controller), and records the measured stability
// intervals that feed the ARMA predictor.
//
// The telemetry_validator guards the sensing side of that loop: real
// monitoring pipelines drop windows, latch sensors, and deliver spiked or
// outright garbage counters, and a controller that feeds such a window
// straight into its optimizer adapts confidently to a workload that does not
// exist. The validator grades every observation window (finiteness, range,
// empty-window, jump, and stuck-at staleness checks) into a per-window
// quality verdict and substitutes the last healthy measurement for values
// that would poison downstream consumers (a NaN rate would abort in the
// evaluator's begin_decision; an empty window has no defined mean response
// time).
// On healthy telemetry the verdict passes the measured values through
// untouched, so a validating controller is byte-identical to a
// non-validating one until a fault actually arrives.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.h"

namespace mistral::wl {

struct band {
    req_per_sec center = 0.0;
    req_per_sec width = 0.0;  // total width b; the band is center ± width/2

    [[nodiscard]] bool contains(req_per_sec rate) const {
        return rate >= center - width / 2.0 && rate <= center + width / 2.0;
    }
};

// What one call to workload_monitor::observe found.
struct monitor_event {
    bool any_exceeded = false;             // at least one application left its band
    std::vector<std::size_t> exceeded;     // indices of applications out of band
    // Measured stability intervals that *completed* at this observation, one
    // entry per exceeded application (same order as `exceeded`).
    std::vector<seconds> completed_intervals;
};

// One monitoring interval's raw telemetry, as delivered by the measurement
// pipeline (and possibly corrupted by sim::sensor_fault_injector before the
// controller sees it). `response_times` and `samples` are optional channels:
// empty means the pipeline does not report them.
struct telemetry_window {
    seconds time = 0.0;
    seconds duration = 0.0;
    std::vector<req_per_sec> rates;         // measured per-app arrival rates
    std::vector<seconds> response_times;    // measured per-app mean RT (optional)
    std::vector<double> samples;            // completed requests per app (optional)
};

// Per-window telemetry grade. `healthy` windows are safe to optimize
// against; `degraded` windows carry suspicious but finite values (jumps,
// out-of-range clamps, empty windows, stuck sensors); `garbage` windows
// contained values no physical sensor can produce (NaN/inf/negative).
enum class window_quality { healthy, degraded, garbage };
[[nodiscard]] const char* to_string(window_quality q);

// Why a window (or one application's channel in it) was not healthy.
enum quality_flags : unsigned {
    quality_ok = 0,
    quality_nonfinite = 1u << 0,     // NaN / inf / negative measurement
    quality_out_of_range = 1u << 1,  // beyond the configured physical ceiling
    quality_empty = 1u << 2,         // zero completed requests in the window
    quality_jump = 1u << 3,          // implausible move vs. last healthy value
    quality_stale = 1u << 4,         // bit-identical readings for too long
};
[[nodiscard]] std::string describe_flags(unsigned flags);

struct quality_verdict {
    window_quality quality = window_quality::healthy;
    unsigned flags = quality_ok;           // union over applications
    std::vector<unsigned> app_flags;       // per-application flags
    // Rates safe to hand to the monitor/evaluator: the measured value where
    // trustworthy (same bits — no arithmetic touches a healthy value), the
    // last healthy measurement (or the range clamp) where not.
    std::vector<req_per_sec> rates;

    [[nodiscard]] bool healthy() const { return quality == window_quality::healthy; }
};

struct validator_options {
    // Physical ceilings; measurements beyond them are clamped and flagged.
    req_per_sec max_rate = 1.0e5;
    seconds max_response_time = 3600.0;
    // Jump check against the last healthy rate: flag when the new rate
    // exceeds factor × last + slack (or falls below last / factor − slack).
    // 0 disables the check (the default: the paper's flash-crowd workloads
    // jump legitimately, so plausibility bounds are a per-deployment opt-in;
    // the default verdict only flags values that are physically impossible).
    double max_jump_factor = 0.0;
    req_per_sec jump_slack = 50.0;
    // Stuck-at detection: flag after this many consecutive bit-identical
    // readings. 0 disables the check (the default: synthetic harnesses and
    // tests legitimately feed constant rate vectors).
    int max_stuck_windows = 0;
};

// The validator's complete mutable state, one entry per application: its
// storage, and what exact-round-trip checkpoints (core/snapshot.h) carry.
struct validator_state {
    std::vector<req_per_sec> last_good;
    std::vector<bool> has_last_good;
    std::vector<req_per_sec> last_seen;  // for stuck-at detection
    std::vector<int> repeat_count;

    friend bool operator==(const validator_state&, const validator_state&) = default;
};

// Stateful grader for a stream of observation windows (one per monitoring
// interval). Deterministic; keeps the last healthy value per application for
// substitution and the repeat counts for staleness.
class telemetry_validator {
public:
    explicit telemetry_validator(std::size_t app_count,
                                 validator_options options = {});

    quality_verdict validate(const telemetry_window& window);

    [[nodiscard]] const validator_options& options() const { return options_; }
    [[nodiscard]] std::size_t app_count() const { return state_.last_good.size(); }

    // import_state refuses (invariant_error) a state whose four vectors do
    // not hold one entry per application: validate() indexes them per app.
    [[nodiscard]] validator_state export_state() const { return state_; }
    void import_state(const validator_state& s);

private:
    validator_options options_;
    validator_state state_;
};

// The monitor's complete mutable state, one entry per application in each
// vector: its storage, and what exact-round-trip checkpoints
// (core/snapshot.h) carry. `width` (a constructor argument) is not included —
// the restoring side constructs with the same width it was built with.
struct monitor_state {
    double scale = 1.0;
    bool initialized = false;
    std::vector<req_per_sec> band_centers;
    std::vector<req_per_sec> band_widths;
    std::vector<seconds> band_set_at;             // when each band was centered
    std::vector<std::vector<seconds>> history;    // measured intervals, oldest first

    friend bool operator==(const monitor_state&, const monitor_state&) = default;
};

class workload_monitor {
public:
    // `band_width`: the width b applied to every application's band. A width
    // of zero makes any rate change an exit, which is how the paper's
    // first-level controller is configured.
    workload_monitor(std::size_t app_count, req_per_sec band_width);

    // import_state refuses (invariant_error) a state whose vectors do not
    // hold one entry per application.
    [[nodiscard]] monitor_state export_state() const { return state_; }
    void import_state(const monitor_state& s);

    // Feeds one monitoring-interval measurement (one rate per application,
    // taken at `time`). On the first call, bands are centered on the
    // measurement and nothing is exceeded.
    monitor_event observe(seconds time, const std::vector<req_per_sec>& rates);

    // Re-centers every application's band on `rates` at `time` (done after
    // the controller has adapted to the new workload level).
    void recenter(seconds time, const std::vector<req_per_sec>& rates);

    [[nodiscard]] band band_of(std::size_t app) const;

    // All stability intervals measured so far for `app`, oldest first.
    [[nodiscard]] const std::vector<seconds>& measured_intervals(std::size_t app) const;

    [[nodiscard]] std::size_t app_count() const { return state_.band_centers.size(); }
    [[nodiscard]] req_per_sec band_width() const { return width_; }

    // Scales every band's effective width (≥ 1): the divergence guard widens
    // the bands while the stability predictor is drifting, so a controller
    // that cannot trust its interval predictions re-triggers less eagerly.
    // The scale applies at the next observe/recenter; 1.0 (the default) is
    // bit-exact to an unscaled monitor.
    void set_band_scale(double scale);
    [[nodiscard]] double band_scale() const { return state_.scale; }

private:
    req_per_sec width_;
    monitor_state state_;
};

}  // namespace mistral::wl
