#include "workload/monitor.h"

#include <cmath>

#include "common/check.h"

namespace mistral::wl {

const char* to_string(window_quality q) {
    switch (q) {
        case window_quality::healthy: return "healthy";
        case window_quality::degraded: return "degraded";
        case window_quality::garbage: return "garbage";
    }
    return "?";
}

std::string describe_flags(unsigned flags) {
    if (flags == quality_ok) return "ok";
    std::string out;
    auto add = [&](unsigned bit, const char* name) {
        if ((flags & bit) == 0) return;
        if (!out.empty()) out += '|';
        out += name;
    };
    add(quality_nonfinite, "nonfinite");
    add(quality_out_of_range, "out_of_range");
    add(quality_empty, "empty");
    add(quality_jump, "jump");
    add(quality_stale, "stale");
    return out;
}

telemetry_validator::telemetry_validator(std::size_t app_count,
                                         validator_options options)
    : options_(options) {
    MISTRAL_CHECK(app_count > 0);
    MISTRAL_CHECK(options_.max_rate > 0.0);
    MISTRAL_CHECK(options_.max_response_time > 0.0);
    MISTRAL_CHECK(options_.max_jump_factor == 0.0 || options_.max_jump_factor > 1.0);
    MISTRAL_CHECK(options_.jump_slack >= 0.0);
    MISTRAL_CHECK(options_.max_stuck_windows >= 0);
    state_.last_good.assign(app_count, 0.0);
    state_.has_last_good.assign(app_count, false);
    state_.last_seen.assign(app_count, 0.0);
    state_.repeat_count.assign(app_count, 0);
}

void telemetry_validator::import_state(const validator_state& s) {
    const std::size_t n = app_count();
    MISTRAL_CHECK_MSG(s.last_good.size() == n && s.has_last_good.size() == n &&
                          s.last_seen.size() == n && s.repeat_count.size() == n,
                      "checkpoint validator state does not cover " << n << " apps");
    state_ = s;
}

quality_verdict telemetry_validator::validate(const telemetry_window& window) {
    const std::size_t n = app_count();
    MISTRAL_CHECK_MSG(window.rates.size() == n,
                      "expected " << n << " rates, got " << window.rates.size());
    MISTRAL_CHECK(window.response_times.empty() || window.response_times.size() == n);
    MISTRAL_CHECK(window.samples.empty() || window.samples.size() == n);

    quality_verdict verdict;
    verdict.app_flags.assign(n, quality_ok);
    verdict.rates = window.rates;

    for (std::size_t a = 0; a < n; ++a) {
        unsigned& flags = verdict.app_flags[a];
        const req_per_sec r = window.rates[a];
        // Substitute for values no downstream consumer can digest.
        const req_per_sec fallback = state_.has_last_good[a] ? state_.last_good[a] : 0.0;

        // Staleness: exact bit repeats of the *reported* rate. Counted before
        // any substitution so a latched sensor is what is being measured.
        if (options_.max_stuck_windows > 0) {
            const req_per_sec seen = state_.last_seen[a];
            const bool same = !std::isnan(r) && !std::isnan(seen) && r == seen;
            state_.repeat_count[a] = same ? state_.repeat_count[a] + 1 : 0;
            if (state_.repeat_count[a] >= options_.max_stuck_windows) {
                flags |= quality_stale;
            }
        }
        state_.last_seen[a] = r;

        if (!std::isfinite(r) || r < 0.0) {
            flags |= quality_nonfinite;
            verdict.rates[a] = fallback;
        } else if (!window.samples.empty() && window.samples[a] <= 0.0) {
            // An empty window measured nothing: its rate/RT are undefined, so
            // the last healthy level stands in (satisfying the contract that
            // zero completed requests never yields NaN downstream).
            flags |= quality_empty;
            verdict.rates[a] = fallback;
        } else {
            if (r > options_.max_rate) {
                flags |= quality_out_of_range;
                verdict.rates[a] = options_.max_rate;
            }
            if (options_.max_jump_factor > 0.0 && state_.has_last_good[a]) {
                const req_per_sec lg = state_.last_good[a];
                const bool jump_up =
                    r > lg * options_.max_jump_factor + options_.jump_slack;
                const bool jump_down =
                    r < lg / options_.max_jump_factor - options_.jump_slack;
                if (jump_up || jump_down) flags |= quality_jump;
            }
        }

        if (!window.response_times.empty()) {
            const seconds rt = window.response_times[a];
            const bool empty = (flags & quality_empty) != 0;
            if (!empty && (!std::isfinite(rt) || rt < 0.0)) {
                flags |= quality_nonfinite;
            } else if (!empty && rt > options_.max_response_time) {
                flags |= quality_out_of_range;
            }
        }

        verdict.flags |= flags;
        // A finite, in-range, non-empty reading becomes the new reference
        // even when flagged as a jump or stale: a legitimate flash crowd must
        // not pin the validator to a pre-crowd level forever.
        if ((flags & (quality_nonfinite | quality_empty)) == 0) {
            state_.last_good[a] = verdict.rates[a];
            state_.has_last_good[a] = true;
        }
    }

    if ((verdict.flags & quality_nonfinite) != 0) {
        verdict.quality = window_quality::garbage;
    } else if (verdict.flags != quality_ok) {
        verdict.quality = window_quality::degraded;
    }
    return verdict;
}

workload_monitor::workload_monitor(std::size_t app_count, req_per_sec band_width)
    : width_(band_width) {
    MISTRAL_CHECK(app_count > 0);
    MISTRAL_CHECK(band_width >= 0.0);
    state_.band_centers.assign(app_count, 0.0);
    state_.band_widths.assign(app_count, 0.0);
    state_.band_set_at.assign(app_count, 0.0);
    state_.history.resize(app_count);
}

void workload_monitor::set_band_scale(double scale) {
    MISTRAL_CHECK(scale >= 1.0);
    state_.scale = scale;
}

void workload_monitor::import_state(const monitor_state& s) {
    const std::size_t n = app_count();
    MISTRAL_CHECK_MSG(s.band_centers.size() == n && s.band_widths.size() == n &&
                          s.band_set_at.size() == n && s.history.size() == n,
                      "checkpoint monitor state does not cover " << n << " apps");
    state_ = s;
}

monitor_event workload_monitor::observe(seconds time,
                                        const std::vector<req_per_sec>& rates) {
    MISTRAL_CHECK_MSG(rates.size() == app_count(),
                      "expected " << app_count() << " rates, got " << rates.size());
    for (const req_per_sec r : rates) {
        MISTRAL_CHECK_MSG(std::isfinite(r),
                          "monitor rates must be finite (validate telemetry first)");
    }
    monitor_event event;
    if (!state_.initialized) {
        recenter(time, rates);
        state_.initialized = true;
        return event;
    }
    for (std::size_t i = 0; i < rates.size(); ++i) {
        // The divergence guard's widening applies at check time; scale 1.0
        // multiplies exactly, so an unscaled monitor is bit-identical.
        const band scaled{state_.band_centers[i],
                          state_.band_widths[i] * state_.scale};
        if (!scaled.contains(rates[i])) {
            event.any_exceeded = true;
            event.exceeded.push_back(i);
            const seconds interval = time - state_.band_set_at[i];
            event.completed_intervals.push_back(interval);
            state_.history[i].push_back(interval);
        }
    }
    return event;
}

void workload_monitor::recenter(seconds time, const std::vector<req_per_sec>& rates) {
    MISTRAL_CHECK(rates.size() == app_count());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        MISTRAL_CHECK_MSG(std::isfinite(rates[i]),
                          "monitor rates must be finite (validate telemetry first)");
        state_.band_centers[i] = rates[i];
        state_.band_widths[i] = width_;
        state_.band_set_at[i] = time;
    }
}

band workload_monitor::band_of(std::size_t app) const {
    MISTRAL_CHECK(app < app_count());
    return {state_.band_centers[app], state_.band_widths[app]};
}

const std::vector<seconds>& workload_monitor::measured_intervals(std::size_t app) const {
    MISTRAL_CHECK(app < app_count());
    return state_.history[app];
}

}  // namespace mistral::wl
