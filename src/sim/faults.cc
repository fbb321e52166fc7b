#include "sim/faults.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace mistral::sim {

namespace {

constexpr seconds no_event = std::numeric_limits<double>::infinity();

}  // namespace

bool fault_options::inert() const {
    for (double p : failure_probability) {
        if (p > 0.0) return false;
    }
    for (double p : straggler_probability) {
        if (p > 0.0) return false;
    }
    return host_crashes.empty();
}

fault_options fault_options::uniform(double fail_probability,
                                     double straggle_probability) {
    fault_options out;
    out.failure_probability.fill(fail_probability);
    out.straggler_probability.fill(straggle_probability);
    return out;
}

fault_injector::fault_injector(fault_options options, std::uint64_t seed)
    : options_(std::move(options)), draws_(seed), inert_(options_.inert()) {
    for (double p : options_.failure_probability) {
        MISTRAL_CHECK_MSG(p >= 0.0 && p <= 1.0, "failure probability " << p);
    }
    for (double p : options_.straggler_probability) {
        MISTRAL_CHECK_MSG(p >= 0.0 && p <= 1.0, "straggler probability " << p);
    }
    MISTRAL_CHECK(options_.straggler_multiplier >= 1.0);
    MISTRAL_CHECK(options_.failure_duration_fraction >= 0.0 &&
                  options_.failure_duration_fraction <= 1.0);
    std::stable_sort(options_.host_crashes.begin(), options_.host_crashes.end(),
                     [](const host_crash_event& a, const host_crash_event& b) {
                         return a.at < b.at;
                     });
}

fault_decision fault_injector::on_action_start(const cluster::action& a) {
    fault_decision out;
    if (inert_) return out;
    const auto kind = static_cast<std::size_t>(cluster::kind_of(a));
    // Two draws per starting action, always both, so the decision for action
    // N never depends on which faults earlier actions happened to hit.
    const double fail_draw = draws_.uniform();
    const double straggle_draw = draws_.uniform();
    if (fail_draw < options_.failure_probability[kind]) {
        out.fail = true;
        return out;
    }
    if (straggle_draw < options_.straggler_probability[kind]) {
        out.duration_multiplier =
            draws_.uniform(1.0, options_.straggler_multiplier);
    }
    return out;
}

seconds fault_injector::next_event_time() const {
    seconds next = no_event;
    if (next_crash_ < options_.host_crashes.size()) {
        next = std::min(next, options_.host_crashes[next_crash_].at);
    }
    for (const auto& r : recoveries_) {
        next = std::min(next, r.at);
    }
    return next;
}

std::vector<host_crash_event> fault_injector::take_crashes_due(seconds t) {
    std::vector<host_crash_event> due;
    while (next_crash_ < options_.host_crashes.size() &&
           options_.host_crashes[next_crash_].at <= t) {
        const auto& ev = options_.host_crashes[next_crash_];
        due.push_back(ev);
        if (ev.recover_after > 0.0) {
            recoveries_.push_back({ev.at + ev.recover_after, ev.host});
            std::stable_sort(recoveries_.begin(), recoveries_.end(),
                             [](const pending_recovery& a, const pending_recovery& b) {
                                 return a.at < b.at;
                             });
        }
        ++next_crash_;
    }
    return due;
}

std::vector<std::int32_t> fault_injector::take_recoveries_due(seconds t) {
    std::vector<std::int32_t> due;
    auto it = recoveries_.begin();
    while (it != recoveries_.end() && it->at <= t) {
        due.push_back(it->host);
        ++it;
    }
    recoveries_.erase(recoveries_.begin(), it);
    return due;
}

// ---------------------------------------------------------------------------
// Sensor-level fault injection.

const char* to_string(sensor_fault_kind kind) {
    switch (kind) {
        case sensor_fault_kind::none: return "none";
        case sensor_fault_kind::drop: return "drop";
        case sensor_fault_kind::delay: return "delay";
        case sensor_fault_kind::duplicate: return "duplicate";
        case sensor_fault_kind::spike: return "spike";
        case sensor_fault_kind::garbage: return "garbage";
        case sensor_fault_kind::stuck: return "stuck";
    }
    return "?";
}

bool sensor_fault_options::inert() const {
    return drop_probability <= 0.0 && delay_probability <= 0.0 &&
           duplicate_probability <= 0.0 && spike_probability <= 0.0 &&
           garbage_probability <= 0.0 && stuck_probability <= 0.0;
}

sensor_fault_options sensor_fault_options::uniform(double probability) {
    sensor_fault_options out;
    out.drop_probability = probability;
    out.delay_probability = probability;
    out.duplicate_probability = probability;
    out.spike_probability = probability;
    out.garbage_probability = probability;
    out.stuck_probability = probability;
    return out;
}

sensor_fault_injector::sensor_fault_injector(sensor_fault_options options,
                                             std::uint64_t seed)
    : options_(options), draws_(seed), inert_(options_.inert()) {
    const double probabilities[] = {
        options_.drop_probability,      options_.delay_probability,
        options_.duplicate_probability, options_.spike_probability,
        options_.garbage_probability,   options_.stuck_probability,
    };
    double sum = 0.0;
    for (double p : probabilities) {
        MISTRAL_CHECK_MSG(p >= 0.0 && p <= 1.0, "sensor fault probability " << p);
        sum += p;
    }
    MISTRAL_CHECK_MSG(sum <= 1.0 + 1e-12,
                      "sensor fault probabilities sum to " << sum);
    MISTRAL_CHECK(options_.spike_multiplier >= 2.0);
    MISTRAL_CHECK(options_.stuck_windows >= 1);
}

std::vector<telemetry_fault> sensor_fault_injector::corrupt(
    wl::telemetry_window& window) {
    std::vector<telemetry_fault> faults;
    if (inert_) return faults;

    const std::size_t n = window.rates.size();
    if (apps_.empty()) apps_.resize(n);
    MISTRAL_CHECK_MSG(apps_.size() == n,
                      "telemetry app count changed mid-run: " << apps_.size()
                                                              << " -> " << n);
    const bool has_rt = !window.response_times.empty();
    const bool has_samples = !window.samples.empty();

    for (std::size_t a = 0; a < n; ++a) {
        app_state& st = apps_[a];
        // Both draws happen unconditionally — even while a latch is active —
        // so the fault schedule for later windows never shifts.
        const double kind_draw = draws_.uniform();
        const double magnitude_draw = draws_.uniform();

        const double true_rate = window.rates[a];
        const double true_rt = has_rt ? window.response_times[a] : 0.0;
        const double true_samples = has_samples ? window.samples[a] : 0.0;

        auto deliver = [&](double rate, double rt, double samples) {
            window.rates[a] = rate;
            if (has_rt) window.response_times[a] = rt;
            if (has_samples) window.samples[a] = samples;
        };

        sensor_fault_kind applied = sensor_fault_kind::none;
        if (st.latch_left > 0) {
            // A previously stuck sensor keeps repeating its latched value.
            deliver(st.prev_delivered_rate, st.prev_delivered_rt,
                    st.prev_delivered_samples);
            --st.latch_left;
            applied = sensor_fault_kind::stuck;
        } else {
            double edge = options_.drop_probability;
            if (kind_draw < edge) {
                applied = sensor_fault_kind::drop;
            } else if (kind_draw < (edge += options_.delay_probability)) {
                applied = sensor_fault_kind::delay;
            } else if (kind_draw < (edge += options_.duplicate_probability)) {
                applied = sensor_fault_kind::duplicate;
            } else if (kind_draw < (edge += options_.spike_probability)) {
                applied = sensor_fault_kind::spike;
            } else if (kind_draw < (edge += options_.garbage_probability)) {
                applied = sensor_fault_kind::garbage;
            } else if (kind_draw < (edge += options_.stuck_probability)) {
                applied = sensor_fault_kind::stuck;
            }
            // Faults that need a previous window degrade to no-ops on the
            // very first one.
            if ((applied == sensor_fault_kind::delay ||
                 applied == sensor_fault_kind::stuck) &&
                !st.has_prev) {
                applied = sensor_fault_kind::none;
            }
            switch (applied) {
                case sensor_fault_kind::none:
                    break;
                case sensor_fault_kind::drop:
                    deliver(0.0, 0.0, 0.0);
                    break;
                case sensor_fault_kind::delay:
                    deliver(st.prev_true_rate, st.prev_true_rt,
                            st.prev_true_samples);
                    break;
                case sensor_fault_kind::duplicate:
                    deliver(true_rate * 2.0, true_rt, true_samples * 2.0);
                    break;
                case sensor_fault_kind::spike:
                    deliver(true_rate *
                                (2.0 + magnitude_draw *
                                           (options_.spike_multiplier - 2.0)),
                            true_rt, true_samples);
                    break;
                case sensor_fault_kind::garbage: {
                    double bad;
                    if (magnitude_draw < 0.25) {
                        bad = std::numeric_limits<double>::quiet_NaN();
                    } else if (magnitude_draw < 0.5) {
                        bad = std::numeric_limits<double>::infinity();
                    } else if (magnitude_draw < 0.75) {
                        bad = -(true_rate + 1.0);
                    } else {
                        bad = 1.0e18;
                    }
                    deliver(bad, true_rt, true_samples);
                    break;
                }
                case sensor_fault_kind::stuck:
                    deliver(st.prev_delivered_rate, st.prev_delivered_rt,
                            st.prev_delivered_samples);
                    st.latch_left = options_.stuck_windows - 1;
                    break;
            }
        }

        if (applied != sensor_fault_kind::none) {
            faults.push_back({a, applied});
        }
        st.prev_true_rate = true_rate;
        st.prev_true_rt = true_rt;
        st.prev_true_samples = true_samples;
        st.prev_delivered_rate = window.rates[a];
        st.prev_delivered_rt = has_rt ? window.response_times[a] : 0.0;
        st.prev_delivered_samples = has_samples ? window.samples[a] : 0.0;
        st.has_prev = true;
    }
    return faults;
}

// ---------------------------------------------------------------------------
// Control-plane fault injection.

bool control_fault_options::inert() const {
    return crash_probability <= 0.0 && hang_probability <= 0.0;
}

control_fault_injector::control_fault_injector(control_fault_options options,
                                               std::uint64_t seed)
    : options_(std::move(options)), draws_(seed), inert_(options_.inert()) {
    MISTRAL_CHECK_MSG(
        options_.crash_probability >= 0.0 && options_.crash_probability <= 1.0,
        "crash probability " << options_.crash_probability);
    MISTRAL_CHECK_MSG(
        options_.hang_probability >= 0.0 && options_.hang_probability <= 1.0,
        "hang probability " << options_.hang_probability);
    MISTRAL_CHECK_MSG(
        options_.crash_probability + options_.hang_probability <= 1.0 + 1e-12,
        "control fault probabilities sum to "
            << options_.crash_probability + options_.hang_probability);
    MISTRAL_CHECK(options_.hang_multiplier >= 1.0);
}

control_fault control_fault_injector::on_pod_step(std::size_t) {
    control_fault out;
    if (inert_) return out;
    // Two draws per pod per interval, always both, so the fault hitting pod k
    // never depends on which faults earlier pods happened to hit.
    const double kind_draw = draws_.uniform();
    const double magnitude_draw = draws_.uniform();
    if (kind_draw < options_.crash_probability) {
        out.crashed = true;
    } else if (kind_draw <
               options_.crash_probability + options_.hang_probability) {
        out.hang_multiplier =
            1.0 + magnitude_draw * (options_.hang_multiplier - 1.0);
    }
    return out;
}

}  // namespace mistral::sim
