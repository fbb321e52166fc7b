#include "predict/arma.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mistral::predict {

namespace {

// Appends `x` to a window of the last k values, dropping the oldest once the
// window is full.
void push_window(std::vector<double>& window, double x, int k) {
    window.push_back(x);
    if (window.size() > static_cast<std::size_t>(k)) window.erase(window.begin());
}

}  // namespace

stability_predictor::stability_predictor(arma_options options)
    : options_(options) {
    MISTRAL_CHECK(options_.history >= 1);
    MISTRAL_CHECK(options_.gamma >= 0.0 && options_.gamma <= 1.0);
    MISTRAL_CHECK(options_.initial_estimate > 0.0);
    const divergence_options& d = options_.divergence;
    MISTRAL_CHECK(d.slack >= 0.0);
    MISTRAL_CHECK(d.error_cap > d.slack);
    MISTRAL_CHECK(d.error_floor > 0.0);
    MISTRAL_CHECK(d.soft_threshold > 0.0);
    MISTRAL_CHECK(d.hard_threshold > d.soft_threshold);
    MISTRAL_CHECK(d.max_band_scale >= 1.0);
    MISTRAL_CHECK(d.drift_ceiling_factor >= 1.0);
    MISTRAL_CHECK(d.reestimate_order >= 1);
    MISTRAL_CHECK(d.reestimate_min_observations > d.reestimate_order + 1);
    MISTRAL_CHECK(d.reestimate_window >= d.reestimate_min_observations);
    MISTRAL_CHECK(d.reestimate_max_retries >= 0);
    MISTRAL_CHECK(d.reestimate_backoff >= 1);
    MISTRAL_CHECK(d.min_pivot > 0.0);
    state_.estimate = options_.initial_estimate;
}

void stability_predictor::import_state(const predictor_state& s) {
    MISTRAL_CHECK_MSG(s.all_estimates.size() == s.all_measured.size(),
                      "checkpoint has " << s.all_estimates.size() << " estimates for "
                                        << s.all_measured.size() << " measurements");
    state_ = s;
}

seconds stability_predictor::observe(seconds measured) {
    MISTRAL_CHECK(measured >= 0.0);
    state_.all_estimates.push_back(state_.estimate);
    state_.all_measured.push_back(measured);

    // Smoothed error ε_j from the prediction that was in force.
    const double current_error = std::abs(state_.estimate - measured);
    double hist_error = 0.0;
    if (!state_.recent_errors.empty()) {
        for (double e : state_.recent_errors) hist_error += e;
        hist_error /= static_cast<double>(state_.recent_errors.size());
    }
    const double epsilon = state_.recent_errors.empty()
                               ? current_error
                               : (1.0 - options_.gamma) * current_error +
                                     options_.gamma * hist_error;

    // β = 1 − ε_j / max over the last k+1 errors (including ε_j itself).
    double max_error = epsilon;
    for (double e : state_.recent_errors) max_error = std::max(max_error, e);
    state_.beta = max_error > 0.0 ? 1.0 - epsilon / max_error : 0.0;

    push_window(state_.recent_errors, epsilon, options_.history);

    // Next estimate: blend of the current measurement and the mean of the k
    // *previous* measurements (not including this one).
    double hist_measured = measured;  // fallback when no history exists yet
    if (!state_.recent_measured.empty()) {
        hist_measured = 0.0;
        for (double m : state_.recent_measured) hist_measured += m;
        hist_measured /= static_cast<double>(state_.recent_measured.size());
    }
    state_.estimate = (1.0 - state_.beta) * measured + state_.beta * hist_measured;

    push_window(state_.recent_measured, measured, options_.history);

    // The guard runs after (and never alters) the blend above; it can only
    // replace the estimate once a hard alarm has declared the blend untrusted.
    if (options_.divergence.enabled) update_guard(measured);
    return state_.estimate;
}

std::vector<forecast_band> stability_predictor::forecast_horizon(
    int k, const horizon_options& horizon) const {
    MISTRAL_CHECK(k >= 1);
    MISTRAL_CHECK(horizon.width_growth >= 1.0);
    MISTRAL_CHECK(horizon.trend_damping >= 0.0 && horizon.trend_damping <= 1.0);
    MISTRAL_CHECK(horizon.min_width_fraction >= 0.0);

    // Step 1 is the one-step prediction, bit-for-bit. (The estimate is finite
    // by construction — observe() rejects non-finite input via its range
    // check — but the fallback keeps the API total under any future caller.)
    double center =
        std::isfinite(state_.estimate) ? state_.estimate : options_.initial_estimate;

    // Step-1 uncertainty: the smoothed recent prediction errors, floored so a
    // perfectly tracking filter still reports nonzero spread, scaled by the
    // divergence guard's band multiplier (a drifting filter is less certain).
    double base_width = 0.0;
    if (!state_.recent_errors.empty()) {
        for (double e : state_.recent_errors) base_width += e;
        base_width /= static_cast<double>(state_.recent_errors.size());
    }
    const double floor =
        horizon.min_width_fraction * std::max(std::abs(center), 1.0);
    double width = std::max(base_width, floor) * band_multiplier();
    if (!std::isfinite(width)) width = floor;

    // Damped trend over the history window's endpoints: the mean successive
    // difference of the last k measurements.
    double slope = 0.0;
    if (state_.recent_measured.size() >= 2) {
        slope = (state_.recent_measured.back() - state_.recent_measured.front()) /
                static_cast<double>(state_.recent_measured.size() - 1);
    }
    if (!std::isfinite(slope)) slope = 0.0;

    std::vector<forecast_band> out;
    out.reserve(static_cast<std::size_t>(k));
    double damp = 1.0;
    for (int i = 0; i < k; ++i) {
        if (i > 0) {
            // Non-finite arithmetic (overflow from extreme-but-finite state)
            // keeps the previous step's values: centers stay finite, widths
            // stay non-decreasing (equal counts as non-tightening).
            const double next_center = center + slope * damp;
            if (std::isfinite(next_center)) center = std::max(0.0, next_center);
            damp *= horizon.trend_damping;
            const double next_width = width * horizon.width_growth;
            if (std::isfinite(next_width)) width = next_width;
        }
        out.push_back({center, width});
    }
    return out;
}

double stability_predictor::mape_percent() const {
    const std::vector<seconds>& measured = state_.all_measured;
    const std::vector<seconds>& estimates = state_.all_estimates;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t j = 1; j < measured.size(); ++j) {
        if (measured[j] <= 0.0) continue;
        sum += std::abs(estimates[j] - measured[j]) / measured[j];
        ++n;
    }
    return n ? 100.0 * sum / static_cast<double>(n) : 0.0;
}

// --- divergence guard -------------------------------------------------------

double stability_predictor::band_multiplier() const {
    const divergence_options& d = options_.divergence;
    if (!d.enabled || state_.cusum <= d.soft_threshold) return 1.0;
    const double t = std::min(
        1.0, (state_.cusum - d.soft_threshold) / (d.hard_threshold - d.soft_threshold));
    return 1.0 + t * (d.max_band_scale - 1.0);
}

bool stability_predictor::reestimation_exhausted() const {
    return !state_.trusted && !state_.fit_valid &&
           state_.fit_attempts >= options_.divergence.reestimate_max_retries;
}

void stability_predictor::update_guard(seconds measured) {
    const divergence_options& d = options_.divergence;
    // Skip the first observation: its "prediction" is the cold-start
    // constant, not something the filter produced (same reasoning as
    // mape_percent skipping j = 0).
    if (state_.all_measured.size() < 2) return;
    const double in_force = state_.all_estimates.back();
    const double norm_error =
        std::min(std::abs(in_force - measured) / std::max(measured, d.error_floor),
                 d.error_cap);
    state_.cusum = std::max(0.0, state_.cusum + norm_error - d.slack);
    state_.cusum = std::min(state_.cusum, d.hard_threshold * d.drift_ceiling_factor);

    if (state_.trusted && state_.cusum >= d.hard_threshold) {
        state_.trusted = false;
        ++state_.divergence_count;
        state_.fit_attempts = 0;
        state_.fit_valid = false;
        state_.next_fit_at = state_.all_measured.size();  // eligible immediately
    } else if (!state_.trusted && state_.cusum < d.soft_threshold) {
        // Predictions track again; return to the paper's blend.
        state_.trusted = true;
        state_.fit_valid = false;
        state_.fit_coeffs.clear();
    }

    if (!state_.trusted) attempt_reestimate();
}

void stability_predictor::attempt_reestimate() {
    const divergence_options& d = options_.divergence;
    if (state_.fit_valid) {
        state_.estimate = ar_predict();
        return;
    }
    if (state_.fit_attempts >= d.reestimate_max_retries) return;  // exhausted: keep blend
    if (state_.all_measured.size() < state_.next_fit_at) return;  // backing off
    ++state_.fit_attempts;
    if (fit_ar()) {
        state_.fit_valid = true;
        state_.estimate = ar_predict();
    } else {
        // Ill-conditioned (or not enough history): wait for more data, with
        // the wait doubling on every further failure.
        const std::size_t backoff = static_cast<std::size_t>(d.reestimate_backoff)
                                    << (state_.fit_attempts - 1);
        state_.next_fit_at = state_.all_measured.size() + backoff;
    }
}

bool stability_predictor::fit_ar() {
    const divergence_options& d = options_.divergence;
    const int p = d.reestimate_order;
    const std::vector<seconds>& history = state_.all_measured;
    const std::size_t total = history.size();
    if (total < static_cast<std::size_t>(d.reestimate_min_observations)) {
        return false;
    }
    const std::size_t window =
        std::min(total, static_cast<std::size_t>(d.reestimate_window));
    const std::size_t first = total - window;

    // Least squares for y_t = Σ_i c_i·y_{t−1−i} + intercept over the window,
    // via the (p+1)×(p+1) normal equations.
    const int m = p + 1;
    std::vector<double> ata(static_cast<std::size_t>(m) * m, 0.0);
    std::vector<double> atb(m, 0.0);
    std::size_t rows = 0;
    for (std::size_t t = first + static_cast<std::size_t>(p); t < total; ++t) {
        std::vector<double> x(m, 1.0);  // x[p] stays 1 (intercept)
        for (int i = 0; i < p; ++i) {
            x[static_cast<std::size_t>(i)] = history[t - 1 - static_cast<std::size_t>(i)];
        }
        const double y = history[t];
        for (int r = 0; r < m; ++r) {
            for (int c = 0; c < m; ++c) {
                ata[static_cast<std::size_t>(r) * m + c] += x[r] * x[c];
            }
            atb[static_cast<std::size_t>(r)] += x[r] * y;
        }
        ++rows;
    }
    if (rows < static_cast<std::size_t>(2 * m)) return false;

    // Gaussian elimination with partial pivoting; a pivot below
    // min_pivot × (largest diagonal magnitude) marks the system singular —
    // e.g. a constant history makes the lag columns collinear with the
    // intercept.
    double scale = 0.0;
    for (int i = 0; i < m; ++i) {
        scale = std::max(scale, std::abs(ata[static_cast<std::size_t>(i) * m + i]));
    }
    if (scale <= 0.0) return false;
    for (int col = 0; col < m; ++col) {
        int pivot_row = col;
        double pivot = std::abs(ata[static_cast<std::size_t>(col) * m + col]);
        for (int r = col + 1; r < m; ++r) {
            const double v = std::abs(ata[static_cast<std::size_t>(r) * m + col]);
            if (v > pivot) {
                pivot = v;
                pivot_row = r;
            }
        }
        if (pivot < d.min_pivot * scale) return false;  // singular
        if (pivot_row != col) {
            for (int c = 0; c < m; ++c) {
                std::swap(ata[static_cast<std::size_t>(col) * m + c],
                          ata[static_cast<std::size_t>(pivot_row) * m + c]);
            }
            std::swap(atb[static_cast<std::size_t>(col)],
                      atb[static_cast<std::size_t>(pivot_row)]);
        }
        const double diag = ata[static_cast<std::size_t>(col) * m + col];
        for (int r = col + 1; r < m; ++r) {
            const double factor = ata[static_cast<std::size_t>(r) * m + col] / diag;
            if (factor == 0.0) continue;
            for (int c = col; c < m; ++c) {
                ata[static_cast<std::size_t>(r) * m + c] -=
                    factor * ata[static_cast<std::size_t>(col) * m + c];
            }
            atb[static_cast<std::size_t>(r)] -= factor * atb[static_cast<std::size_t>(col)];
        }
    }
    std::vector<double> coeffs(m, 0.0);
    for (int r = m - 1; r >= 0; --r) {
        double v = atb[static_cast<std::size_t>(r)];
        for (int c = r + 1; c < m; ++c) {
            v -= ata[static_cast<std::size_t>(r) * m + c] * coeffs[static_cast<std::size_t>(c)];
        }
        v /= ata[static_cast<std::size_t>(r) * m + r];
        if (!std::isfinite(v)) return false;
        coeffs[static_cast<std::size_t>(r)] = v;
    }
    state_.fit_coeffs = std::move(coeffs);
    return true;
}

seconds stability_predictor::ar_predict() const {
    const int p = options_.divergence.reestimate_order;
    MISTRAL_CHECK(state_.fit_coeffs.size() == static_cast<std::size_t>(p) + 1);
    MISTRAL_CHECK(state_.all_measured.size() >= static_cast<std::size_t>(p));
    double out = state_.fit_coeffs.back();  // intercept
    const std::size_t total = state_.all_measured.size();
    for (int i = 0; i < p; ++i) {
        out += state_.fit_coeffs[static_cast<std::size_t>(i)] *
               state_.all_measured[total - 1 - static_cast<std::size_t>(i)];
    }
    // A stability interval is a duration: clamp the regression output to a
    // strictly positive floor so downstream CW clamping stays well-defined.
    return std::max(out, 1.0);
}

}  // namespace mistral::predict
