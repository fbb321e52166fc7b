// Adaptive ARMA stability-interval predictor with a divergence guard.
//
// Section III-D: the next stability interval is predicted as
//
//     CW^e_{j+1} = (1 − β)·CW^m_j + β·(1/k)·Σ_{i=1..k} CW^m_{j−i}
//
// where β adapts via the error filter
//
//     ε_j = (1 − γ)·|CW^e_j − CW^m_j| + γ·(1/k)·Σ_{i=1..k} ε_{j−i}
//     β   = 1 − ε_j / max_{i=0..k} ε_{j−i}
//
// with history window k = 3 and γ = 0.5 in the paper's experiments. The
// filter leans on the current measurement when recent predictions tracked
// well and shifts toward history when they did not.
//
// The divergence guard watches the one-step prediction error with a CUSUM
// drift detector. Sustained drift first widens the workload bands (a
// controller that cannot trust its interval predictions should re-trigger
// less eagerly) and, past a hard threshold, declares the predictor
// *untrusted* and triggers a least-squares AR re-estimation over the
// measurement history. Re-estimation is retried a bounded number of times
// with doubling backoff when the regression is ill-conditioned (singular
// normal equations — e.g. a constant history), never propagating garbage
// coefficients. The guard is strictly additive: the β-blend arithmetic above
// is untouched, and while the predictor is trusted every estimate it emits
// is bit-identical to a guard-free build.
#pragma once

#include <vector>

#include "common/units.h"

namespace mistral::predict {

// CUSUM drift detection + AR re-estimation knobs.
struct divergence_options {
    bool enabled = true;
    // Normalized one-step error |CW^e − CW^m| / max(CW^m, error_floor) is
    // accumulated as cusum = max(0, cusum + error − slack). The first
    // observation is skipped: the cold-start estimate is a configured
    // constant, not a prediction.
    double slack = 1.5;
    seconds error_floor = 30.0;
    // Winsorized increment: each observation's normalized error is clamped to
    // this before the slack subtraction, so a single wild transition (a flash
    // crowd collapsing the measured interval under a still-long estimate) can
    // add at most error_cap − slack to the drift. Isolated organic jumps
    // drain on the next tracking observation; only a *persistent* streak of
    // large errors — the signature of corrupted telemetry or a genuinely
    // broken model — can climb to the thresholds.
    double error_cap = 2.5;
    // cusum ≥ soft_threshold starts widening the bands; ≥ hard_threshold
    // declares the predictor untrusted. Trust returns when the accumulated
    // drift drains back below soft_threshold.
    double soft_threshold = 3.0;
    double hard_threshold = 6.0;
    // Band widening ramps linearly from 1 at soft_threshold to this at
    // hard_threshold (and saturates there).
    double max_band_scale = 3.0;
    // The accumulated drift saturates at factor × hard_threshold, so recovery
    // latency is bounded: however long a divergence lasted, trust returns
    // after a bounded run of tracking observations.
    double drift_ceiling_factor = 2.0;
    // AR(p) re-estimation over the measurement history once untrusted.
    int reestimate_order = 2;
    int reestimate_min_observations = 8;
    int reestimate_window = 64;      // most recent measurements used for the fit
    int reestimate_max_retries = 3;
    int reestimate_backoff = 4;      // observations to wait after a failed fit,
                                     // doubling on each further retry
    double min_pivot = 1e-9;         // relative pivot floor → singular verdict
};

struct arma_options {
    int history = 3;         // k: measurements/errors remembered
    double gamma = 0.5;      // weight of historical error vs current error
    seconds initial_estimate = 600.0;  // estimate used before any data
    divergence_options divergence;
};

// One future step of a multi-interval forecast (forecast_horizon below): the
// filter's point prediction plus a symmetric uncertainty half-width. Bands
// only widen with lookahead depth — never tighten — so a receding-horizon
// planner discounting by band spread trusts later intervals monotonically
// less.
struct forecast_band {
    double center = 0.0;
    double half_width = 0.0;
    [[nodiscard]] double lower() const {
        return center > half_width ? center - half_width : 0.0;
    }
    [[nodiscard]] double upper() const { return center + half_width; }
};

// Horizon-model knobs for forecast_horizon.
struct horizon_options {
    // Multiplicative per-step widening of the uncertainty band (≥ 1):
    // width_{i+1} = width_i · width_growth, which makes the monotone
    // non-tightening invariant hold by construction.
    double width_growth = 1.35;
    // Damped-trend extrapolation: step i (i ≥ 2) extends the step-1 center by
    // slope · trend_damping^(i−2), where slope is the mean successive
    // difference over the history window. The pure β-blend converges to the
    // history mean and would never anticipate a ramp; the damped trend does,
    // while the damping keeps a transient slope from extrapolating forever.
    double trend_damping = 0.7;
    // Step-1 half-width floor as a fraction of max(|center|, 1): a filter
    // that has tracked perfectly still does not pretend the future is exact.
    double min_width_fraction = 0.05;
};

// The predictor's complete mutable state: its storage, and what exact
// round-trip checkpoints (core/snapshot.h) carry. export_state ∘ import_state
// is the identity: a restored predictor emits bit-identical estimates from
// the next observe() on.
struct predictor_state {
    seconds estimate = 0.0;
    double beta = 0.0;
    std::vector<seconds> recent_measured;  // last k measurements, oldest first
    std::vector<double> recent_errors;     // last k smoothed errors, oldest first
    // Aligned: all_estimates[j] was the prediction in force when
    // all_measured[j] arrived.
    std::vector<seconds> all_measured;
    std::vector<seconds> all_estimates;

    // Divergence-guard state.
    double cusum = 0.0;
    bool trusted = true;
    int divergence_count = 0;
    int fit_attempts = 0;
    std::size_t next_fit_at = 0;       // observation count gating the next try
    bool fit_valid = false;
    std::vector<double> fit_coeffs;    // AR coefficients, then intercept

    friend bool operator==(const predictor_state&, const predictor_state&) = default;
};

class stability_predictor {
public:
    explicit stability_predictor(arma_options options = {});

    // Exact-round-trip checkpointing: options are *not* part of the state —
    // the restoring side constructs with the same options it was built with.
    // import_state refuses (invariant_error) a state whose estimate and
    // measurement histories differ in length: mape_percent pairs them.
    [[nodiscard]] predictor_state export_state() const { return state_; }
    void import_state(const predictor_state& s);

    // Records a measured stability interval CW^m_j and returns the estimate
    // CW^e_{j+1} for the next control window.
    seconds observe(seconds measured);

    // The current prediction for the upcoming stability interval.
    [[nodiscard]] seconds current_estimate() const { return state_.estimate; }

    // Per-interval forecast for the next k steps, for the receding-horizon
    // planner. The filter is unit-agnostic (the same β-blend forecasts
    // request rates when fed rates), so the bands carry whatever unit the
    // observations did. Guarantees, pinned by randomized invariant tests:
    //  * step 1's center is *exactly* current_estimate() — the horizon API
    //    cannot drift from the one-step code path;
    //  * half-widths are monotonically non-tightening in the step index;
    //  * every field is finite, whatever (validated, finite) telemetry the
    //    filter was fed — non-finite intermediate arithmetic falls back to
    //    the previous step's values.
    // const: forecasting never perturbs the filter state.
    [[nodiscard]] std::vector<forecast_band> forecast_horizon(
        int k, const horizon_options& horizon = {}) const;

    // β chosen at the last observe() (0 until two observations exist).
    [[nodiscard]] double last_beta() const { return state_.beta; }

    // Full estimate/measurement history (aligned: estimate[j] was the
    // prediction in force when measurement[j] arrived), for accuracy plots
    // like Fig. 6.
    [[nodiscard]] const std::vector<seconds>& measurements() const {
        return state_.all_measured;
    }
    [[nodiscard]] const std::vector<seconds>& estimates() const {
        return state_.all_estimates;
    }

    // Mean absolute percentage error of the predictions so far (skips the
    // first observation, which had no informed estimate).
    [[nodiscard]] double mape_percent() const;

    // --- divergence guard -------------------------------------------------

    // False while the CUSUM detector holds a hard alarm; a controller should
    // not trust interval predictions (and, per the fallback ladder, should
    // hold its configuration) until this recovers.
    [[nodiscard]] bool trusted() const { return state_.trusted; }

    // ≥ 1; how much the workload bands should be widened right now. Exactly
    // 1.0 while the accumulated drift is below the soft threshold.
    [[nodiscard]] double band_multiplier() const;

    // Current accumulated drift (0 when the guard is disabled).
    [[nodiscard]] double drift() const { return state_.cusum; }

    // Times the guard transitioned trusted → untrusted.
    [[nodiscard]] int divergence_count() const { return state_.divergence_count; }

    // Re-estimation bookkeeping since the last hard alarm.
    [[nodiscard]] int reestimation_attempts() const { return state_.fit_attempts; }
    [[nodiscard]] bool reestimation_exhausted() const;
    [[nodiscard]] bool reestimation_active() const { return state_.fit_valid; }

private:
    void update_guard(seconds measured);
    void attempt_reestimate();
    [[nodiscard]] bool fit_ar();  // least squares over recent history
    [[nodiscard]] seconds ar_predict() const;

    arma_options options_;
    predictor_state state_;
};

}  // namespace mistral::predict
