#include "core/builder.h"

namespace mistral::core {

controller_builder& controller_builder::band(req_per_sec width) {
    base_.band_width = width;
    return *this;
}

controller_builder& controller_builder::self_aware(bool on) {
    base_.search.self_aware = on;
    return *this;
}

controller_builder& controller_builder::degraded(bool on) {
    base_.degraded.enabled = on;
    return *this;
}

controller_builder& controller_builder::divergence_guard(bool on) {
    base_.arma.divergence.enabled = on;
    return *this;
}

controller_builder& controller_builder::lookahead(int horizon) {
    base_.lookahead.enabled = horizon >= 1;
    if (horizon >= 1) base_.lookahead.horizon = horizon;
    return *this;
}

controller_builder& controller_builder::sink(obs::sink* s) {
    base_.sink = s;
    return *this;
}

controller_builder& controller_builder::econ(econ_profile profile) {
    base_.econ = std::move(profile);
    return *this;
}

controller_builder& controller_builder::power_cap(watts cap) {
    base_.search.power_cap = cap;
    return *this;
}

controller_builder& controller_builder::menu(cluster::action_menu m) {
    base_.search.menu = m;
    return *this;
}

controller_builder& controller_builder::meter_step(seconds per_expansion) {
    meter_step_ = per_expansion;
    return *this;
}

controller_builder& controller_builder::tweak(
    const std::function<void(controller_options&)>& fn) {
    fn(base_);
    return *this;
}

controller_builder& controller_builder::pod(
    std::size_t id, const std::function<void(controller_options&)>& fn) {
    // Overrides for the same pod compose in registration order rather than
    // replacing: the coordinator layers its per-region econ override on top
    // of whatever the caller registered, and both must take effect.
    if (auto it = pod_overrides_.find(id); it != pod_overrides_.end()) {
        it->second = [prev = std::move(it->second), fn](controller_options& opts) {
            prev(opts);
            fn(opts);
        };
    } else {
        pod_overrides_[id] = fn;
    }
    return *this;
}

controller_options controller_builder::build() const { return base_; }

controller_options controller_builder::build_for(const pod_spec& spec) const {
    controller_options opts = base_;
    if (spec.band) opts.band_width = *spec.band;
    if (spec.menu) opts.search.menu = *spec.menu;
    if (const auto it = pod_overrides_.find(spec.id); it != pod_overrides_.end()) {
        it->second(opts);
    }
    return opts;
}

std::unique_ptr<search_meter> controller_builder::make_meter() const {
    return std::make_unique<model_clock_meter>(meter_step_);
}

std::unique_ptr<mistral_controller> controller_builder::build_controller(
    const cluster::cluster_model& model, cost::cost_table costs) const {
    return std::make_unique<mistral_controller>(model, std::move(costs), build(),
                                                make_meter());
}

}  // namespace mistral::core
