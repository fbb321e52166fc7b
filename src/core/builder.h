// One composable way to configure controllers.
//
// Before this builder existed, every example and bench re-plumbed the same
// handful of fields across several option structs (`controller_options`,
// `coordinator_options`, `search_options` plus the evaluation sub-options):
// band width here, sink there, meter step in a third place. The builder
// collapses that sprawl into a single fluent surface with two escape
// hatches — `tweak()` for any field without a dedicated setter, and
// `pod(id, fn)` for per-pod overrides applied on top of the pod_spec's own
// band/menu when building a sharded or two-level controller.
//
// Layering, lowest precedence first:
//   base options  →  pod_spec band/menu  →  pod(id, fn) override.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>

#include "core/controller.h"
#include "core/pods.h"
#include "core/search_meter.h"

namespace mistral::core {

class controller_builder {
public:
    controller_builder() = default;

    // ---- the fields examples actually set --------------------------------
    controller_builder& band(req_per_sec width);
    controller_builder& self_aware(bool on);
    controller_builder& degraded(bool on);
    controller_builder& divergence_guard(bool on);
    // Receding-horizon lookahead over `horizon` control windows; 0 disables.
    // horizon = 1 enables the rung with byte-identical decisions to the flat
    // controller (the differential anchor). Per-pod horizons come from the
    // usual pod(id, fn) override on options.lookahead.
    controller_builder& lookahead(int horizon);
    controller_builder& sink(obs::sink* s);
    // Economics layer: tariff, pricing model, carbon price, cap schedule
    // (core/utility.h econ_profile). The coordinator layers per-region
    // tariffs on top of this via pod overrides.
    controller_builder& econ(econ_profile profile);
    controller_builder& power_cap(watts cap);
    controller_builder& menu(cluster::action_menu m);
    // Deterministic model-clock meter step (seconds per A* expansion).
    controller_builder& meter_step(seconds per_expansion);

    // Escape hatch: arbitrary mutation of the assembled base options.
    controller_builder& tweak(const std::function<void(controller_options&)>& fn);
    // Per-pod override, applied after the pod_spec's band/menu when this
    // builder configures pod `id` of a partition. Repeated registrations for
    // the same pod compose in order (each sees the previous one's result).
    controller_builder& pod(std::size_t id,
                            const std::function<void(controller_options&)>& fn);

    // ---- products --------------------------------------------------------
    // The assembled base options (tweaks applied, pod overrides not).
    [[nodiscard]] controller_options build() const;
    // Options for one pod: base, then the spec's band/menu, then the pod
    // override registered for spec.id (if any).
    [[nodiscard]] controller_options build_for(const pod_spec& spec) const;
    // A fresh deterministic meter matching meter_step().
    [[nodiscard]] std::unique_ptr<search_meter> make_meter() const;
    // A flat controller over the whole cluster from the base options.
    [[nodiscard]] std::unique_ptr<mistral_controller> build_controller(
        const cluster::cluster_model& model, cost::cost_table costs) const;

    [[nodiscard]] seconds meter_per_expansion() const { return meter_step_; }

private:
    controller_options base_{};
    seconds meter_step_ = 0.002;  // model_clock_meter's default
    std::map<std::size_t, std::function<void(controller_options&)>> pod_overrides_;
};

}  // namespace mistral::core
