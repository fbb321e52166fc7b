#include "core/pod_controller.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/check.h"
#include "obs/journal.h"

namespace mistral::core {

pod_controller::pod_controller(const cluster::cluster_model& model,
                               cost::cost_table costs, pod_spec spec,
                               std::vector<std::size_t> apps,
                               const controller_builder& builder,
                               pod_lens lens)
    : model_(&model),
      costs_(std::move(costs)),
      spec_(std::move(spec)),
      apps_(std::move(apps)),
      lens_(lens),
      opts_(builder.build_for(spec_)) {
    std::sort(spec_.hosts.begin(), spec_.hosts.end());
    spec_.hosts.erase(std::unique(spec_.hosts.begin(), spec_.hosts.end()),
                      spec_.hosts.end());
    MISTRAL_CHECK_MSG(!spec_.hosts.empty(), "pod " << spec_.id << " owns no hosts");
    MISTRAL_CHECK(spec_.hosts.back() < model.host_count());
    std::sort(apps_.begin(), apps_.end());
    apps_.erase(std::unique(apps_.begin(), apps_.end()), apps_.end());
    if (lens_ == pod_lens::scoped) {
        opts_.search.host_scope.assign(model.host_count(), false);
        for (const std::size_t h : spec_.hosts) opts_.search.host_scope[h] = true;
    }
    if (auto* reg = obs::metrics_of(opts_.sink)) {
        const std::string prefix = "mistral_pod_" + std::to_string(spec_.id);
        obs_decisions_ = reg->register_counter(
            prefix + "_decisions_total", "Invoked decisions made by this pod");
        obs_actions_ = reg->register_counter(
            prefix + "_actions_total", "Actions emitted by this pod's decisions");
        obs_search_seconds_ = reg->register_histogram(
            prefix + "_search_seconds",
            {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0},
            "Meter-elapsed search duration of this pod's invoked decisions");
    }
    rebuild();
}

void pod_controller::rebuild() {
    if (lens_ == pod_lens::scoped) {
        view_.reset();
        controller_ = std::make_unique<mistral_controller>(*model_, costs_, opts_);
        return;
    }
    if (apps_.empty()) {
        // An idle pod: spare hosts with no applications assigned. It still
        // reports headroom and can adopt an app from the migration broker,
        // but has nothing to control until then.
        view_.reset();
        controller_.reset();
        return;
    }
    if (spec_.hosts.size() == model_->host_count() &&
        apps_.size() == model_->app_count()) {
        view_.emplace(*model_);  // identity lens: byte-identical to flat
    } else {
        view_.emplace(*model_, spec_.hosts, apps_);
    }
    controller_ = std::make_unique<mistral_controller>(view_->local(), costs_, opts_);
    if (budget_ < std::numeric_limits<watts>::infinity()) {
        controller_->set_power_cap(budget_);
    }
}

decision_input pod_controller::project_input(const decision_input& in) const {
    const auto& view = *view_;
    if (view.identity()) return in;
    decision_input local;
    local.now = in.now;
    local.rates = view.project_per_app(in.rates);
    local.current = view.project(in.current);
    // The interval utility is a cluster-wide number; attribute this pod its
    // workload-proportional share (equal app shares when the cluster idles).
    const double total =
        std::accumulate(in.rates.begin(), in.rates.end(), 0.0);
    const double mine =
        std::accumulate(local.rates.begin(), local.rates.end(), 0.0);
    const double share =
        total > 0.0 ? mine / total
                    : static_cast<double>(view.app_count()) /
                          static_cast<double>(model_->app_count());
    local.last_interval_utility = in.last_interval_utility * share;
    for (const auto& a : in.failed) {
        if (auto p = view.project_action(a)) local.failed.push_back(*p);
    }
    for (const auto& a : in.in_flight) {
        if (auto p = view.project_action(a)) local.in_flight.push_back(*p);
    }
    for (const std::int32_t h : in.hosts_failed) {
        const host_id lh = view.to_local_host(host_id{h});
        if (lh.valid()) local.hosts_failed.push_back(lh.value);
    }
    for (const std::int32_t h : in.hosts_recovered) {
        const host_id lh = view.to_local_host(host_id{h});
        if (lh.valid()) local.hosts_recovered.push_back(lh.value);
    }
    if (!in.response_times.empty()) {
        local.response_times = view.project_per_app(in.response_times);
    }
    if (!in.samples.empty()) {
        local.samples = view.project_per_app(in.samples);
    }
    return local;
}

pod_outcome pod_controller::step(const decision_input& in) {
    pod_outcome out;
    if (!controller_) return out;  // idle pod: nothing to decide
    if (lens_ == pod_lens::scoped) {
        out.decision = controller_->step(in);
        out.actions = out.decision.actions;
    } else {
        out.decision = controller_->step(project_input(in));
        out.actions.reserve(out.decision.actions.size());
        for (const auto& a : out.decision.actions) {
            out.actions.push_back(view_->lift_action(a));
        }
    }
    out.invoked = out.decision.invoked;
    if (out.invoked) {
        obs_decisions_.add();
        obs_actions_.add(static_cast<std::int64_t>(out.actions.size()));
        obs_search_seconds_.observe(out.decision.stats.duration);
    }
    return out;
}

void pod_controller::set_budget(watts cap) {
    MISTRAL_CHECK(cap > 0.0);
    budget_ = cap;
    if (controller_) controller_->set_power_cap(cap);
}

pod_report report_hosts(const cluster::cluster_model& model,
                        const cluster::configuration& config,
                        const std::vector<std::size_t>& hosts) {
    pod_report r;
    double cap_total = 0.0;
    std::size_t healthy = 0;
    for (const std::size_t h : hosts) {
        const host_id host{static_cast<std::int32_t>(h)};
        const auto& hs = model.hosts()[h];
        r.max_draw += hs.power.power(1.0);
        if (!config.host_failed(host)) ++healthy;
        if (!config.host_on(host)) continue;
        cap_total += config.cap_sum(host);
        r.draw += hs.power.power(config.cap_sum(host) / hs.cpu_capacity);
    }
    const double denom =
        model.limits().host_cpu_cap * static_cast<double>(healthy);
    r.pressure = denom > 0.0 ? cap_total / denom : 1.0;
    return r;
}

void pod_controller::adopt_app(std::size_t app) {
    MISTRAL_CHECK(lens_ == pod_lens::sharded);
    MISTRAL_CHECK(app < model_->app_count());
    MISTRAL_CHECK(std::find(apps_.begin(), apps_.end(), app) == apps_.end());
    apps_.push_back(app);
    std::sort(apps_.begin(), apps_.end());
    rebuild();
}

pod_controller_state pod_controller::export_state() const {
    pod_controller_state s;
    s.apps = apps_;
    s.budget = budget_;
    if (controller_) s.controller = controller_->export_state();
    return s;
}

void pod_controller::import_state(const pod_controller_state& s, seconds now) {
    apps_ = s.apps;
    std::sort(apps_.begin(), apps_.end());
    budget_ = s.budget;
    rebuild();  // view + controller for the checkpointed app set; re-applies budget
    MISTRAL_CHECK_MSG((controller_ != nullptr) == s.controller.has_value(),
                      "pod " << spec_.id
                             << ": checkpoint idle state disagrees with app set");
    if (controller_) controller_->import_state(*s.controller, now);
}

void pod_controller::release_app(std::size_t app) {
    MISTRAL_CHECK(lens_ == pod_lens::sharded);
    const auto it = std::find(apps_.begin(), apps_.end(), app);
    MISTRAL_CHECK_MSG(it != apps_.end(),
                      "pod " << spec_.id << " does not own app " << app);
    apps_.erase(it);
    rebuild();
}

}  // namespace mistral::core
