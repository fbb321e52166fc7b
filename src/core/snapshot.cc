#include "core/snapshot.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "obs/json.h"

namespace mistral::core {
namespace {

using obs::json::value;

// ---- field lists ---------------------------------------------------------
// One list per checkpointed struct: f(key, member) for every member, in
// document order. The keys and their order are the snapshot format
// (snapshot_version); the writer and the reader below both walk these lists,
// so they cannot disagree about a key. `S` is the struct or its const form.
template <class S, class T>
concept state_of = std::same_as<std::remove_const_t<S>, T>;

template <state_of<predict::predictor_state> S, class F>
void fields(S& s, F&& f) {
    f("estimate", s.estimate);
    f("beta", s.beta);
    f("recent_measured", s.recent_measured);
    f("recent_errors", s.recent_errors);
    f("all_measured", s.all_measured);
    f("all_estimates", s.all_estimates);
    f("cusum", s.cusum);
    f("trusted", s.trusted);
    f("divergence_count", s.divergence_count);
    f("fit_attempts", s.fit_attempts);
    f("next_fit_at", s.next_fit_at);
    f("fit_valid", s.fit_valid);
    f("fit_coeffs", s.fit_coeffs);
}

template <state_of<wl::validator_state> S, class F>
void fields(S& s, F&& f) {
    f("last_good", s.last_good);
    f("has_last_good", s.has_last_good);
    f("last_seen", s.last_seen);
    f("repeat_count", s.repeat_count);
}

template <state_of<wl::monitor_state> S, class F>
void fields(S& s, F&& f) {
    f("scale", s.scale);
    f("initialized", s.initialized);
    f("band_centers", s.band_centers);
    f("band_widths", s.band_widths);
    f("band_set_at", s.band_set_at);
    f("history", s.history);
}

template <state_of<lookahead_stats> S, class F>
void fields(S& s, F&& f) {
    f("lookahead_decisions", s.lookahead_decisions);
    f("preprovision_commits", s.preprovision_commits);
    f("reactive_commits", s.reactive_commits);
    f("forecast_divergences", s.forecast_divergences);
    f("deadline_demotions", s.deadline_demotions);
}

template <state_of<reconcile_stats> S, class F>
void fields(S& s, F&& f) {
    f("failed_actions", s.failed_actions);
    f("fault_replans", s.fault_replans);
    f("repairs", s.repairs);
    f("drift_intervals", s.drift_intervals);
    f("wasted_adaptation_time", s.wasted_adaptation_time);
    f("wasted_transient_cost", s.wasted_transient_cost);
}

template <state_of<degraded_stats> S, class F>
void fields(S& s, F&& f) {
    f("degraded_windows", s.degraded_windows);
    f("garbage_windows", s.garbage_windows);
    f("demotions", s.demotions);
    f("promotions", s.promotions);
    f("held_triggers", s.held_triggers);
    f("greedy_decisions", s.greedy_decisions);
    f("deadline_trips", s.deadline_trips);
}

template <state_of<controller_state> S, class F>
void fields(S& s, F&& f) {
    f("monitor", s.monitor);
    f("validator", s.validator);
    f("predictors", s.predictors);
    f("utility_history", s.utility_history);
    f("first_step", s.first_step);
    f("rate_forecasters", s.rate_forecasters);
    f("prev_forecaster_trusted", s.prev_forecaster_trusted);
    f("lookahead_deadline_tripped", s.lookahead_deadline_tripped);
    f("lstats", s.lstats);
    f("rstats", s.rstats);
    f("intended", s.intended);
    f("fault_rounds", s.fault_rounds);
    f("backoff_until", s.backoff_until);
    f("mode", s.mode);
    f("clean_steps", s.clean_steps);
    f("deadline_tripped", s.deadline_tripped);
    f("prev_trusted", s.prev_trusted);
    f("dstats", s.dstats);
    f("power_cap", s.power_cap);
}

template <state_of<pod_controller_state> S, class F>
void fields(S& s, F&& f) {
    f("apps", s.apps);
    f("budget", s.budget);
    f("controller", s.controller);
}

template <state_of<pod_health> S, class F>
void fields(S& s, F&& f) {
    f("quarantined", s.quarantined);
    f("clean_intervals", s.clean_intervals);
}

template <state_of<pending_migration> S, class F>
void fields(S& s, F&& f) {
    f("app", s.app);
    f("from", s.from);
    f("to", s.to);
    f("plan", s.plan);
    f("prepared_at", s.prepared_at);
    f("intervals_left", s.intervals_left);
}

template <state_of<coordinator_state> S, class F>
void fields(S& s, F&& f) {
    f("pods", s.pods);
    f("budgets", s.budgets);
    f("brokered_migrations", s.brokered_migrations);
    f("stray_apps", s.stray_apps);
    f("health", s.health);
    f("pending", s.pending);
}

template <state_of<snapshot> S, class F>
void fields(S& s, F&& f) {
    f("version", s.version);
    f("taken_at", s.taken_at);
    f("state", s.state);
}

template <state_of<decision_input> S, class F>
void fields(S& s, F&& f) {
    f("now", s.now);
    f("rates", s.rates);
    f("current", s.current);
    f("last_interval_utility", s.last_interval_utility);
    f("failed", s.failed);
    f("in_flight", s.in_flight);
    f("hosts_failed", s.hosts_failed);
    f("hosts_recovered", s.hosts_recovered);
    f("response_times", s.response_times);
    f("samples", s.samples);
}

template <class T>
concept listed = requires(const T& s) {
    fields(s, [](std::string_view, const auto&) {});
};

template <class T>
concept integer = std::integral<T> && !std::same_as<T, bool>;

// A configuration may ask for at most this many VMs and hosts. The Zobrist
// placement key gives a host index 20 bits (configuration.cc), and the
// bound is checked before the configuration allocates anything.
constexpr std::size_t max_entities = std::size_t{1} << 20;

// ---- writer --------------------------------------------------------------
// Appends one JSON value to `out`. Doubles go through format_number (shortest
// exact representation, quoted "inf"/"-inf"/"nan"); integers through
// to_string; an empty optional is null. Declared before any definition so
// every overload sees the whole set.
void put(std::string& out, double x);
void put(std::string& out, bool x);
template <integer T> void put(std::string& out, T x);
void put(std::string& out, control_mode x);
void put(std::string& out, const cluster::configuration& c);
void put(std::string& out, const cluster::action& a);
template <listed T> void put(std::string& out, const T& s);
template <class T> void put(std::string& out, const std::vector<T>& xs);
template <class T> void put(std::string& out, const std::optional<T>& x);

// Separates list items and object members: a complete JSON value never ends
// in '[' or '{', so those mark the first entry.
void next(std::string& out) {
    if (out.back() != '[' && out.back() != '{') out += ',';
}

void put(std::string& out, double x) { out += obs::format_number(x); }
void put(std::string& out, bool x) { out += x ? "true" : "false"; }
template <integer T>
void put(std::string& out, T x) {
    out += std::to_string(x);
}
void put(std::string& out, control_mode x) { put(out, static_cast<int>(x)); }

// One object member, "key":value.
template <class T>
void member(std::string& out, std::string_view key, const T& x) {
    next(out);
    out += '"';
    out += key;
    out += "\":";
    put(out, x);
}

template <listed T>
void put(std::string& out, const T& s) {
    out += '{';
    fields(s, [&](std::string_view key, const auto& x) { member(out, key, x); });
    out += '}';
}

template <class T>
void put(std::string& out, const std::vector<T>& xs) {
    out += '[';
    for (const auto& x : xs) {
        next(out);
        put(out, x);
    }
    out += ']';
}

template <class T>
void put(std::string& out, const std::optional<T>& x) {
    if (x.has_value()) {
        put(out, *x);
    } else {
        out += "null";
    }
}

// Sparse: the powered-on hosts, the failed hosts and one [vm, host, cap]
// triple per deployed VM.
void put(std::string& out, const cluster::configuration& c) {
    out += '{';
    member(out, "vms", c.vm_count());
    member(out, "hosts", c.host_count());
    out += ",\"on\":[";
    for (std::size_t h = 0; h < c.host_count(); ++h) {
        if (!c.host_on(host_id{static_cast<std::int32_t>(h)})) continue;
        next(out);
        put(out, h);
    }
    out += "],\"down\":[";
    for (std::size_t h = 0; h < c.host_count(); ++h) {
        if (!c.host_failed(host_id{static_cast<std::int32_t>(h)})) continue;
        next(out);
        put(out, h);
    }
    out += "],\"placed\":[";
    for (std::size_t i = 0; i < c.vm_count(); ++i) {
        const auto& p = c.placement(vm_id{static_cast<std::int32_t>(i)});
        if (!p.has_value()) continue;
        next(out);
        out += '[';
        put(out, i);
        out += ',';
        put(out, p->host.value);
        out += ',';
        put(out, p->cpu_cap);
        out += ']';
    }
    out += "]}";
}

// Tagged by kind, then the kind's own ids and cap.
void put(std::string& out, const cluster::action& a) {
    out += "{\"kind\":";
    out += obs::quote(cluster::to_string(cluster::kind_of(a)));
    std::visit(
        [&](const auto& x) {
            if constexpr (requires { x.vm; }) member(out, "vm", x.vm.value);
            if constexpr (requires { x.to; }) member(out, "to", x.to.value);
            if constexpr (requires { x.cpu_cap; }) member(out, "cap", x.cpu_cap);
            if constexpr (requires { x.host; }) member(out, "host", x.host.value);
        },
        a);
    out += '}';
}

// ---- reader --------------------------------------------------------------
// The writer's mirror: decodes one JSON value into `x`, refusing anything the
// writer could not have produced with invariant_error.
void take(const value& v, double& x);
void take(const value& v, bool& x);
template <integer T> void take(const value& v, T& x);
void take(const value& v, control_mode& x);
void take(const value& v, cluster::configuration& c);
void take(const value& v, cluster::action& a);
template <listed T> void take(const value& v, T& s);
template <class T> void take(const value& v, std::vector<T>& xs);
template <class T> void take(const value& v, std::optional<T>& x);

template <class T>
T as(const value& v) {
    T x{};
    take(v, x);
    return x;
}

const value& get(const value& v, std::string_view key) {
    const value* p = v.find(key);
    MISTRAL_CHECK_MSG(p != nullptr, "snapshot: missing key '" << key << "'");
    return *p;
}

void take(const value& v, double& x) {
    if (v.type() != value::kind::text) {
        x = v.as_number();
        return;
    }
    const std::string& t = v.as_text();
    if (t == "inf") {
        x = std::numeric_limits<double>::infinity();
    } else if (t == "-inf") {
        x = -std::numeric_limits<double>::infinity();
    } else {
        MISTRAL_CHECK_MSG(t == "nan", "snapshot: non-numeric text '" << t << "'");
        x = std::numeric_limits<double>::quiet_NaN();
    }
}

void take(const value& v, bool& x) { x = v.as_bool(); }

// Every integer decodes through here. The number must be finite, integral
// and inside T's range; anything else is refused rather than rounded or
// wrapped into a different, valid-looking id.
template <integer T>
void take(const value& v, T& x) {
    const double d = v.as_number();
    MISTRAL_CHECK_MSG(std::isfinite(d) && d == std::trunc(d),
                      "snapshot: " << d << " is not an integer");
    // max + 1 is a power of two, which a double holds exactly (a 64-bit max
    // already rounds up to it), so `<` admits exactly T's range.
    MISTRAL_CHECK_MSG(
        d >= static_cast<double>(std::numeric_limits<T>::min()) &&
            d < static_cast<double>(std::numeric_limits<T>::max()) + 1.0,
        "snapshot: integer " << d << " out of range");
    x = static_cast<T>(d);
}

void take(const value& v, control_mode& x) {
    const auto mode = as<std::int64_t>(v);
    MISTRAL_CHECK_MSG(mode >= 0 && mode <= 3,
                      "snapshot: unknown control mode " << mode);
    x = static_cast<control_mode>(mode);
}

template <listed T>
void take(const value& v, T& s) {
    fields(s, [&](std::string_view key, auto& x) { take(get(v, key), x); });
}

template <class T>
void take(const value& v, std::vector<T>& xs) {
    const auto& items = v.items();
    xs.clear();
    xs.reserve(items.size());
    for (const value& item : items) xs.push_back(as<T>(item));
}

template <class T>
void take(const value& v, std::optional<T>& x) {
    if (v.is_null()) {
        x.reset();
    } else {
        take(v, x.emplace());
    }
}

void take(const value& v, cluster::configuration& c) {
    const auto vms = as<std::size_t>(get(v, "vms"));
    const auto hosts = as<std::size_t>(get(v, "hosts"));
    MISTRAL_CHECK_MSG(vms <= max_entities && hosts <= max_entities,
                      "snapshot: " << vms << " VMs on " << hosts
                                   << " hosts exceeds " << max_entities);
    c = cluster::configuration(vms, hosts);
    for (const value& h : get(v, "on").items()) {
        c.set_host_power(host_id{as<std::int32_t>(h)}, true);
    }
    for (const value& p : get(v, "placed").items()) {
        const auto& t = p.items();
        MISTRAL_CHECK_MSG(t.size() == 3, "snapshot: malformed placement");
        c.deploy(vm_id{as<std::int32_t>(t[0])}, host_id{as<std::int32_t>(t[1])},
                 as<double>(t[2]));
    }
    // Last: marking failed forces the host off, so it must not race the
    // power/placement rebuild above (failed hosts are off and host nothing).
    for (const value& h : get(v, "down").items()) {
        c.set_host_failed(host_id{as<std::int32_t>(h)}, true);
    }
}

void take(const value& v, cluster::action& a) {
    const std::string& kind = get(v, "kind").as_text();
    const auto vm = [&] { return vm_id{as<std::int32_t>(get(v, "vm"))}; };
    const auto to = [&] { return host_id{as<std::int32_t>(get(v, "to"))}; };
    const auto host = [&] { return host_id{as<std::int32_t>(get(v, "host"))}; };
    if (kind == "increase_cpu") {
        a = cluster::increase_cpu{vm()};
    } else if (kind == "decrease_cpu") {
        a = cluster::decrease_cpu{vm()};
    } else if (kind == "add_replica") {
        a = cluster::add_replica{vm(), to(), as<double>(get(v, "cap"))};
    } else if (kind == "remove_replica") {
        a = cluster::remove_replica{vm()};
    } else if (kind == "migrate") {
        a = cluster::migrate{vm(), to()};
    } else if (kind == "power_on") {
        a = cluster::power_on{host()};
    } else if (kind == "power_off") {
        a = cluster::power_off{host()};
    } else {
        MISTRAL_CHECK_MSG(false, "snapshot: unknown action kind '" << kind << "'");
    }
}

template <class T>
std::string encode(const T& x) {
    std::string out;
    put(out, x);
    return out;
}

}  // namespace

// ---- public codecs -------------------------------------------------------
std::string to_json(const snapshot& s) { return encode(s); }

snapshot snapshot_from_json(std::string_view text) {
    const value v = value::parse(text);
    const int version = as<int>(get(v, "version"));
    MISTRAL_CHECK_MSG(version == snapshot_version,
                      "snapshot: version " << version << " != supported "
                                           << snapshot_version);
    return as<snapshot>(v);
}

std::string to_json(const decision_input& in) { return encode(in); }

decision_input decision_input_from_json(std::string_view text) {
    return as<decision_input>(value::parse(text));
}

std::string to_json(const cluster::configuration& c) { return encode(c); }

cluster::configuration configuration_from_json(std::string_view text) {
    return as<cluster::configuration>(value::parse(text));
}

std::string to_json(const cluster::action& a) { return encode(a); }

cluster::action action_from_json(std::string_view text) {
    return as<cluster::action>(value::parse(text));
}

// ---- restartable_coordinator ---------------------------------------------
restartable_coordinator::restartable_coordinator(
    std::function<std::unique_ptr<global_coordinator>()> factory,
    restart_options options, gate_sink* gate)
    : factory_(std::move(factory)), options_(std::move(options)), gate_(gate) {
    MISTRAL_CHECK_MSG(factory_ != nullptr,
                      "restartable_coordinator needs a factory");
    MISTRAL_CHECK(options_.checkpoint_every >= 0);
    std::sort(options_.restart_at.begin(), options_.restart_at.end());
    inner_ = factory_();
    MISTRAL_CHECK_MSG(inner_ != nullptr, "factory returned no coordinator");
}

strategy::outcome restartable_coordinator::decide(const decision_input& in) {
    while (next_restart_ < options_.restart_at.size() &&
           options_.restart_at[next_restart_] <= in.now) {
        ++next_restart_;
        restart(in.now);
    }
    outcome out = inner_->decide(in);
    ++decides_;
    tail_.push_back(to_json(in));
    if (options_.checkpoint_every > 0 &&
        tail_.size() >= static_cast<std::size_t>(options_.checkpoint_every)) {
        checkpoint_ =
            to_json(snapshot{snapshot_version, in.now, inner_->export_state()});
        checkpoint_at_ = in.now;
        tail_.clear();
        if (obs::journaling(gate_)) {
            gate_->record(obs::event("checkpoint", in.now)
                              .integer("version", snapshot_version)
                              .integer("intervals", decides_)
                              .integer("bytes", static_cast<std::int64_t>(
                                                    checkpoint_.size())));
        }
    }
    return out;
}

void restartable_coordinator::restart(seconds now) {
    ++restarts_;
    inner_ = factory_();
    MISTRAL_CHECK_MSG(inner_ != nullptr, "factory returned no coordinator");
    if (!checkpoint_.empty()) {
        const snapshot snap = snapshot_from_json(checkpoint_);
        inner_->import_state(snap.state, snap.taken_at);
    }
    // Replay the decision tail with the journal gate closed: these intervals
    // were already journaled (and their actions executed) the first time.
    if (gate_ != nullptr) gate_->open(false);
    std::int64_t replayed = 0;
    try {
        for (const std::string& line : tail_) {
            (void)inner_->decide(decision_input_from_json(line));
            ++replayed;
        }
    } catch (...) {
        if (gate_ != nullptr) gate_->open(true);
        throw;
    }
    if (gate_ != nullptr) gate_->open(true);
    if (obs::journaling(gate_)) {
        gate_->record(obs::event("restart", now)
                          .integer("replayed", replayed)
                          .num("checkpoint_t",
                               checkpoint_.empty() ? -1.0 : checkpoint_at_));
    }
}

}  // namespace mistral::core
