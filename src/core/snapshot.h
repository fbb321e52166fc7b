// Crash-tolerant warm restart for the sharded control plane (DESIGN.md §16).
//
// Three pieces:
//
//  * snapshot — a versioned, exact round-trip JSON checkpoint of a sharded
//    `global_coordinator`'s complete mutable state (`coordinator_state`:
//    every pod controller's monitor/validator/predictor/ladder state, applied
//    budgets, quarantine health, open migration handshakes). `to_json` /
//    `snapshot_from_json` round-trip byte-identically: every double goes
//    through obs::json::format_number (shortest exact representation,
//    non-finite values as quoted "inf"/"-inf"/"nan"), so parse(dump(x)) == x
//    exactly — not approximately.
//
//  * decision_input codec — the decision journal's replay records. A
//    `restartable_coordinator` appends each interval's serialized
//    decision_input to an in-memory tail; warm restart replays the tail
//    through a freshly constructed coordinator to regenerate the state that
//    accrued after the last checkpoint. Because every component between the
//    input and the decision is deterministic, checkpoint + tail replay
//    rebuilds the exact pre-crash state: a restarted fault-free run resumes
//    byte-identically (chaos_test.cc proves this at arbitrary restart
//    points).
//
//  * restartable_coordinator — a `strategy` wrapper owning the inner
//    coordinator through a factory. It checkpoints every `checkpoint_every`
//    decisions (journaling a `checkpoint` event), executes scheduled warm
//    restarts (`restart_at`), and exposes `restart()` for tests. During tail
//    replay the `gate_sink` is closed so re-decided intervals do not journal
//    twice; a `restart` event records what was replayed.
//
// The snapshot format is versioned (`snapshot_version`); parsing a document
// whose version differs throws invariant_error rather than misinterpreting
// fields. Codecs for configuration and action are exposed for tests.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "core/coordinator.h"
#include "obs/journal.h"

namespace mistral::core {

inline constexpr int snapshot_version = 1;

struct snapshot {
    int version = snapshot_version;
    seconds taken_at = 0.0;
    coordinator_state state;
};

// ---- Codecs (exact round trip) -------------------------------------------
[[nodiscard]] std::string to_json(const snapshot& s);
[[nodiscard]] snapshot snapshot_from_json(std::string_view text);

[[nodiscard]] std::string to_json(const decision_input& in);
[[nodiscard]] decision_input decision_input_from_json(std::string_view text);

[[nodiscard]] std::string to_json(const cluster::configuration& c);
[[nodiscard]] cluster::configuration configuration_from_json(std::string_view text);

[[nodiscard]] std::string to_json(const cluster::action& a);
[[nodiscard]] cluster::action action_from_json(std::string_view text);

// ---- Journal gating during replay ----------------------------------------
// Wraps the session sink; while closed, events are suppressed (replayed
// intervals were already journaled the first time around). Metrics pass
// through unconditionally — counters double-counted during replay are a
// documented approximation, the journal is the source of record.
class gate_sink final : public obs::sink {
public:
    explicit gate_sink(obs::sink* inner) : inner_(inner) {}

    [[nodiscard]] bool enabled() const override {
        return open_ && obs::journaling(inner_);
    }
    void record(const obs::event& e) override {
        if (open_ && inner_ != nullptr) inner_->record(e);
    }
    [[nodiscard]] obs::metrics_registry* metrics() override {
        return obs::metrics_of(inner_);
    }

    void open(bool o) { open_ = o; }
    [[nodiscard]] bool is_open() const { return open_; }

private:
    obs::sink* inner_;
    bool open_ = true;
};

// ---- Warm-restartable coordinator ----------------------------------------
struct restart_options {
    // Checkpoint after every N decisions (0 = never; restarts then replay
    // the whole decision history from a cold coordinator).
    int checkpoint_every = 0;
    // Warm-restart before the first decide whose `now` is >= each entry
    // (ascending; each fires once). Models scheduled coordinator crashes.
    std::vector<seconds> restart_at;
};

class restartable_coordinator final : public strategy {
public:
    // `factory` must build coordinators identically configured with the
    // production sink wrapped in `gate` (may be nullptr when not journaling):
    // restart discards the inner coordinator and rebuilds it through the
    // factory, imports the latest checkpoint, then replays the decision tail
    // with the gate closed.
    restartable_coordinator(
        std::function<std::unique_ptr<global_coordinator>()> factory,
        restart_options options = {}, gate_sink* gate = nullptr);

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    outcome decide(const decision_input& in) override;

    // Warm-restart now: rebuild from the latest checkpoint (if any) plus
    // decision-tail replay. `now` only stamps the `restart` journal event.
    void restart(seconds now);

    [[nodiscard]] const global_coordinator& inner() const { return *inner_; }
    [[nodiscard]] int restarts() const { return restarts_; }
    // Serialized latest checkpoint ("" before the first one).
    [[nodiscard]] const std::string& last_checkpoint() const {
        return checkpoint_;
    }
    [[nodiscard]] std::size_t tail_length() const { return tail_.size(); }

private:
    std::function<std::unique_ptr<global_coordinator>()> factory_;
    restart_options options_;
    gate_sink* gate_;
    std::unique_ptr<global_coordinator> inner_;
    std::string checkpoint_;          // serialized snapshot; "" = none yet
    seconds checkpoint_at_ = 0.0;
    std::vector<std::string> tail_;   // serialized inputs since the checkpoint
    std::int64_t decides_ = 0;
    std::size_t next_restart_ = 0;
    int restarts_ = 0;
};

}  // namespace mistral::core
