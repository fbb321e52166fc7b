// The utility-evaluation engine.
//
// Every decision the controllers make is dominated by repeated steady-state
// utility evaluations: an LQN solve plus a power-model read per generated
// child of the A* search (Section IV-B) and per gradient candidate of the
// Perf-Pwr optimizer (Section IV-A). `utility_evaluator` owns all of that
// computation — LQN response times, power draw, and the Eq. 1/2 accounting —
// behind one interface, so the search and the optimizer never touch the
// lqn::/power:: models directly.
//
// `serial_evaluator` is the one engine. Each evaluation runs on the calling
// thread along one path: translate the configuration, compute the host
// loads, then per application
//
//  * app_solve_cache — delta evaluation: the steady utility is a sum of
//    per-app performance terms plus per-host power, and an app's LQN
//    sub-solve depends only on its own resource signature — its replicas'
//    caps, the inflation factors of the hosts they occupy, and its request
//    rate. Adjacent search vertices differ by one action touching 1–2 apps,
//    so evaluating a neighbor re-solves only the perturbed apps. The cache
//    persists across decisions (bounded LRU). See DESIGN.md "Incremental
//    evaluation".
//  * lqn::solve_app — the sub-solve itself, on a cache miss.
//
// There is no whole-configuration memo: the search evaluates each vertex
// once, and below the sub-solve cache a repeat costs only the translation,
// the host loads and the assembly (DESIGN.md §8 has the measurements).
//
// Results are bit-identical to one whole-configuration lqn::solve, because
// the signature captures, bit-exactly, every input the sub-solve reads; the
// tests hold the engine to that oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/utility.h"
#include "lqn/model.h"
#include "lqn/solver.h"
#include "obs/metrics.h"

namespace mistral::obs {
class sink;
}

namespace mistral::core {

// One steady-state evaluation of a configuration under the bound workload.
struct steady_utility {
    double rate = 0.0;        // $/s combined accrual (perf_rate + power_rate)
    double perf_rate = 0.0;   // Eq. 1 component ($/s)
    double power_rate = 0.0;  // Eq. 2 component ($/s, ≤ 0)
    std::vector<seconds> response_times;  // predicted mean per application
    watts power = 0.0;
    bool candidate = false;      // satisfies the per-host packing constraint
    bool meets_targets = true;   // every app within its *planning* target
};

// Per-(app, tier) sizing for the Perf-Pwr gradient's isolated-replica view:
// how many replicas at what (uniform) cap, placement ignored.
struct tier_sizing {
    int replicas = 1;
    fraction cap = 0.8;
};
using app_sizing = std::vector<std::vector<tier_sizing>>;  // [app][tier]

// Performance-only evaluation of a sizing with replicas isolated one per
// synthetic host (what the Perf-Pwr gradient search scores; Section IV-A).
struct isolated_perf {
    double perf_rate = 0.0;
    std::vector<seconds> response_times;
    bool meets_all_targets = true;
};

// Per-app sub-solve entries kept (LRU). Entries are small (one app_result)
// and the cache persists across decisions, so it holds many decisions'
// working sets (a few thousand vertices each on the paper's cluster sizes).
inline constexpr std::size_t app_cache_entries = 65536;

struct evaluation_options {
    // Observability hook (journal.h). nullptr — the default null sink — makes
    // every recording site a single branch; when the sink carries a metrics
    // registry, the evaluator registers its solve counters in it and records
    // them with relaxed atomic adds on the hot path.
    obs::sink* sink = nullptr;
};

struct evaluation_stats {
    std::size_t evaluations = 0;  // steady plus isolated evaluations
    // Whole-configuration counters. Nothing caches whole configurations, so
    // cache_hits stays 0 and cache_misses counts every steady evaluation;
    // both stay because the benchmark harness (perfbench/) reads them.
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    // Per-app sub-solve accounting. A whole-configuration solve would pay
    // app_count sub-solves per steady evaluation; app_solves is what delta
    // evaluation actually paid.
    std::size_t app_solves = 0;
    std::size_t app_cache_hits = 0;
    std::size_t app_cache_misses = 0;

    [[nodiscard]] double app_hit_rate() const {
        const auto total = app_cache_hits + app_cache_misses;
        return total > 0 ? static_cast<double>(app_cache_hits) /
                               static_cast<double>(total)
                         : 0.0;
    }
};

// Resource signature of one application's LQN sub-solve: every input
// lqn::solve_app reads, packed bit-exactly into 64-bit words — the app index,
// its rate key, and per tier the replica count followed by each replica's
// milli-cap and the bit pattern of its host's inflation factor. Two
// deployments with equal signatures produce bit-identical sub-solves, which
// is what makes cache reuse sound. Host identity enters only through the
// inflation value: an app migrated between equally-inflated hosts keys the
// same, deliberately.
struct app_signature {
    std::vector<std::uint64_t> words;

    friend bool operator==(const app_signature&, const app_signature&) = default;
};

struct app_signature_hash {
    std::size_t operator()(const app_signature& s) const noexcept {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ s.words.size();
        for (const std::uint64_t w : s.words) {
            h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        }
        return static_cast<std::size_t>(h);
    }
};

// LRU cache of per-application LQN sub-solves, keyed by app_signature. It is
// *not* cleared when the workload moves: the rate is part of the key, so
// entries for other rates simply stop matching and age out — which is what
// lets sub-solves persist across controller decisions.
class app_solve_cache {
public:
    explicit app_solve_cache(std::size_t capacity);

    // nullptr on miss. The pointer is invalidated by the next insert.
    [[nodiscard]] const lqn::app_result* find(const app_signature& sig);
    void insert(app_signature sig, lqn::app_result value);
    void clear();

private:
    using entry = std::pair<app_signature, lqn::app_result>;
    std::size_t capacity_;
    std::list<entry> lru_;  // front = most recently used
    std::unordered_map<app_signature, std::list<entry>::iterator,
                       app_signature_hash>
        index_;
};

// The signature of app `a` within a translated deployment (exposed for
// tests). `rate_key` is the bit pattern of the app's request rate;
// `inflation` is lqn::compute_host_loads(...).inflation.
[[nodiscard]] app_signature make_app_signature(
    std::size_t app, std::int64_t rate_key, const lqn::app_deployment& dep,
    const std::vector<double>& inflation);

// The engine interface. Implementations are bound to one decision context at
// a time via begin_decision(); evaluate/evaluate_batch results are
// deterministic functions of (configuration, bound rates) — see DESIGN.md for
// the purity contract. Wrappers (timing or checking decorators) forward to
// the engine make_evaluator() builds.
class utility_evaluator {
public:
    virtual ~utility_evaluator() = default;

    // Binds the workload for the decision being made and derives the per-app
    // planning targets. Rates must be finite and non-negative (invariant_error
    // otherwise). Idempotent for equal rates.
    virtual void begin_decision(const std::vector<req_per_sec>& rates) = 0;

    // Planning targets (rt_margin · TRT(w)) for the bound rates.
    [[nodiscard]] virtual const std::vector<seconds>& targets() const = 0;

    // Steady-state utility of one configuration.
    [[nodiscard]] virtual steady_utility evaluate(
        const cluster::configuration& config) = 0;

    // Evaluates a whole expansion's children; results in input order,
    // bit-identical to calling evaluate() sequentially.
    [[nodiscard]] virtual std::vector<steady_utility> evaluate_batch(
        const std::vector<cluster::configuration>& configs) = 0;

    // The Perf-Pwr gradient's isolated-replica performance view.
    [[nodiscard]] virtual isolated_perf evaluate_isolated(const app_sizing& s) = 0;

    // Batch form: all of one gradient step's candidate sizings at once.
    // Results in input order, bit-identical to sequential evaluate_isolated.
    [[nodiscard]] virtual std::vector<isolated_perf> evaluate_isolated_batch(
        const std::vector<app_sizing>& sizings) = 0;

    // Runs fn(0) … fn(count − 1) in index order. The search drafts a whole
    // expansion's children through this, so a wrapper can attribute
    // drafting time separately from evaluation.
    virtual void parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) = 0;

    // Always 1: evaluation runs on the calling thread. Kept for wrappers
    // that forward the whole interface.
    [[nodiscard]] virtual std::size_t parallelism() const = 0;

    // Drops the sub-solve cache and resets the counters (fresh-decision
    // tests and cold-cache benchmarking).
    virtual void reset_memo() = 0;

    [[nodiscard]] virtual const evaluation_stats& stats() const = 0;
};

// The evaluation engine: per-app sub-solve cache → lqn::solve_app, all on
// the calling thread.
class serial_evaluator final : public utility_evaluator {
public:
    serial_evaluator(const cluster::cluster_model& model, utility_model utility,
                     lqn::model_options lqn = {}, evaluation_options options = {});

    void begin_decision(const std::vector<req_per_sec>& rates) override;
    [[nodiscard]] const std::vector<seconds>& targets() const override {
        return targets_;
    }
    [[nodiscard]] steady_utility evaluate(
        const cluster::configuration& config) override;
    [[nodiscard]] std::vector<steady_utility> evaluate_batch(
        const std::vector<cluster::configuration>& configs) override;
    [[nodiscard]] isolated_perf evaluate_isolated(const app_sizing& s) override;
    [[nodiscard]] std::vector<isolated_perf> evaluate_isolated_batch(
        const std::vector<app_sizing>& sizings) override;
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)>& fn) override {
        for (std::size_t i = 0; i < count; ++i) fn(i);
    }
    [[nodiscard]] std::size_t parallelism() const override { return 1; }
    void reset_memo() override;
    [[nodiscard]] const evaluation_stats& stats() const override { return stats_; }

private:
    // The isolated-replica performance view of one sizing. Pure.
    [[nodiscard]] isolated_perf compute_isolated(const app_sizing& s) const;
    // Folds per-app solve results and host utilizations into a
    // steady_utility: power first, then the per-app perf terms in app order.
    // Pure.
    [[nodiscard]] steady_utility assemble(
        const cluster::configuration& config,
        const std::vector<lqn::app_result>& apps,
        const std::vector<fraction>& host_utilization) const;

    const cluster::cluster_model* model_;
    utility_model utility_;
    lqn::model_options lqn_;
    std::vector<req_per_sec> rates_;
    std::vector<seconds> targets_;
    // Bit patterns of the bound rates, one per app (set by begin_decision;
    // what app signatures embed).
    std::vector<std::int64_t> rate_key_;
    app_solve_cache app_cache_;  // persists across decisions
    evaluation_stats stats_;
    // Disabled (one-branch no-op) handles unless the options' sink carries a
    // metrics registry. Recorded alongside stats_, which stays the exact
    // per-instance source of truth; the registry aggregates across instances.
    obs::counter obs_solves_;
    obs::counter obs_app_solves_;
    obs::counter obs_app_hits_;
    obs::counter obs_app_misses_;
};

// Builds the evaluation engine (a serial_evaluator).
[[nodiscard]] std::shared_ptr<utility_evaluator> make_evaluator(
    const cluster::cluster_model& model, utility_model utility,
    lqn::model_options lqn = {}, evaluation_options options = {});

}  // namespace mistral::core
