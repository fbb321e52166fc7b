// Analytic solver for the layered queueing model.
//
// Two layers, solved bottom-up along each transaction's call chain:
//
//  * Hardware layer (PS): each replica's vCPU is a processor-sharing station
//    whose rate is the Xen credit cap; a visit's CPU response time is
//    (demand/cap) / (1 − ρ), where ρ is the replica's busy fraction of its
//    cap. Hosts whose *actual* CPU usage (VM work + Dom-0 mirror work)
//    exceeds the physical CPU inflate all hosted replicas proportionally.
//
//  * Software layer (FCFS): a replica holds one of its worker threads for
//    the visit's CPU time *plus* the response times of its synchronous calls
//    into downstream tiers — the defining "layered" interaction. Thread-pool
//    waiting is M/M/m (Erlang-C) on the mean holding time.
//
// Saturation is handled with a linear overload extension past 99.5 % busy
// (see erlang.h) so response times grow steeply but remain finite, matching
// the bounded queues a closed client population produces and keeping the
// optimizer's utility gradients informative.
#pragma once

#include <vector>

#include "lqn/model.h"

namespace mistral::lqn {

struct tier_result {
    // Mean busy fraction of each replica's cap (load-weighted across
    // replicas); the "utilization" the Perf-Pwr gradient search uses.
    fraction utilization = 0.0;
    // Mean per-visit response time at this tier including thread waiting and
    // all downstream call time.
    seconds visit_response = 0.0;
    // Actual physical-CPU seconds consumed per second by this tier (all
    // replicas, before Dom-0 mirroring).
    double cpu_usage = 0.0;
};

struct app_result {
    seconds mean_response_time = 0.0;           // mix-weighted end-to-end mean
    std::vector<seconds> per_transaction;       // end-to-end mean per type
    std::vector<tier_result> tiers;
    bool saturated = false;                     // some station at/over capacity
};

struct solve_result {
    std::vector<app_result> apps;
    // Physical CPU busy fraction per host (VM work + Dom-0), clamped to 1.
    std::vector<fraction> host_utilization;
    // Un-clamped demand per host; > 1 means the host is overcommitted.
    std::vector<double> host_demand;
    bool saturated = false;
};

// The hardware-layer coupling between applications: per-host demand, booked
// caps, and the resulting slowdown factor every hosted replica feels. This is
// the *only* channel through which one application's deployment affects
// another's response times, which is what makes per-app sub-solves (and the
// evaluator's delta-evaluation cache) sound: an app's result is a pure
// function of its own deployment, its rate, and the inflation factors of the
// hosts its replicas occupy.
struct host_loads {
    // Un-clamped actual demand per host (VM work + Dom-0 mirror + baseline);
    // > 1 means the host is overcommitted.
    std::vector<double> demand;
    // min(1, demand): the physical busy fraction the power model reads.
    std::vector<fraction> utilization;
    // Booked CPU caps per host (reservations, before any clamping).
    std::vector<double> cap_sums;
    // Proportional slowdown of every replica on the host: max(1, demand,
    // cap_sums / reserved_cap_fraction).
    std::vector<double> inflation;
    bool overcommitted = false;  // some host's demand exceeds 1
};

// Pass 1 of the solve, separated out so incremental re-solves can share it:
// O(total replicas) arithmetic, no queueing math. Validates the deployments
// exactly like solve(). Writes into `out`, reusing its vectors, so a caller
// that keeps one host_loads across solves allocates nothing once it has
// grown to the host count.
void compute_host_loads(const std::vector<app_deployment>& apps,
                        std::size_t host_count, const model_options& options,
                        host_loads& out);
host_loads compute_host_loads(const std::vector<app_deployment>& apps,
                              std::size_t host_count,
                              const model_options& options = {});

// Pass 2 for a single application: response times and tier reports given the
// shared per-host inflation factors. Pure and deterministic; for the same
// deployment vector, solve(apps, …).apps[a] is bit-identical to
// solve_app(apps[a], compute_host_loads(apps, …).inflation, …). Writes into
// `out`, reusing its vectors; the per-replica state and the per-(tier,
// transaction) response tables live on the stack for apps of up to 32
// replicas and 128 tier × transaction cells, so a solve into a reused
// result allocates nothing.
void solve_app(const app_deployment& app, const std::vector<double>& inflation,
               const model_options& options, app_result& out);
app_result solve_app(const app_deployment& app,
                     const std::vector<double>& inflation,
                     const model_options& options = {});

// Solves the model for the given deployments on `host_count` hosts.
// Deployments are validated; see model.h. Equivalent to compute_host_loads()
// followed by one solve_app() per application.
//
// Thread-safety: solve(), compute_host_loads(), and solve_app() are pure
// functions — they read only their arguments, touch no global or static
// mutable state, and allocate nothing shared. Concurrent calls from
// different threads are safe (sharded pods decide on their own threads), and
// results are a deterministic function of the inputs, bit-identical across
// threads and runs.
solve_result solve(const std::vector<app_deployment>& apps, std::size_t host_count,
                   const model_options& options = {});

}  // namespace mistral::lqn
