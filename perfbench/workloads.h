// The benchmark's workloads, decision checks and metric catalog.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "cluster/model.h"

namespace perfbench {

struct run_config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    // Shortened scenarios, one episode, every check on (the benchmark's own
    // tests); also asserts that each workload still exercises its layers.
    bool short_mode = false;
    std::string spans_path;  // "" = keep spans in memory only
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct run_report {
    bool correct = true;
    std::int64_t attempted = 0;  // invoked decisions
    std::int64_t failed = 0;     // invoked decisions that failed a check
    std::vector<metric> metrics;
    std::vector<std::string> notes;     // printed before the result line
    std::vector<std::string> problems;  // failed checks (empty when correct)
};

[[nodiscard]] const std::vector<std::string>& workload_names();
// Runs one workload per `cfg`; never throws for a failed check (the report
// carries it), only for a program error.
[[nodiscard]] run_report run_workload(const run_config& cfg);

// ---- Decision checks (exposed so the self-test can feed them bad input) ----

// Every action must apply legally, in order, from `from`.
bool check_plan(const mistral::cluster::cluster_model& model,
                const mistral::cluster::configuration& from,
                const std::vector<mistral::cluster::action>& actions,
                std::vector<std::string>& problems);
// Pod budgets must sum to the cluster budget to the milliwatt.
bool check_budgets(const std::vector<double>& budgets, double total,
                   std::vector<std::string>& problems);
// Pod app sets plus stray apps must partition 0..app_count-1.
bool check_partition(const std::vector<std::vector<std::size_t>>& pod_apps,
                     const std::vector<std::size_t>& strays, std::size_t app_count,
                     std::vector<std::string>& problems);
// A JSONL journal must re-read with no torn line and `events` lines.
bool check_journal(const std::string& text, std::int64_t events,
                   std::vector<std::string>& problems);
// A checkpoint must re-encode byte-identically after decoding.
bool check_checkpoint(const std::string& checkpoint,
                      std::vector<std::string>& problems);

}  // namespace perfbench
