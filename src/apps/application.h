// Application specifications.
//
// Section II-A: each managed application is a multi-tier service; each
// transaction type "generates a unique call graph through some subset of
// application tiers". A spec captures the tiers (with replication limits and
// CPU-cap bounds), the transaction types (visit counts and per-visit CPU
// demands per tier), and the per-application performance objective.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace mistral::apps {

struct tier_spec {
    std::string name;
    int min_replicas = 1;
    int max_replicas = 1;
    fraction min_cpu_cap = 0.2;   // paper: 20% floor avoids request errors
    fraction max_cpu_cap = 0.8;   // paper: 80% host cap leaves room for Dom-0
    double memory_mb = 200.0;     // per-VM footprint (Section V-A)
    int threads = 32;             // software concurrency of one replica
};

// One transaction type's path through the tiers. `visits[t]` is the mean
// number of synchronous calls into tier t per request; `demand[t]` is the
// CPU time (seconds) consumed per visit at tier t.
struct transaction_type {
    std::string name;
    double mix = 0.0;                  // probability of this type in the mix
    std::vector<double> visits;        // per tier
    std::vector<seconds> demand;       // per tier, per visit
};

class application_spec {
public:
    application_spec(std::string name, std::vector<tier_spec> tiers,
                     std::vector<transaction_type> transactions,
                     seconds target_response_time);

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const std::vector<tier_spec>& tiers() const { return tiers_; }
    [[nodiscard]] const std::vector<transaction_type>& transactions() const {
        return transactions_;
    }
    [[nodiscard]] std::size_t tier_count() const { return tiers_.size(); }

    // The target mean response time TRT(w). The paper uses a constant 400 ms
    // derived from a default configuration; the rate argument keeps the
    // Section II-B generality ("response time targets ... are allowed to
    // depend on the request rate").
    [[nodiscard]] seconds target_response_time(req_per_sec rate) const;

    // Mix-weighted total CPU demand per request at tier t (visits × demand),
    // i.e. the expected CPU seconds tier t spends on one incoming request.
    // Computed once by the constructor: the LQN passes read it per replica
    // of every solve.
    [[nodiscard]] seconds mean_tier_demand(std::size_t tier) const {
        MISTRAL_CHECK(tier < tiers_.size());
        return mean_tier_demand_[tier];
    }

    // Mix-weighted total visits into tier t per request; computed once, like
    // mean_tier_demand.
    [[nodiscard]] double mean_tier_visits(std::size_t tier) const {
        MISTRAL_CHECK(tier < tiers_.size());
        return mean_tier_visits_[tier];
    }

private:
    std::string name_;
    std::vector<tier_spec> tiers_;
    std::vector<transaction_type> transactions_;
    seconds target_rt_;
    std::vector<seconds> mean_tier_demand_;  // per tier
    std::vector<double> mean_tier_visits_;   // per tier
};

}  // namespace mistral::apps
