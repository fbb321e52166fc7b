#include "apps/application.h"

#include <cmath>

namespace mistral::apps {

application_spec::application_spec(std::string name, std::vector<tier_spec> tiers,
                                   std::vector<transaction_type> transactions,
                                   seconds target_response_time)
    : name_(std::move(name)),
      tiers_(std::move(tiers)),
      transactions_(std::move(transactions)),
      target_rt_(target_response_time) {
    MISTRAL_CHECK(!tiers_.empty());
    MISTRAL_CHECK(!transactions_.empty());
    MISTRAL_CHECK(target_rt_ > 0.0);
    double mix_sum = 0.0;
    for (const auto& tx : transactions_) {
        MISTRAL_CHECK_MSG(tx.visits.size() == tiers_.size(),
                          "transaction '" << tx.name << "' visits size mismatch");
        MISTRAL_CHECK_MSG(tx.demand.size() == tiers_.size(),
                          "transaction '" << tx.name << "' demand size mismatch");
        MISTRAL_CHECK(tx.mix >= 0.0);
        mix_sum += tx.mix;
    }
    MISTRAL_CHECK_MSG(std::abs(mix_sum - 1.0) < 1e-6,
                      "transaction mix must sum to 1, got " << mix_sum);
    for (const auto& t : tiers_) {
        MISTRAL_CHECK(t.min_replicas >= 1 && t.max_replicas >= t.min_replicas);
        MISTRAL_CHECK(t.min_cpu_cap > 0.0 && t.max_cpu_cap >= t.min_cpu_cap &&
                      t.max_cpu_cap <= 1.0);
        MISTRAL_CHECK(t.memory_mb > 0.0);
        MISTRAL_CHECK(t.threads >= 1);
    }
    // Summed over the transactions in order, as the sums were when each call
    // recomputed them, so the values are bit-identical.
    for (std::size_t tier = 0; tier < tiers_.size(); ++tier) {
        seconds demand = 0.0;
        double visits = 0.0;
        for (const auto& tx : transactions_) {
            demand += tx.mix * tx.visits[tier] * tx.demand[tier];
            visits += tx.mix * tx.visits[tier];
        }
        mean_tier_demand_.push_back(demand);
        mean_tier_visits_.push_back(visits);
    }
}

seconds application_spec::target_response_time(req_per_sec /*rate*/) const {
    return target_rt_;
}

}  // namespace mistral::apps
