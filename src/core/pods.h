// Pod specifications and cluster partitions.
//
// A *pod* is the unit of sharded control (DESIGN.md §13): a named, stable
// subset of hosts managed by one pod-local controller. `pod_spec` replaces
// the raw `std::vector<std::vector<std::size_t>>` host groups the two-level
// hierarchy used to take — the raw form carried no identity, no band, and no
// action-menu restriction, so every caller re-derived them. A `partition` is
// a validated set of pods: pairwise disjoint and, together, covering every
// host in the model.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "common/units.h"

namespace mistral::core {

struct pod_spec {
    // Stable pod identity: journal events, metric names, and budget reports
    // key on it. Partition validation requires ids 0..n-1 in order.
    std::size_t id = 0;
    // Host indices owned by this pod (deduplicated+sorted by the builder).
    std::vector<std::size_t> hosts;
    // Workload band width for the pod's controller; nullopt inherits the
    // builder's base band (the two-level hierarchy pins level-1 pods to 0).
    std::optional<req_per_sec> band{};
    // Action mask for the pod's controller; nullopt inherits the base menu.
    std::optional<cluster::action_menu> menu{};
};

// A validated cluster partition. Construction (via the builder functions
// below or the checked constructor) throws invariant_error unless the pods
// have sequential ids, non-empty disjoint host sets, and together cover
// every host of the model exactly once.
class partition {
public:
    partition(const cluster::cluster_model& model, std::vector<pod_spec> pods);

    [[nodiscard]] const std::vector<pod_spec>& pods() const { return pods_; }
    [[nodiscard]] std::size_t size() const { return pods_.size(); }
    [[nodiscard]] const pod_spec& pod(std::size_t id) const { return pods_[id]; }
    // Pod id owning host h.
    [[nodiscard]] std::size_t pod_of_host(std::size_t host) const {
        return host_owner_[host];
    }

private:
    std::vector<pod_spec> pods_;
    std::vector<std::size_t> host_owner_;
};

// Splits `model`'s hosts into `pod_count` contiguous runs of near-equal size
// (the first `host_count % pod_count` pods get one extra host).
partition uniform_partition(const cluster::cluster_model& model,
                            std::size_t pod_count);

// Converts the hierarchy's legacy raw host groups into level-1 pod specs:
// band 0 and a CPU-tuning + migration menu, the paper's first-level
// controller shape (Section II-C).
std::vector<pod_spec> level1_pods(std::vector<std::vector<std::size_t>> groups);

// Derives the app → pod assignment implied by `initial`: an app belongs to
// the pod hosting its deployed VMs. Throws invariant_error when an app's VMs
// straddle pods (the sharded coordinator requires pod-contained apps; use
// the migration broker to move whole apps between pods afterwards). Apps
// with no deployed VMs go to pod 0.
std::vector<std::size_t> assign_apps(const cluster::cluster_model& model,
                                     const partition& parts,
                                     const cluster::configuration& initial);

}  // namespace mistral::core
