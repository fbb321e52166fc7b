// System configurations.
//
// Section II-A: "A system configuration is represented by the set of VMs in
// the system, the physical machine on which they are hosted, and the CPU
// fraction allocated to them." A configuration here is a value type over the
// cluster_model's VM inventory: each VM is either dormant (in the cold-store
// pool) or deployed on a host with a CPU cap, and each host is powered on or
// off. Configurations hash and compare so the A* search can deduplicate
// vertices (Section IV-B).
//
// Section IV-B also distinguishes *candidate* configurations (which satisfy
// the per-host packing constraint) from *intermediate* ones (which do not,
// e.g. after an Increase-CPU that overbooks a host pending a migration).
// `structurally_valid` captures the constraints that must hold even for
// intermediates (memory, replica minima, powered hosts); `is_candidate` adds
// the CPU packing constraint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/model.h"
#include "common/ids.h"
#include "common/units.h"

namespace mistral::cluster {

struct vm_placement {
    host_id host;
    fraction cpu_cap = 0.0;

    friend bool operator==(const vm_placement&, const vm_placement&) = default;
};

class configuration {
public:
    configuration() = default;
    configuration(std::size_t vm_count, std::size_t host_count);

    [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
    [[nodiscard]] std::size_t host_count() const { return hosts_on_.size(); }

    [[nodiscard]] bool deployed(vm_id vm) const;
    // Placement of a deployed VM; nullopt for dormant VMs.
    [[nodiscard]] const std::optional<vm_placement>& placement(vm_id vm) const;
    [[nodiscard]] bool host_on(host_id host) const;
    // A failed host has crashed (or been fenced): it is powered off and may
    // not be powered back on until the failure clears. Distinct from a
    // deliberate power-off, which power_on can always reverse.
    [[nodiscard]] bool host_failed(host_id host) const;
    [[nodiscard]] bool any_host_failed() const;

    [[nodiscard]] std::vector<vm_id> vms_on(host_id host) const;
    // Number of VMs deployed on `host`; O(1) from the incremental aggregates.
    [[nodiscard]] std::size_t vm_count_on(host_id host) const;
    [[nodiscard]] std::size_t active_host_count() const;
    [[nodiscard]] std::size_t deployed_vm_count() const;

    // Sum of deployed CPU caps on `host`. Caps are multiples of 1e-3, so the
    // sum is kept as an exact integer milli-cap count: O(1), no accumulation
    // order to worry about.
    [[nodiscard]] fraction cap_sum(host_id host) const;
    // Sum of deployed VM memory on `host` (the model supplies footprints).
    [[nodiscard]] double memory_sum(const cluster_model& model, host_id host) const;

    // Mutators round caps to 1e-3 so value equality is exact.
    void deploy(vm_id vm, host_id host, fraction cpu_cap);
    void undeploy(vm_id vm);
    void set_cap(vm_id vm, fraction cpu_cap);
    void set_host_power(host_id host, bool on);
    // Marking a host failed also forces it off (a crashed host draws no
    // power and hosts nothing); clearing the mark leaves it off until a
    // power_on action deliberately brings it back.
    void set_host_failed(host_id host, bool failed);

    // O(1): returns the incrementally maintained Zobrist hash. Every mutator
    // XORs the affected placement/power/failure keys in and out, so probing a
    // vertex map never pays the O(VMs + hosts) key walk the A* search used to
    // rebuild on every generated child. `verify_hash()` (and the
    // debug assertion in cluster::apply) proves the incremental value equals
    // a from-scratch recompute.
    [[nodiscard]] std::size_t hash() const {
        return static_cast<std::size_t>(zobrist_);
    }
    // From-scratch recomputation of the incremental hash — the debug-build
    // invariant and the randomized hash tests compare against this.
    [[nodiscard]] std::uint64_t recompute_hash() const;
    // True when the incremental hash matches the from-scratch value.
    [[nodiscard]] bool verify_hash() const { return zobrist_ == recompute_hash(); }
    // Equality is over placements, host power, and failure marks; the
    // per-host aggregates are derived data.
    friend bool operator==(const configuration& a, const configuration& b) {
        return a.vms_ == b.vms_ && a.hosts_on_ == b.hosts_on_ &&
               a.hosts_failed_ == b.hosts_failed_;
    }

    // Human-readable one-line summary (placements + host states).
    [[nodiscard]] std::string describe(const cluster_model& model) const;

private:
    std::vector<std::optional<vm_placement>> vms_;
    std::vector<bool> hosts_on_;
    std::vector<bool> hosts_failed_;
    // Derived per-host aggregates, maintained by the mutators. Milli-caps are
    // exact integers (caps are rounded to 1e-3), so incremental updates can
    // never drift from a from-scratch sum.
    std::vector<std::int32_t> host_cap_milli_;
    std::vector<std::int32_t> host_vm_count_;
    // Incremental Zobrist hash: XOR of one pseudo-random 64-bit key per
    // (vm, host, milli-cap) placement, per powered-on host, and per failure
    // mark, over a size-derived base. XOR updates are self-inverse, so every
    // mutator maintains it in O(1) and a cleared failure mark restores the
    // exact healthy hash (the search's replay determinism relies on that).
    std::uint64_t zobrist_ = 0;
};

// Constraints that every configuration — candidate or intermediate — must
// satisfy: deployed VMs sit on powered-on hosts with enough memory and a free
// VM slot, caps lie inside the tier's [min, max] window, and every tier keeps
// at least its minimum replica count deployed. Returns false and fills *why
// (when non-null) on the first violation.
bool structurally_valid(const cluster_model& model, const configuration& config,
                        std::string* why = nullptr);

// Structural validity minus the replica-minimum floor: the state a cluster
// legitimately occupies right after a host crash killed some tier's replicas
// and before the controller has re-deployed them. Placement, memory, slot,
// power, and failure-mark constraints still hold; only the per-tier
// min_replicas requirement is waived.
bool structurally_valid_degraded(const cluster_model& model,
                                 const configuration& config,
                                 std::string* why = nullptr);

// A candidate additionally satisfies the packing constraint: the CPU caps on
// each host sum to at most limits().host_cpu_cap.
bool is_candidate(const cluster_model& model, const configuration& config,
                  std::string* why = nullptr);

// Weighted Euclidean distance between the CPU-cap vectors of `a` and `b`,
// with each VM weighted by its relative cap in `ideal` (Section IV-B's
// pruning metric: bigger VMs in the ideal configuration matter more).
double cap_distance(const cluster_model& model, const configuration& a,
                    const configuration& b, const configuration& ideal);

// Placement distance: fraction of VMs whose host differs between `a` and `b`
// (the paper counts identical locations and normalizes; this is 1 − that).
double placement_distance(const cluster_model& model, const configuration& a,
                          const configuration& b);

}  // namespace mistral::cluster

template <>
struct std::hash<mistral::cluster::configuration> {
    std::size_t operator()(const mistral::cluster::configuration& c) const noexcept {
        return c.hash();
    }
};
