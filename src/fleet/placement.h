// VM placement for evacuation-on-failed-recovery: when a host's recovery
// gives up, every tenant VM it served is restarted on a peer chosen by the
// fleet's placement policy. Pure and deterministic — the decision depends
// only on the current load view, never on iteration order or threads.
#pragma once

#include <cstdint>
#include <vector>

namespace nlh::fleet {

enum class PlacementPolicy {
  kLeastLoaded,  // fewest tenant VMs; ties break to the lowest host id
  kFirstFit,     // lowest host id with spare capacity
};

inline const char* PlacementPolicyName(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
    case PlacementPolicy::kFirstFit: return "first-fit";
  }
  return "?";
}

// One host's standing in the placement decision.
struct HostLoad {
  bool alive = true;
  int tenants = 0;
};

// Chooses the target host for one evacuated tenant VM, or -1 when no live
// host has spare capacity (the caller then strands the tenant — the
// "no capacity left" edge case the test battery pins).
inline int ChoosePlacement(PlacementPolicy policy,
                           const std::vector<HostLoad>& hosts, int capacity) {
  int best = -1;
  for (int h = 0; h < static_cast<int>(hosts.size()); ++h) {
    const HostLoad& load = hosts[static_cast<std::size_t>(h)];
    if (!load.alive || load.tenants >= capacity) continue;
    switch (policy) {
      case PlacementPolicy::kFirstFit:
        return h;  // hosts scan in id order
      case PlacementPolicy::kLeastLoaded:
        if (best < 0 ||
            load.tenants < hosts[static_cast<std::size_t>(best)].tenants) {
          best = h;
        }
        break;
    }
  }
  return best;
}

}  // namespace nlh::fleet
