// Hypercall interface definitions shared by the hypervisor and guests.
//
// A representative subset of the Xen PV hypercall ABI. For each call the
// table at the bottom records the retry-relevant properties that drive the
// Section IV enhancements: whether the handler is idempotent, whether it
// was enhanced with undo logging ("the mechanisms to mitigate hypercall
// retry failure"), and how a PV Linux kernel reacts if the call is silently
// lost (abandoned without the retry enhancement).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "hv/types.h"

namespace nlh::hv {

enum class HypercallCode : int {
  kMmuUpdate = 0,       // update page table entries (batched internally)
  kPageTablePin,        // validate a page as a page table
  kPageTableUnpin,      // devalidate
  kUpdateVaMapping,     // single PTE update
  kMemoryOpIncrease,    // increase_reservation (alloc frames to domain)
  kMemoryOpDecrease,    // decrease_reservation (free frames)
  kGrantMap,            // map a foreign grant (backend side)
  kGrantUnmap,          // unmap
  kGrantCopy,           // hypervisor-mediated copy (NOT retry-enhanced)
  kEventChannelSend,    // notify remote end
  kEventChannelAllocUnbound,
  kEventChannelBindInterdomain,
  kEventChannelClose,
  kSchedOpYield,
  kSchedOpBlock,        // block until an event is pending
  kSchedOpShutdown,     // domain self-shutdown
  kSetTimerOp,          // program the per-vCPU timer virq
  kConsoleIo,           // console output
  kDomctlCreate,        // PrivVM toolstack: create a domain
  kDomctlDestroy,       // PrivVM toolstack: destroy a domain
  kDomctlUnpause,       // PrivVM toolstack: start a created domain
  kVcpuOpUp,            // bring a vCPU online
  kXenVersion,          // trivial query (idempotent)
  kMulticall,           // batch of hypercalls (Section IV: batched retry)
  kPhysdevOp,           // interrupt routing management (PrivVM only)
  kCount,
};

inline constexpr int kNumHypercalls = static_cast<int>(HypercallCode::kCount);

std::string_view HypercallName(HypercallCode c);

// One batched component inside a multicall.
struct MulticallEntry {
  HypercallCode code = HypercallCode::kXenVersion;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

struct HypercallArgs {
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
  std::vector<MulticallEntry> batch;  // kMulticall only
};

// How a PV guest kernel reacts when this call is lost (abandoned with no
// retry): the probability that the loss is tolerated (guest-level retry or
// graceful error path) rather than fatal to the guest kernel / the issuing
// process. Derived from how Linux PV call sites check return codes; see
// DESIGN.md section 4. These feed the *guest* model, not the hypervisor.
struct HypercallTraits {
  bool idempotent = false;        // safe to re-execute blindly
  bool retry_enhanced = true;     // Section IV undo-log/reorder applied
  double lost_tolerated = 0.0;    // P(guest survives losing this call)
  bool priv_only = false;         // PrivVM-only call
};

// Indexed by code; a constant-initialized table, so a lookup is one load
// with no first-use guard (Dispatch reads it on every hypercall).
extern const std::array<HypercallTraits, kNumHypercalls> kHypercallTraits;

inline const HypercallTraits& TraitsOf(HypercallCode c) {
  return kHypercallTraits[static_cast<std::size_t>(c)];
}

}  // namespace nlh::hv
