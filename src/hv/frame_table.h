// The frame table: one descriptor per physical page frame.
//
// Mirrors Xen's page_info array. Each descriptor carries the two fields
// whose possible mutual inconsistency after recovery dominates NiLiHype's
// latency (Table III) and motivates the consistency scan both mechanisms
// run: the page-table *validation bit* and the page *use counter*
// (Section VII-B). Hypercall handlers mutate these fields step by step, so
// an abandoned handler leaves real partial state behind; non-idempotent
// retry without the undo log double-applies counter updates.
//
// NOTE ON SCALE: the mechanically-simulated frame table is a representative
// window (default 16 Ki frames); the configured physical memory size (8 GB
// in the paper) enters through the recovery latency model, which charges
// the per-descriptor scan cost for every frame of the *configured* memory.
#pragma once

#include <cstdint>
#include <vector>

#include "hv/panic.h"
#include "hv/types.h"
#include "integrity/hash.h"
#include "integrity/mutation_ledger.h"
#include "sim/rng.h"

namespace nlh::hv {

enum class FrameType : std::uint8_t {
  kFree = 0,
  kXenHeap,     // backs the hypervisor heap
  kDomainPage,  // ordinary guest memory
  kPageTable,   // guest page table page (pinned/validated)
};

struct PageFrameDescriptor {
  FrameType type = FrameType::kFree;
  bool validated = false;   // page-table validation bit
  std::int32_t use_count = 0;  // reference counter
  DomainId owner = kInvalidDomain;
};

// Result of the recovery-time consistency scan.
struct FrameScanReport {
  std::uint64_t scanned = 0;
  std::uint64_t repaired = 0;
};

class FrameTable {
 public:
  explicit FrameTable(std::uint64_t num_frames) : frames_(num_frames) {}

  std::uint64_t size() const { return frames_.size(); }
  const PageFrameDescriptor& desc(FrameNumber f) const { return frames_[f]; }
  PageFrameDescriptor& mutable_desc(FrameNumber f) { return frames_[f]; }

  std::uint64_t free_frames() const { return size() - allocated_; }
  std::uint64_t allocated_frames() const { return allocated_; }

  // --- Allocation --------------------------------------------------------

  // Allocates `count` contiguous-enough frames (contiguity is not modeled)
  // for `owner`. Returns the first frame number of a linear run; frames are
  // handed out from a bump cursor with a free list for reuse.
  FrameNumber Alloc(std::uint64_t count, FrameType type, DomainId owner);

  // Frees one frame. Asserts the descriptor is in a freeable state — the
  // assertion that fires post-recovery when an unrepaired descriptor is
  // touched.
  void FreeOne(FrameNumber f);

  void FreeRange(FrameNumber first, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) FreeOne(first + i);
  }

  // --- Reference counting (hypercall building blocks) ---------------------

  // get_page: take a reference. Non-idempotent: a retried hypercall that
  // already executed this step double-increments unless undone.
  void GetPage(FrameNumber f) {
    PageFrameDescriptor& d = frames_[f];
    HvAssert(d.type != FrameType::kFree, "get_page on free frame");
    ++d.use_count;
    NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kFrameTable);
  }

  // put_page: drop a reference.
  void PutPage(FrameNumber f) {
    PageFrameDescriptor& d = frames_[f];
    HvAssert(d.use_count > 0, "page reference count underflow");
    --d.use_count;
    NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kFrameTable);
  }

  // --- Page-table validation ----------------------------------------------

  // pin: validate a guest page as a page table.
  void ValidatePageTable(FrameNumber f) {
    PageFrameDescriptor& d = frames_[f];
    HvBugOn(d.validated, "validating an already-validated page table");
    HvAssert(d.type == FrameType::kDomainPage || d.type == FrameType::kPageTable,
             "validating a non-guest page");
    d.type = FrameType::kPageTable;
    d.validated = true;
    NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kFrameTable);
  }

  // unpin: devalidate.
  void InvalidatePageTable(FrameNumber f) {
    PageFrameDescriptor& d = frames_[f];
    HvAssert(d.validated, "invalidating a non-validated page table");
    d.validated = false;
    d.type = FrameType::kDomainPage;
    NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kFrameTable);
  }

  // --- Integrity -----------------------------------------------------------

  // Whether a descriptor satisfies the type/validated/use-count invariants.
  static bool Consistent(const PageFrameDescriptor& d);

  // Counts inconsistent descriptors (test/diagnostic helper).
  std::uint64_t CountInconsistent() const;

  // The recovery scan (both mechanisms): restore consistency between the
  // validation bit and the use counter of every descriptor, using the most
  // reliable of the two fields (Section VII-B).
  FrameScanReport ScanAndRepair();

  // Picks an allocated frame uniformly at random, for fault injection.
  // Returns kInvalidFrame if none are allocated.
  FrameNumber PickAllocatedFrame(sim::Rng& rng) const;

  // Resets every descriptor to free (fresh boot).
  void ResetAll();

  // Integrity observability (integrity/ladder.cc): mixes the allocator
  // state and every descriptor in the touched window [0, bump_) into `h`.
  // Frames beyond the bump cursor are still factory-fresh and can only
  // change by moving the cursor itself, so hashing them would triple the
  // epoch cost without widening coverage. PageFrameDescriptor is padded,
  // hence field-wise.
  template <typename H>
  void HashInto(H& h) const {
    h.Mix(bump_);
    h.Mix(allocated_);
    h.Mix(static_cast<std::uint64_t>(free_list_.size()));
    for (FrameNumber f : free_list_) h.MixWord(f);
    // This sweep runs every epoch over the whole window, so it uses packed
    // single-round mixing (MixDescriptor) across four independent
    // accumulator lanes: a single xor-multiply chain is bound by multiply
    // latency (~4 cycles each), four interleaved chains run at multiply
    // throughput. Lane seeds differ so equal-content lanes cannot cancel;
    // the fixed fold order keeps the value deterministic.
    std::uint64_t a = integrity::kHashSeed;
    std::uint64_t b = integrity::kHashSeed + 1;
    std::uint64_t c = integrity::kHashSeed + 2;
    std::uint64_t d = integrity::kHashSeed + 3;
    FrameNumber f = 0;
    for (; f + 4 <= bump_; f += 4) {
      a = MixDescriptor(a, frames_[f]);
      b = MixDescriptor(b, frames_[f + 1]);
      c = MixDescriptor(c, frames_[f + 2]);
      d = MixDescriptor(d, frames_[f + 3]);
    }
    for (; f < bump_; ++f) a = MixDescriptor(a, frames_[f]);
    h.MixWord(a);
    h.MixWord(b);
    h.MixWord(c);
    h.MixWord(d);
  }

  // Integrity observability (integrity/mutation_ledger.h): every legitimate
  // mutator records a frame-table note; injection writes through
  // mutable_desc and stays invisible to the ledger by construction.
  void SetLedger(integrity::MutationLedger* ledger) { ledger_ = ledger; }

  // One descriptor folded into a hash lane: type and validated share a
  // word with the full 32-bit owner (disjoint bit ranges, no truncation),
  // use_count gets its own word.
  static std::uint64_t MixDescriptor(std::uint64_t x,
                                     const PageFrameDescriptor& d) {
    x = (x ^ (static_cast<std::uint64_t>(d.type) |
              (static_cast<std::uint64_t>(d.validated) << 8) |
              (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.owner))
               << 16))) *
        integrity::kHashPrime;
    return (x ^ static_cast<std::uint32_t>(d.use_count)) *
           integrity::kHashPrime;
  }

  // Snapshot/restore (sim/state_image.h). The table is fixed-size, so a
  // whole-vector copy restores every descriptor plus the allocator state.
  template <typename V>
  void VisitState(V&& v) {
    v(frames_);
    v(free_list_);
    v(bump_);
    v(allocated_);
  }

 private:
  std::vector<PageFrameDescriptor> frames_;
  std::vector<FrameNumber> free_list_;
  FrameNumber bump_ = 0;
  std::uint64_t allocated_ = 0;
  integrity::MutationLedger* ledger_ = nullptr;  // not forked: wiring
};

}  // namespace nlh::hv
