// The hypervisor heap (Xen's xenheap), backed by page frames.
//
// Two properties matter for the recovery mechanisms:
//  1. The free list is a real linked structure. A fault that corrupts its
//     linkage makes the next allocation walk off into garbage (panic) or
//     around a cycle (hang). ReHype *recreates* the heap during reboot
//     (Table II: 211 ms), which repairs free-list corruption; NiLiHype
//     reuses the heap in place and cannot (one mechanical source of
//     ReHype's recovery-rate edge, Section VII-A reason 3).
//  2. Locks embedded in heap-allocated objects are tracked here so that the
//     ReHype-inherited "release all locks stored in the heap" recovery step
//     (Section V-A) can iterate them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "hv/frame_table.h"
#include "hv/panic.h"
#include "hv/spinlock.h"
#include "hv/types.h"
#include "integrity/mutation_ledger.h"

namespace nlh::hv {

using HeapObjectId = std::uint64_t;
inline constexpr HeapObjectId kInvalidHeapObject = 0;

struct HeapObject {
  HeapObjectId id = kInvalidHeapObject;
  std::string tag;           // e.g. "domain", "vcpu", "evtchn_bucket"
  FrameNumber first_frame = kInvalidFrame;
  std::uint64_t pages = 0;
  std::unique_ptr<SpinLock> lock;  // embedded lock, if any
};

class HvHeap {
 public:
  explicit HvHeap(FrameTable& frames) : frames_(frames) {}

  HvHeap(const HvHeap&) = delete;
  HvHeap& operator=(const HvHeap&) = delete;

  // Seeds the heap with `pages` frames taken from the frame table.
  void Init(std::uint64_t pages);

  // Allocates an object of `pages` pages. If `with_lock`, the object embeds
  // a spinlock registered for recovery-time release. Walks the free list —
  // the walk is where free-list corruption manifests.
  HeapObjectId Alloc(const std::string& tag, std::uint64_t pages,
                     bool with_lock = false);

  void Free(HeapObjectId id);

  // Ids count up from 1 and only Free leaves gaps, so objects_[id - 1]
  // almost always holds the object; the binary search runs only on a miss.
  HeapObject* Find(HeapObjectId id) {
    const std::size_t slot = id - 1;  // id 0 wraps past every slot
    if (slot < objects_.size() && objects_[slot].id == id) {
      return &objects_[slot];
    }
    auto it = LowerBound(id);
    return (it != objects_.end() && it->id == id) ? &*it : nullptr;
  }
  SpinLock* LockOf(HeapObjectId id) {
    HeapObject* obj = Find(id);
    return (obj != nullptr) ? obj->lock.get() : nullptr;
  }

  std::uint64_t allocated_pages() const { return allocated_pages_; }
  std::uint64_t free_pages() const { return free_pages_; }
  std::uint64_t num_objects() const { return objects_.size(); }
  std::uint64_t total_pages() const { return total_pages_; }
  FrameNumber heap_base() const { return heap_base_; }

  // Read-only view of the live objects, id-ascending (audit / census
  // walkers depend on this order for deterministic output). Ids are
  // assigned monotonically, so allocation appends and the vector stays
  // sorted; Free erases in place.
  const std::vector<HeapObject>& objects() const { return objects_; }

  // Safe, non-throwing free-list walk for the audit engine: returns the
  // (first_frame, pages) extent of every reachable free chunk, or an empty
  // vector if the linkage is corrupt (wild pointer or cycle).
  std::vector<std::pair<FrameNumber, std::uint64_t>> FreeChunkExtents() const;

  // --- Recovery operations -------------------------------------------------

  // ReHype-inherited: force-release every lock embedded in a live object.
  int ReleaseAllLocks();
  int HeldLockCount() const;

  // ReHype reboot step "recreate the new heap": rebuild the free list from
  // scratch around the preserved allocated objects. Repairs any free-list
  // corruption. Returns the number of free chunks rebuilt.
  std::uint64_t RecreateFreeList();

  // --- Fault injection surface ----------------------------------------------

  // Corrupts the linkage of a random free-list node. The `fatal` flavor
  // points the link at garbage (panic on walk); otherwise it creates a
  // cycle (hang on walk).
  void CorruptFreeList(bool fatal);

  // Corrupts a live object's recorded extent (stray write into its header):
  // shifts first_frame up by one page, so the extent now overlaps whatever
  // extent follows it in the heap layout.
  void CorruptObjectExtent(HeapObjectId id);

  // Corrupts the page-accounting counters (stray write): the allocated
  // count no longer matches the object census.
  void CorruptAccounting() { ++allocated_pages_; }

  // Integrity check used by tests and post-run validation.
  bool CheckFreeListIntegrity() const;

  // Integrity observability (integrity/ladder.cc): mixes every heap-surface
  // field into `h` deterministically. Walks the raw chunk slots rather than
  // the free-list linkage, so corrupted linkage changes the hash instead of
  // faulting inside the monitor; skips corrupted_ (the injection
  // ground-truth marker) so the ladder observes only the modeled structure.
  template <typename H>
  void HashInto(H& h) const {
    h.Mix(static_cast<std::uint64_t>(chunks_.size()));
    for (const Chunk& c : chunks_) {
      h.Mix(c.pages);
      h.Mix(c.first_frame);
      h.Mix(static_cast<std::int64_t>(c.next));
      h.Mix(c.live);
    }
    h.Mix(static_cast<std::int64_t>(free_head_));
    h.Mix(next_id_);
    h.Mix(heap_base_);
    h.Mix(total_pages_);
    h.Mix(allocated_pages_);
    h.Mix(free_pages_);
    h.Mix(static_cast<std::uint64_t>(objects_.size()));
    for (const HeapObject& o : objects_) {
      h.Mix(o.id);
      h.Mix(o.tag);
      h.Mix(o.first_frame);
      h.Mix(o.pages);
      h.Mix(o.lock != nullptr);
      if (o.lock) h.Mix(static_cast<std::int32_t>(o.lock->holder()));
    }
  }

  // Integrity observability: legitimate mutators note the heap surface;
  // the Corrupt* injection hooks above stay invisible by construction.
  void SetLedger(integrity::MutationLedger* ledger) { ledger_ = ledger; }

  // Snapshot/restore (sim/state_image.h). The free list, accounting and
  // allocator cursor copy wholesale; objects_ needs reconciliation because
  // HeapObject embeds its lock behind a unique_ptr whose address (handed
  // out by LockOf) must survive restore: objects present on both sides are
  // restored field-wise in place, objects freed since the capture are
  // re-inserted with a fresh lock (nobody holds a pointer to a freed
  // object's lock), and objects allocated since the capture are pruned or
  // kept per StateLoader::prune_new.
  template <typename V>
  void VisitState(V&& v) {
    v(chunks_);
    v(free_head_);
    v(next_id_);
    v(heap_base_);
    v(total_pages_);
    v(allocated_pages_);
    v(free_pages_);
    v(corrupted_);
    if constexpr (std::decay_t<V>::kSave) {
      std::vector<HeapObjectId> ids;
      std::vector<std::uint8_t> has_lock;
      ids.reserve(objects_.size());
      has_lock.reserve(objects_.size());
      for (const HeapObject& o : objects_) {
        ids.push_back(o.id);
        has_lock.push_back(o.lock != nullptr ? 1 : 0);
      }
      v(ids);
      v(has_lock);
      for (HeapObject& o : objects_) {
        v(o.tag);
        v(o.first_frame);
        v(o.pages);
        if (o.lock) o.lock->VisitState(v);
      }
    } else {
      std::vector<HeapObjectId> ids;
      std::vector<std::uint8_t> has_lock;
      v(ids);
      v(has_lock);
      if (v.prune_new) {
        std::erase_if(objects_, [&](const HeapObject& o) {
          return !std::binary_search(ids.begin(), ids.end(), o.id);
        });
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        auto it = LowerBound(ids[i]);
        if (it == objects_.end() || it->id != ids[i]) {
          HeapObject fresh;
          fresh.id = ids[i];
          it = objects_.insert(it, std::move(fresh));
        }
        v(it->tag);
        v(it->first_frame);
        v(it->pages);
        if (has_lock[i] != 0) {
          if (!it->lock) it->lock = std::make_unique<SpinLock>("heap:" + it->tag);
          it->lock->VisitState(v);
        } else {
          it->lock.reset();
        }
      }
    }
  }

 private:
  struct Chunk {
    std::uint64_t pages = 0;
    FrameNumber first_frame = kInvalidFrame;
    std::int64_t next = kNullChunk;  // index into chunks_, or kNullChunk
    bool live = false;               // slot in use (free-list node)
  };
  static constexpr std::int64_t kNullChunk = -1;
  static constexpr std::int64_t kPoisonChunk = 0x00dead00;

  std::int64_t AllocChunkSlot();
  void WalkCheck(std::int64_t idx, int steps) const;
  std::vector<HeapObject>::iterator LowerBound(HeapObjectId id);

  FrameTable& frames_;
  std::vector<Chunk> chunks_;
  std::int64_t free_head_ = kNullChunk;
  // Flat, id-sorted (ids are monotonic, so Alloc is push_back). HeapObject
  // moves on erase, but the embedded lock is behind a unique_ptr, so lock
  // addresses handed out by LockOf stay stable.
  std::vector<HeapObject> objects_;
  HeapObjectId next_id_ = 1;
  FrameNumber heap_base_ = kInvalidFrame;
  std::uint64_t total_pages_ = 0;
  std::uint64_t allocated_pages_ = 0;
  std::uint64_t free_pages_ = 0;
  bool corrupted_ = false;
  integrity::MutationLedger* ledger_ = nullptr;  // not forked: wiring
};

}  // namespace nlh::hv
