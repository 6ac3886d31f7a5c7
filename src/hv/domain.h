// Domains (VMs) as the hypervisor sees them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "hv/event_channel.h"
#include "hv/grant_table.h"
#include "hv/heap.h"
#include "hv/types.h"

namespace nlh::hv {

class GuestInterface;

enum class DomainLifecycle : std::uint8_t {
  kCreating = 0,
  kRunning,
  kShutdown,
  kDead,
};

struct Domain {
  DomainId id = kInvalidDomain;
  std::string name;
  bool is_privileged = false;  // the PrivVM / Dom0
  DomainLifecycle lifecycle = DomainLifecycle::kCreating;

  std::vector<VcpuId> vcpus;

  // Guest memory: the frames backing this domain (a representative sample
  // of its allocation; see frame_table.h scale note).
  FrameNumber first_frame = kInvalidFrame;
  std::uint64_t num_frames = 0;
  // Frames acquired at runtime via memory_op increase_reservation.
  std::vector<FrameNumber> extra_frames;
  // Present bit of the guest PTE covering each frame of the base range
  // (index = frame - first_frame). mmu_update(map) requires absent,
  // mmu_update(unmap) requires present — re-executing a completed update
  // therefore fails exactly like Xen's PTE validation would. One byte per
  // frame, not vector<bool>: the mmu_update path reads and writes it on
  // every call, and a byte needs no bit masking.
  std::vector<std::uint8_t> pte_present;

  EventChannelTable evtchn;
  GrantTable grants;

  // Heap objects backing struct domain, the grant table, and the event
  // channel buckets. Each embeds a lock; recovery's "release all locks
  // stored in the heap" step (Section V-A) iterates these.
  HeapObjectId struct_obj = kInvalidHeapObject;
  HeapObjectId grant_obj = kInvalidHeapObject;
  HeapObjectId evtchn_obj = kInvalidHeapObject;

  // Models a stray write into this domain's hypervisor-side structures.
  bool struct_corrupted = false;

  // Non-owning; set by the guest layer after construction.
  GuestInterface* guest = nullptr;

  bool alive() const {
    return lifecycle == DomainLifecycle::kRunning ||
           lifecycle == DomainLifecycle::kCreating;
  }
};

// The hypervisor's domain list: a flat vector of unique_ptr<Domain> kept
// sorted by id (replacing std::map<DomainId, Domain>).
//
// Two invariants matter:
//  - Iteration is id-ascending, exactly like the map it replaced — the
//    audit walkers and campaign JSON depend on this order for byte-
//    identical goldens.
//  - Domain addresses are stable across insert/erase (the indirection via
//    unique_ptr): hypercall handlers hold Domain* across nested operations
//    that create or destroy other domains (e.g. a PrivVM toolstack slice
//    creating a domain mid-slice).
//
// Find probes the slot its id indexes (ids count up from 0 and only erase
// leaves gaps, so the probe misses only after an erase) and falls back to
// a binary search over the contiguous id array; with the handful of
// domains a host runs this is faster than the map's pointer-chasing and
// allocation-free on the create path (ids are assigned monotonically, so
// insertion is push_back).
class DomainTable {
 public:
  class iterator {
   public:
    using Inner = std::vector<std::unique_ptr<Domain>>::iterator;
    explicit iterator(Inner it) : it_(it) {}
    Domain& operator*() const { return **it_; }
    Domain* operator->() const { return it_->get(); }
    iterator& operator++() { ++it_; return *this; }
    bool operator==(const iterator& o) const { return it_ == o.it_; }
    bool operator!=(const iterator& o) const { return it_ != o.it_; }
   private:
    Inner it_;
  };
  class const_iterator {
   public:
    using Inner = std::vector<std::unique_ptr<Domain>>::const_iterator;
    explicit const_iterator(Inner it) : it_(it) {}
    const Domain& operator*() const { return **it_; }
    const Domain* operator->() const { return it_->get(); }
    const_iterator& operator++() { ++it_; return *this; }
    bool operator==(const const_iterator& o) const { return it_ == o.it_; }
    bool operator!=(const const_iterator& o) const { return it_ != o.it_; }
   private:
    Inner it_;
  };

  iterator begin() { return iterator(slots_.begin()); }
  iterator end() { return iterator(slots_.end()); }
  const_iterator begin() const { return const_iterator(slots_.begin()); }
  const_iterator end() const { return const_iterator(slots_.end()); }

  bool empty() const { return slots_.empty(); }
  std::size_t size() const { return slots_.size(); }

  // i-th domain in id order (deterministic random pick for injection).
  Domain& at_index(std::size_t i) { return *slots_[i]; }

  Domain& Insert(Domain&& dom) {
    auto it = LowerBound(dom.id);
    it = slots_.insert(it, std::make_unique<Domain>(std::move(dom)));
    return **it;
  }

  Domain* Find(DomainId id) {
    const auto slot = static_cast<std::size_t>(id);
    if (slot < slots_.size() && slots_[slot]->id == id) {
      return slots_[slot].get();
    }
    auto it = LowerBound(id);
    return (it != slots_.end() && (*it)->id == id) ? it->get() : nullptr;
  }
  const Domain* Find(DomainId id) const {
    return const_cast<DomainTable*>(this)->Find(id);
  }

  std::size_t count(DomainId id) const { return Find(id) != nullptr ? 1 : 0; }

  std::size_t erase(DomainId id) {
    auto it = LowerBound(id);
    if (it == slots_.end() || (*it)->id != id) return 0;
    slots_.erase(it);
    return 1;
  }

  // Snapshot/restore (sim/state_image.h). Domain itself is plainly copyable
  // (the guest pointer is non-owning and guest objects outlive restores),
  // but the table reconciles by id so Domain* held by live code stays valid:
  // domains on both sides are assigned in place, domains destroyed since the
  // capture are resurrected, and domains created since the capture are
  // pruned (warm-fork restore) or kept (snapres rollback) per
  // StateLoader::prune_new.
  template <typename V>
  void VisitState(V&& v) {
    if constexpr (std::decay_t<V>::kSave) {
      std::vector<DomainId> ids;
      ids.reserve(slots_.size());
      for (const auto& d : slots_) ids.push_back(d->id);
      v(ids);
      for (auto& d : slots_) v(*d);
    } else {
      std::vector<DomainId> ids;
      v(ids);
      if (v.prune_new) {
        std::erase_if(slots_, [&](const std::unique_ptr<Domain>& d) {
          return !std::binary_search(ids.begin(), ids.end(), d->id);
        });
      }
      for (DomainId id : ids) {
        Domain* d = Find(id);
        if (d == nullptr) {
          Domain fresh;
          fresh.id = id;
          d = &Insert(std::move(fresh));
        }
        v(*d);
      }
    }
  }

 private:
  std::vector<std::unique_ptr<Domain>>::iterator LowerBound(DomainId id) {
    return std::lower_bound(slots_.begin(), slots_.end(), id,
                            [](const std::unique_ptr<Domain>& d, DomainId v) {
                              return d->id < v;
                            });
  }

  std::vector<std::unique_ptr<Domain>> slots_;  // sorted by id
};

}  // namespace nlh::hv
