// Discrete-event simulation core: a time-ordered queue of callbacks.
//
// The entire target system (hardware, hypervisor, guests, external network
// peers) advances by popping the earliest event and running it. Events
// scheduled at the same timestamp run in FIFO order, which keeps runs
// deterministic for a fixed seed.
//
// Implementation notes (this is the hottest structure in a campaign; see
// bench/bench_sim_core.cc):
//  - Callbacks live in a slab of pooled slots recycled through a free list,
//    stored as SmallFn (small-buffer optimized, move-only), so steady-state
//    scheduling performs no allocation and popping never copies a callback.
//  - The heap is a 4-ary min-heap of 24-byte plain structs ordered by
//    (when, seq); `seq` is a per-schedule monotonic counter, giving the
//    same FIFO-among-equal-timestamps order as the previous id-ordered
//    binary heap. Sifts move a hole instead of swapping.
//  - Events scheduled for the current instant (a third of all schedules:
//    CPU kicks, wakeups) skip the heap and go to a FIFO lane. The run order
//    is still exactly (when, seq): a heap entry stamped Now() was scheduled
//    before the clock reached Now(), so it precedes every lane entry and
//    runs first; lane entries run in schedule order; and the clock cannot
//    advance past Now() until the lane drains.
//  - Cancellation bumps the slot's generation counter (O(1)) and frees the
//    slot; the stale heap or lane entry is skipped when it surfaces.
//    EventId packs (generation << 32 | slot), so a recycled slot never
//    honours an old id.
//  - ReleaseStorage()/adopting constructor let a campaign worker recycle
//    the slab, heap and lane buffers across runs (core::RunArena) without
//    carrying any logical state between runs.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/small_fn.h"
#include "sim/time.h"

namespace nlh::sim {

// Handle for a scheduled event; allows cancellation (e.g. reprogramming a
// one-shot APIC timer cancels its previously scheduled fire event).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

// Pooled callback slot. Generations start at 1 so an EventId is never 0
// (kInvalidEvent); a slot's generation is bumped whenever the slot is
// freed (fire or cancel), invalidating outstanding ids and heap entries.
struct EventSlot {
  SmallFn fn;
  std::uint32_t gen = 1;
};

// Heap entry: 24 bytes, plain data. `seq` preserves schedule order among
// equal timestamps (FIFO), matching the previous implementation exactly.
struct EventHeapEntry {
  Time when;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

// Zero-delay lane entry: its time is the queue's Now() and its order is
// its position in the lane.
struct EventLaneEntry {
  std::uint32_t slot;
  std::uint32_t gen;
};

class EventQueue {
 public:
  // Recyclable buffers (no logical state): see core::RunArena.
  struct Storage {
    std::vector<EventSlot> slots;
    std::vector<EventHeapEntry> heap;
    std::vector<EventLaneEntry> lane;
    std::vector<std::uint32_t> free_slots;
  };

  EventQueue() = default;
  // Adopts recycled buffers: capacity is reused, contents are discarded.
  explicit EventQueue(Storage&& recycled) { Adopt(std::move(recycled)); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Post-construction flavor of the adopting constructor, for queues
  // embedded in other objects (hw::Platform). Only meaningful before the
  // first ScheduleAt; once anything has been scheduled it is a no-op, so
  // pending events can never be dropped.
  void AdoptStorage(Storage&& recycled) {
    if (!slots_.empty()) return;
    Adopt(std::move(recycled));
  }

  // Tears down all pending events and hands the buffers back for reuse.
  Storage ReleaseStorage() {
    for (EventSlot& s : slots_) s.fn.Reset();
    slots_.clear();
    heap_.clear();
    lane_.clear();
    lane_head_ = 0;
    free_.clear();
    live_ = 0;
    return Storage{std::move(slots_), std::move(heap_), std::move(lane_),
                   std::move(free_)};
  }

  // Deep snapshot of the whole queue: pending callbacks are cloned (see
  // SmallFn::Clone), the heap / lane / free list / clock / sequence counter
  // are copied. Restoring re-clones from the image, so one capture can seed
  // any number of restores (the warm-fork campaign runner restores the same
  // epoch image once per run). Move-only because EventSlot holds SmallFn.
  struct Image {
    Time now = 0;
    std::uint64_t next_seq = 1;
    std::size_t live = 0;
    std::vector<EventSlot> slots;
    std::vector<EventHeapEntry> heap;
    std::vector<EventLaneEntry> lane;  // pending lane entries, in order
    std::vector<std::uint32_t> free_slots;
  };

  Image CaptureImage() const {
    Image img;
    img.now = now_;
    img.next_seq = next_seq_;
    img.live = live_;
    img.slots.reserve(slots_.size());
    for (const EventSlot& s : slots_) {
      EventSlot c;
      c.gen = s.gen;
      if (s.fn) c.fn = s.fn.Clone();
      img.slots.push_back(std::move(c));
    }
    img.heap = heap_;
    img.lane.assign(lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_),
                    lane_.end());
    img.free_slots = free_;
    return img;
  }

  void RestoreImage(const Image& img) {
    slots_.clear();
    slots_.reserve(img.slots.size());
    for (const EventSlot& s : img.slots) {
      EventSlot c;
      c.gen = s.gen;
      if (s.fn) c.fn = s.fn.Clone();
      slots_.push_back(std::move(c));
    }
    heap_ = img.heap;
    lane_ = img.lane;
    lane_head_ = 0;
    free_ = img.free_slots;
    now_ = img.now;
    next_seq_ = img.next_seq;
    live_ = img.live;
  }

  Time Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay. Requires delay >= 0.
  template <typename F>
  EventId ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at an absolute time (clamped to be no earlier than Now()).
  template <typename F>
  EventId ScheduleAt(Time when, F&& fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    EventSlot& s = slots_[slot];
    s.fn = SmallFn(std::forward<F>(fn));
    if (when <= now_) {
      lane_.push_back(EventLaneEntry{slot, s.gen});
    } else {
      HeapPush(EventHeapEntry{when, next_seq_++, slot, s.gen});
    }
    ++live_;
    return MakeId(slot, s.gen);
  }

  // Cancels a pending event. Cancelling an unknown, already-run or
  // already-cancelled event is a no-op. Returns true if it was pending.
  bool Cancel(EventId id) {
    if (id == kInvalidEvent) return false;
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
    FreeSlot(slot);
    --live_;
    return true;
  }

  bool Empty() const { return live_ == 0; }
  std::size_t PendingCount() const { return live_; }

  // Runs the next pending event, advancing the clock. Returns false if the
  // queue is empty.
  bool RunOne() {
    std::uint32_t slot;
    if (!PopNext(&slot)) return false;
    // Move the callback to a local before freeing the slot: the callback
    // may schedule events, growing the slab and reusing this slot.
    SmallFn fn = std::move(slots_[slot].fn);
    FreeSlot(slot);
    --live_;
    fn();
    return true;
  }

  // Runs events until the clock passes `deadline` or the queue drains.
  // Events stamped exactly at `deadline` still run.
  void RunUntil(Time deadline) {
    while (!Empty() && NextTime() <= deadline) RunOne();
    if (now_ < deadline) now_ = deadline;
  }

  // Runs all events to completion. Intended for tests and short scenarios;
  // campaigns use RunUntil with a workload deadline.
  void RunAll() {
    while (RunOne()) {
    }
  }

  // Timestamp of the earliest pending (non-cancelled) event. Stale entries
  // for cancelled events are dropped on the way.
  Time NextTime() {
    while (!lane_.empty()) {
      const EventLaneEntry& e = lane_[lane_head_];
      if (slots_[e.slot].gen == e.gen) return now_;  // heap entries are >= now_
      PopLane();
    }
    while (!heap_.empty()) {
      const EventHeapEntry& top = heap_.front();
      if (slots_[top.slot].gen == top.gen) return top.when;
      HeapPop();
    }
    return std::numeric_limits<Time>::max();
  }

 private:
  static EventId MakeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  void Adopt(Storage&& recycled) {
    slots_ = std::move(recycled.slots);
    heap_ = std::move(recycled.heap);
    lane_ = std::move(recycled.lane);
    free_ = std::move(recycled.free_slots);
    slots_.clear();
    heap_.clear();
    lane_.clear();
    lane_head_ = 0;
    free_.clear();
  }

  // Pops the earliest live event in (when, seq) order into `*slot`,
  // advancing the clock. Heap entries are never earlier than now_, and one
  // stamped now_ precedes the whole lane (see the header comment).
  bool PopNext(std::uint32_t* slot) {
    while (true) {
      if (!heap_.empty() && (lane_.empty() || heap_.front().when <= now_)) {
        const EventHeapEntry top = heap_.front();
        HeapPop();
        if (slots_[top.slot].gen != top.gen) continue;  // cancelled
        now_ = top.when;
        *slot = top.slot;
        return true;
      }
      if (lane_.empty()) return false;
      const EventLaneEntry e = lane_[lane_head_];
      PopLane();
      if (slots_[e.slot].gen != e.gen) continue;  // cancelled
      *slot = e.slot;
      return true;
    }
  }

  // The lane is a vector read from lane_head_; it is reset once drained,
  // which happens before the clock can advance.
  void PopLane() {
    if (++lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
  }

  // Invalidates any outstanding EventId / heap entry for `slot` and returns
  // it to the free list.
  void FreeSlot(std::uint32_t slot) {
    EventSlot& s = slots_[slot];
    ++s.gen;
    s.fn.Reset();
    free_.push_back(slot);
  }

  // 4-ary min-heap ordered by (when, seq): shallower than a binary heap
  // (fewer cache-missing levels per sift) at the cost of three extra
  // comparisons per level, a good trade for 24-byte entries.
  static bool Less(const EventHeapEntry& a, const EventHeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // Both sifts carry the moving entry in a local and shift the entries it
  // passes into the hole, writing it once where it settles.
  void HeapPush(const EventHeapEntry& e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!Less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void HeapPop() {
    const EventHeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    while (true) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (Less(heap_[c], heap_[best])) best = c;
      }
      if (!Less(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::vector<EventSlot> slots_;
  std::vector<EventHeapEntry> heap_;
  std::vector<EventLaneEntry> lane_;
  std::size_t lane_head_ = 0;  // next lane entry to run
  std::vector<std::uint32_t> free_;
};

}  // namespace nlh::sim
