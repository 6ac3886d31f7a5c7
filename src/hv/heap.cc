#include "hv/heap.h"

#include <algorithm>

namespace nlh::hv {

namespace {
// A free-list walk longer than this is declared a livelock (cycle).
constexpr int kMaxWalk = 1 << 16;
}  // namespace

void HvHeap::Init(std::uint64_t pages) {
  const FrameNumber first = frames_.Alloc(pages, FrameType::kXenHeap, kInvalidDomain);
  heap_base_ = first;
  total_pages_ = pages;
  free_pages_ = pages;
  allocated_pages_ = 0;
  chunks_.clear();
  Chunk all;
  all.pages = pages;
  all.first_frame = first;
  all.next = kNullChunk;
  all.live = true;
  chunks_.push_back(all);
  free_head_ = 0;
  corrupted_ = false;
  NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kHeap);
}

std::int64_t HvHeap::AllocChunkSlot() {
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    if (!chunks_[i].live) return static_cast<std::int64_t>(i);
  }
  chunks_.push_back(Chunk{});
  return static_cast<std::int64_t>(chunks_.size() - 1);
}

void HvHeap::WalkCheck(std::int64_t idx, int steps) const {
  if (idx == kNullChunk) return;
  if (idx < 0 || idx >= static_cast<std::int64_t>(chunks_.size()) ||
      !chunks_[static_cast<std::size_t>(idx)].live) {
    throw HvPanic("heap free list corrupted: wild chunk pointer");
  }
  if (steps > kMaxWalk) {
    throw HvHang("heap free list corrupted: cycle in chunk linkage");
  }
}

HeapObjectId HvHeap::Alloc(const std::string& tag, std::uint64_t pages,
                           bool with_lock) {
  HvAssert(pages > 0, "zero-page heap allocation");
  // First-fit walk over the free list.
  std::int64_t prev = kNullChunk;
  std::int64_t idx = free_head_;
  int steps = 0;
  WalkCheck(idx, steps);
  while (idx != kNullChunk) {
    Chunk& c = chunks_[static_cast<std::size_t>(idx)];
    if (c.pages >= pages) break;
    prev = idx;
    idx = c.next;
    WalkCheck(idx, ++steps);
  }
  if (idx == kNullChunk) throw HvPanic("hypervisor heap exhausted");

  Chunk& c = chunks_[static_cast<std::size_t>(idx)];
  const FrameNumber obj_first = c.first_frame;
  if (c.pages == pages) {
    // Unlink the whole chunk.
    if (prev == kNullChunk) {
      free_head_ = c.next;
    } else {
      chunks_[static_cast<std::size_t>(prev)].next = c.next;
    }
    c.live = false;
  } else {
    c.first_frame += pages;
    c.pages -= pages;
  }
  free_pages_ -= pages;
  allocated_pages_ += pages;

  HeapObject obj;
  obj.id = next_id_++;
  obj.tag = tag;
  obj.first_frame = obj_first;
  obj.pages = pages;
  if (with_lock) {
    obj.lock = std::make_unique<SpinLock>("heap:" + tag);
  }
  const HeapObjectId id = obj.id;
  objects_.push_back(std::move(obj));  // ids are monotonic: stays sorted
  NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kHeap);
  return id;
}

void HvHeap::Free(HeapObjectId id) {
  auto it = LowerBound(id);
  HvAssert(it != objects_.end() && it->id == id, "freeing unknown heap object");
  const std::uint64_t pages = it->pages;
  const FrameNumber first = it->first_frame;
  objects_.erase(it);

  const std::int64_t slot = AllocChunkSlot();
  Chunk& c = chunks_[static_cast<std::size_t>(slot)];
  c.pages = pages;
  c.first_frame = first;
  c.next = free_head_;
  c.live = true;
  free_head_ = slot;
  free_pages_ += pages;
  allocated_pages_ -= pages;
  NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kHeap);
}

std::vector<HeapObject>::iterator HvHeap::LowerBound(HeapObjectId id) {
  return std::lower_bound(
      objects_.begin(), objects_.end(), id,
      [](const HeapObject& o, HeapObjectId v) { return o.id < v; });
}

int HvHeap::ReleaseAllLocks() {
  int released = 0;
  for (HeapObject& obj : objects_) {
    if (obj.lock && obj.lock->held()) {
      obj.lock->ForceRelease();
      ++released;
    }
  }
  if (released > 0) NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kHeap);
  return released;
}

int HvHeap::HeldLockCount() const {
  int held = 0;
  for (const HeapObject& obj : objects_) {
    if (obj.lock && obj.lock->held()) ++held;
  }
  return held;
}

std::uint64_t HvHeap::RecreateFreeList() {
  // Collect live objects sorted by first frame, then rebuild the free list
  // as the gaps between them. This is ReHype's "recreate the new heap":
  // the result is valid regardless of how mangled the old linkage was.
  std::vector<const HeapObject*> live;
  live.reserve(objects_.size());
  for (const HeapObject& obj : objects_) live.push_back(&obj);
  std::sort(live.begin(), live.end(),
            [](const HeapObject* a, const HeapObject* b) {
              return a->first_frame < b->first_frame;
            });

  chunks_.clear();
  free_head_ = kNullChunk;
  corrupted_ = false;

  // Heap frames span [base, base + total_pages_). Derive base from the
  // lowest object or assume the heap began at the lowest known frame.
  // Track the scan cursor through the object layout.
  std::uint64_t rebuilt = 0;
  std::uint64_t free_accum = 0;
  const FrameNumber heap_base = heap_base_;
  FrameNumber cursor = heap_base;

  auto add_free_chunk = [&](FrameNumber first, std::uint64_t pages) {
    if (pages == 0) return;
    Chunk c;
    c.pages = pages;
    c.first_frame = first;
    c.next = free_head_;
    c.live = true;
    chunks_.push_back(c);
    free_head_ = static_cast<std::int64_t>(chunks_.size() - 1);
    free_accum += pages;
    ++rebuilt;
  };

  if (heap_base == kInvalidFrame) {
    // No objects and no recorded base: nothing to rebuild.
    free_pages_ = total_pages_;
    allocated_pages_ = 0;
    NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kHeap);
    return 0;
  }

  for (const HeapObject* obj : live) {
    if (obj->first_frame > cursor) {
      add_free_chunk(cursor, obj->first_frame - cursor);
    }
    cursor = obj->first_frame + obj->pages;
  }
  const FrameNumber heap_end = heap_base + total_pages_;
  if (cursor < heap_end) add_free_chunk(cursor, heap_end - cursor);

  free_pages_ = free_accum;
  allocated_pages_ = total_pages_ - free_accum;
  NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kHeap);
  return rebuilt;
}

void HvHeap::CorruptFreeList(bool fatal) {
  corrupted_ = true;
  if (free_head_ == kNullChunk) {
    free_head_ = kPoisonChunk;  // empty list: corrupt the head itself
    return;
  }
  Chunk& c = chunks_[static_cast<std::size_t>(free_head_)];
  c.next = fatal ? kPoisonChunk : free_head_;  // wild pointer or self-cycle
}

void HvHeap::CorruptObjectExtent(HeapObjectId id) {
  HeapObject* obj = Find(id);
  HvAssert(obj != nullptr, "corrupting extent of unknown heap object");
  ++obj->first_frame;
}

std::vector<std::pair<FrameNumber, std::uint64_t>> HvHeap::FreeChunkExtents()
    const {
  std::vector<std::pair<FrameNumber, std::uint64_t>> extents;
  std::int64_t idx = free_head_;
  int steps = 0;
  while (idx != kNullChunk) {
    if (idx < 0 || idx >= static_cast<std::int64_t>(chunks_.size())) return {};
    const Chunk& c = chunks_[static_cast<std::size_t>(idx)];
    if (!c.live) return {};
    extents.emplace_back(c.first_frame, c.pages);
    if (++steps > kMaxWalk) return {};
    idx = c.next;
  }
  return extents;
}

bool HvHeap::CheckFreeListIntegrity() const {
  std::int64_t idx = free_head_;
  int steps = 0;
  std::uint64_t pages = 0;
  while (idx != kNullChunk) {
    if (idx < 0 || idx >= static_cast<std::int64_t>(chunks_.size())) return false;
    const Chunk& c = chunks_[static_cast<std::size_t>(idx)];
    if (!c.live) return false;
    pages += c.pages;
    if (++steps > kMaxWalk) return false;
    idx = c.next;
  }
  return pages == free_pages_;
}

}  // namespace nlh::hv
