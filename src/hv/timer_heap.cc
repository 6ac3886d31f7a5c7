#include "hv/timer_heap.h"

#include <limits>

#include "forensics/record.h"

namespace nlh::hv {

TimerId TimerHeap::Insert(SoftTimer timer) {
  if (timer.id == kInvalidTimer) timer.id = next_id_++;
  const TimerId id = timer.id;
  next_id_ = std::max(next_id_, id + 1);
  entries_.push_back(std::move(timer));
  SiftUp(entries_.size() - 1);
  NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kTimer);
  return id;
}

bool TimerHeap::Remove(TimerId id) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id != id) continue;
    entries_[i] = std::move(entries_.back());
    entries_.pop_back();
    if (i < entries_.size()) {
      SiftDown(i);
      SiftUp(i);
    }
    NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kTimer);
    return true;
  }
  return false;
}

bool TimerHeap::RemoveByName(const std::string& name) {
  for (const SoftTimer& t : entries_) {
    if (t.name == name) return Remove(t.id);
  }
  return false;
}

bool TimerHeap::Contains(TimerId id) const {
  for (const SoftTimer& t : entries_) {
    if (t.id == id) return true;
  }
  return false;
}

bool TimerHeap::ContainsName(const std::string& name) const {
  for (const SoftTimer& t : entries_) {
    if (t.name == name) return true;
  }
  return false;
}

sim::Time TimerHeap::NextDeadline() const {
  if (entries_.empty()) return std::numeric_limits<sim::Time>::max();
  return entries_.front().deadline;
}

bool TimerHeap::PopExpired(sim::Time now, SoftTimer* out) {
  if (entries_.empty()) return false;
  const SoftTimer& top = entries_.front();
  // A negative deadline can only come from corruption; Xen's timer code
  // would compute a bogus APIC delta and trip an assertion here.
  HvAssert(top.deadline >= 0, "timer heap entry has corrupt deadline");
  if (top.deadline > now) return false;
  // Move, not copy: the entry's name string and callback are handed to the
  // caller; the heap slot is about to be overwritten anyway.
  *out = std::move(entries_.front());
  NLH_RECORD(forensics::EventKind::kTimerFire, cpu_,
             static_cast<std::uint64_t>(out->deadline), 0, out->name);
  entries_.front() = std::move(entries_.back());
  entries_.pop_back();
  if (!entries_.empty()) SiftDown(0);
  NLH_INTEGRITY_NOTE(ledger_, integrity::Surface::kTimer);
  return true;
}

void TimerHeap::CorruptEntry(std::size_t index, bool push_out) {
  if (entries_.empty()) return;
  SoftTimer& t = entries_[index % entries_.size()];
  if (push_out) {
    t.deadline = std::numeric_limits<sim::Time>::max() / 2;
  } else {
    t.deadline = -1;
  }
  // Deliberately NOT re-heapified: the corruption broke heap order in
  // place, exactly as a stray write would.
}

// Both sifts move a hole instead of swapping: the sifted timer is held in a
// local, the entries it passes shift into the hole, and it is written once
// where it settles. The comparisons, and so the final order (ties
// included), are exactly those of a swapping sift.
void TimerHeap::SiftUp(std::size_t i) {
  if (i == 0 || entries_[(i - 1) / 2].deadline <= entries_[i].deadline) return;
  SoftTimer moving = std::move(entries_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (entries_[parent].deadline <= moving.deadline) break;
    entries_[i] = std::move(entries_[parent]);
    i = parent;
  }
  entries_[i] = std::move(moving);
}

void TimerHeap::SiftDown(std::size_t i) {
  const std::size_t n = entries_.size();
  // The child that must move up into slot `at`, or `at` if none.
  const auto smaller_child = [this, n](std::size_t at, sim::Time deadline) {
    std::size_t smallest = at;
    const std::size_t l = 2 * at + 1;
    const std::size_t r = 2 * at + 2;
    if (l < n && entries_[l].deadline < deadline) {
      smallest = l;
      deadline = entries_[l].deadline;
    }
    if (r < n && entries_[r].deadline < deadline) smallest = r;
    return smallest;
  };
  std::size_t child = smaller_child(i, entries_[i].deadline);
  if (child == i) return;
  SoftTimer moving = std::move(entries_[i]);
  do {
    entries_[i] = std::move(entries_[child]);
    i = child;
    child = smaller_child(i, moving.deadline);
  } while (child != i);
  entries_[i] = std::move(moving);
}

}  // namespace nlh::hv
