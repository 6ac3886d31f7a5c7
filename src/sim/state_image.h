// Typed, cursor-ordered field store for whole-system state capture and
// restore — the primitive under both the snapres recovery mechanism
// (hypervisor-state rollback, recovery/snapres.h) and the warm-fork
// campaign runner (full-system epoch images, core/campaign.cc).
//
// A class participates by listing its mutable fields exactly once:
//
//   template <typename V>
//   void VisitState(V&& v) { v(count_); v(pending_); nested_.VisitState(v); }
//
// Capture walks the fields with a StateSaver (copies each into the image,
// in order); restore walks the *same* code path with a StateLoader (copies
// each back, in the same order), so the save/load sequences cannot drift
// apart. Fields must be copyable; variable-shape structures (tables whose
// entries are created or destroyed between capture and restore) branch on
// V::kSave inside their VisitState and reconcile explicitly.
//
// Images are value stores, not serialized bytes: capture is a handful of
// copies, restore is the same in reverse, and one image can seed any
// number of restores (Rewind() resets the read cursor).
#pragma once

#include <any>
#include <cstddef>
#include <vector>

namespace nlh::sim {

class StateImage {
 public:
  void Clear() {
    fields_.clear();
    cursor_ = 0;
  }
  void Rewind() { cursor_ = 0; }
  bool Empty() const { return fields_.empty(); }

  template <typename T>
  void Put(const T& v) {
    fields_.emplace_back(std::in_place_type<T>, v);
  }

  // Reads the next field; the requested type must match the captured type
  // exactly (std::any_cast throws otherwise — a save/load sequence bug).
  template <typename T>
  const T& Get() {
    return std::any_cast<const T&>(fields_[cursor_++]);
  }

 private:
  std::vector<std::any> fields_;
  std::size_t cursor_ = 0;
};

struct StateSaver {
  static constexpr bool kSave = true;
  StateImage& img;
  template <typename T>
  void operator()(const T& field) {
    img.Put(field);
  }
};

struct StateLoader {
  static constexpr bool kSave = false;
  StateImage& img;
  // Reconciliation mode for variable-shape tables (see hv::DomainTable):
  // true (warm-fork restore: the event queue is restored alongside, so
  // nothing can reference post-capture entries) prunes entries created
  // after the capture; false (snapres rollback: live guests and pending
  // events still reference post-snapshot entries) leaves them in place.
  bool prune_new = true;
  template <typename T>
  void operator()(T& field) {
    field = img.Get<T>();
  }
};

}  // namespace nlh::sim
