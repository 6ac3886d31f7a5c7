// Span tracer for the simulator: structured, nested spans carrying
// *simulated* start/end times (sim::Time), the emitting CPU, and a parent
// link, stored in a bounded ring buffer and exportable in Chrome
// trace_event JSON ("X" complete events, chrome://tracing / Perfetto).
//
// Zero overhead when disabled: every recording call checks a single bool
// and returns immediately; no allocation, no storage, no span ids.
//
// Span names are interned: hot paths resolve a NameId once at setup
// (InternName survives Enable/Clear, so pre-resolved ids stay valid for
// the lifetime of the tracer) and record plain-struct entries with no
// string construction. The string-taking overloads intern on the fly and
// remain for cold paths. Strings are resolved back only in Snapshot().
//
// The simulator is single-threaded within one run (campaigns parallelize
// across runs, each with its own Hypervisor and therefore its own Tracer),
// so nesting is tracked with a plain open-span stack: Begin() pushes, End()
// pops, and a span's parent is whatever was on top when it began. Code
// whose simulated duration is only known after the fact (modeled latencies)
// can instead record complete spans with explicit times via Span().
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/json.h"
#include "sim/time.h"

namespace nlh::sim {

// Interned span-name id; index into the tracer's name table.
using NameId = std::uint32_t;

struct TraceEvent {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root (no enclosing span)
  Time start = 0;
  Time end = 0;
  int cpu = 0;
  std::string name;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  void Enable(std::size_t capacity = kDefaultCapacity) {
    enabled_ = true;
    capacity_ = capacity == 0 ? 1 : capacity;
    Clear();
  }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Discards recorded spans. The name-intern table is intentionally kept:
  // handles resolved before Enable()/Clear() must stay valid.
  void Clear() {
    ring_.clear();
    open_.clear();
    next_slot_ = 0;
    recorded_ = 0;
    next_id_ = 1;
  }

  // Resolves (registering if needed) the id for a span name. Valid whether
  // or not tracing is enabled, and stable across Enable/Disable/Clear.
  NameId InternName(const std::string& name) {
    auto it = name_ids_.find(name);
    if (it != name_ids_.end()) return it->second;
    const NameId id = static_cast<NameId>(names_.size());
    names_.push_back(name);
    name_ids_.emplace(name, id);
    return id;
  }

  // Opens a span at simulated time `start`, nested under the currently
  // innermost open span. Returns the span id (0 when disabled).
  std::uint32_t Begin(NameId name, int cpu, Time start) {
    if (!enabled_) return 0;
    Rec ev;
    ev.id = next_id_++;
    ev.parent = open_.empty() ? 0 : open_.back().id;
    ev.start = start;
    ev.end = start;
    ev.cpu = cpu;
    ev.name = name;
    open_.push_back(ev);
    return ev.id;
  }
  std::uint32_t Begin(const std::string& name, int cpu, Time start) {
    if (!enabled_) return 0;
    return Begin(InternName(name), cpu, start);
  }

  // Closes the span `id` at simulated time `end` and commits it to the ring
  // buffer. Spans must close innermost-first; closing a span also closes
  // (at the same instant) any forgotten spans nested inside it.
  void End(std::uint32_t id, Time end) {
    if (!enabled_ || id == 0) return;
    while (!open_.empty()) {
      Rec ev = open_.back();
      open_.pop_back();
      const bool match = ev.id == id;
      ev.end = std::max(end, ev.start);
      Commit(ev);
      if (match) return;
    }
  }

  // Records a complete span with explicit times as a child of the innermost
  // open span (modeled-latency recording).
  std::uint32_t Span(NameId name, int cpu, Time start, Time end) {
    if (!enabled_) return 0;
    Rec ev;
    ev.id = next_id_++;
    ev.parent = open_.empty() ? 0 : open_.back().id;
    ev.start = start;
    ev.end = std::max(end, start);
    ev.cpu = cpu;
    ev.name = name;
    Commit(ev);
    return ev.id;
  }
  std::uint32_t Span(const std::string& name, int cpu, Time start, Time end) {
    if (!enabled_) return 0;
    return Span(InternName(name), cpu, start, end);
  }

  // Zero-duration marker.
  std::uint32_t Instant(NameId name, int cpu, Time at) {
    return Span(name, cpu, at, at);
  }
  std::uint32_t Instant(const std::string& name, int cpu, Time at) {
    if (!enabled_) return 0;
    return Span(InternName(name), cpu, at, at);
  }

  // Committed spans, oldest first, sorted by start time (open spans are not
  // included until ended). Names are resolved from the intern table here.
  std::vector<TraceEvent> Snapshot() const {
    std::vector<Rec> recs;
    recs.reserve(ring_.size());
    // Ring order: next_slot_ points at the oldest entry once wrapped.
    if (recorded_ > ring_.size()) {
      recs.insert(recs.end(),
                  ring_.begin() + static_cast<std::ptrdiff_t>(next_slot_),
                  ring_.end());
      recs.insert(recs.end(), ring_.begin(),
                  ring_.begin() + static_cast<std::ptrdiff_t>(next_slot_));
    } else {
      recs = ring_;
    }
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Rec& a, const Rec& b) { return a.start < b.start; });
    std::vector<TraceEvent> out;
    out.reserve(recs.size());
    for (const Rec& r : recs) {
      TraceEvent ev;
      ev.id = r.id;
      ev.parent = r.parent;
      ev.start = r.start;
      ev.end = r.end;
      ev.cpu = r.cpu;
      ev.name = names_[r.name];
      out.push_back(std::move(ev));
    }
    return out;
  }

  // Total spans committed (including any overwritten by the ring).
  std::uint64_t recorded() const { return recorded_; }
  // Spans lost to ring overwrite.
  std::uint64_t dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  // Chrome trace_event JSON: {"traceEvents":[{"ph":"X",...}, ...]}.
  // ts/dur are in microseconds (fractional) of simulated time; tid is the
  // emitting CPU so each CPU gets its own track.
  std::string ToChromeJson() const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& ev : Snapshot()) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":" + JsonStr(ev.name) +
             ",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":" +
             JsonNum(static_cast<double>(ev.start) / kMicrosecond) +
             ",\"dur\":" +
             JsonNum(static_cast<double>(ev.end - ev.start) / kMicrosecond) +
             ",\"pid\":1,\"tid\":" + std::to_string(ev.cpu) +
             ",\"args\":{\"id\":" + std::to_string(ev.id) +
             ",\"parent\":" + std::to_string(ev.parent) + "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
  }

 private:
  // Internal record: plain data, no string — name is an intern-table index.
  struct Rec {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    Time start = 0;
    Time end = 0;
    int cpu = 0;
    NameId name = 0;
  };

  void Commit(const Rec& ev) {
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      ring_[next_slot_] = ev;
      next_slot_ = (next_slot_ + 1) % capacity_;
    }
    ++recorded_;
  }

  bool enabled_ = false;
  std::size_t capacity_ = kDefaultCapacity;
  std::vector<Rec> ring_;
  std::vector<Rec> open_;  // stack of open spans
  std::size_t next_slot_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<std::string> names_;                     // NameId -> name
  std::unordered_map<std::string, NameId> name_ids_;   // name -> NameId
};

}  // namespace nlh::sim
