#include "forensics/profiler.h"

#include <cstdint>
#include <map>
#include <unordered_map>

namespace nlh::forensics {

namespace {

// Frame separators and whitespace would corrupt the collapsed format.
std::string SanitizeFrame(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  return out.empty() ? std::string("?") : out;
}

}  // namespace

std::string CollapsedStackProfile(const std::vector<FlightEvent>& events) {
  // Index events by seq for parent-chain walks, and accumulate each span's
  // child coverage so self time = duration - children. Rings can drop
  // parents (overwritten events); a child whose parent is missing is
  // treated as a root, and its time still counts toward its own frame.
  std::unordered_map<std::uint64_t, const FlightEvent*> by_seq;
  by_seq.reserve(events.size());
  for (const FlightEvent& ev : events) by_seq[ev.seq] = &ev;

  std::unordered_map<std::uint64_t, std::int64_t> child_time;
  for (const FlightEvent& ev : events) {
    if (ev.parent != 0 && by_seq.count(ev.parent) != 0) {
      child_time[ev.parent] += ev.dur;
    }
  }

  std::map<std::string, std::uint64_t> weights;  // path -> self ns
  for (const FlightEvent& ev : events) {
    std::int64_t self = ev.dur;
    auto it = child_time.find(ev.seq);
    if (it != child_time.end()) self -= it->second;
    if (self <= 0) continue;  // fully covered by children (or an instant)

    // Build root;...;self by walking the parent chain (bounded, in case of
    // a malformed input whose links form a cycle).
    std::vector<const FlightEvent*> chain{&ev};
    const FlightEvent* cur = &ev;
    for (int depth = 0; depth < 64; ++depth) {
      if (cur->parent == 0) break;
      auto pit = by_seq.find(cur->parent);
      if (pit == by_seq.end()) break;
      cur = pit->second;
      chain.push_back(cur);
    }
    std::string path;
    for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
      if (!path.empty()) path += ";";
      path += SanitizeFrame(EventName(**rit));
    }
    weights[path] += static_cast<std::uint64_t>(self);
  }

  std::string out;
  for (const auto& [path, ns] : weights) {
    out += path + " " + std::to_string(ns) + "\n";
  }
  return out;
}

}  // namespace nlh::forensics
