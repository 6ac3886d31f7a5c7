// Metrics registry: named counters and histograms replacing
// ad-hoc stat-struct field twiddling. One registry per simulated host
// (campaigns parallelize across runs, each with its own registry), so no
// atomics are needed. Metric objects are owned by the registry and their
// addresses are stable — hot paths resolve a handle (or cache a pointer)
// once and bump it without a map lookup.
//
// Name lookup is an unordered_map (resolution happens at setup time, not
// on the hot path); deterministic field order is imposed only at JSON
// export, by sorting the names then.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/json.h"

namespace nlh::sim {

class Counter {
 public:
  void Inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

  template <typename V>
  void VisitState(V&& v) {
    v(value_);
  }

 private:
  std::uint64_t value_ = 0;
};

// Exact-sample histogram (runs are short; memory is bounded by a sample
// cap after which only count/sum/min/max stay exact).
class Histogram {
 public:
  static constexpr std::size_t kMaxSamples = 1 << 16;

  void Observe(double v) {
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
    if (samples_.size() < kMaxSamples) samples_.push_back(v);
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  // Exact quantile over the retained samples with linear interpolation
  // between closest ranks (the "exclusive" definition used by numpy's
  // default percentile): rank = q*(n-1), result = s[lo] + frac*(s[lo+1]-
  // s[lo]). q <= 0 yields the minimum sample, q >= 1 the maximum.
  double Quantile(double q) const {
    if (samples_.empty()) return 0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (q <= 0) return sorted.front();
    if (q >= 1) return sorted.back();
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) return sorted.back();
    return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
  }

  template <typename V>
  void VisitState(V&& v) {
    v(count_);
    v(sum_);
    v(min_);
    v(max_);
    v(samples_);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<double> samples_;
};

// Pre-resolved counter handle: resolve once at setup
// (MetricsRegistry::CounterHandleFor), then the hot path is a single pointer
// dereference. A default-constructed handle is inert (valid() == false);
// using an invalid handle is UB, so hot-path call sites resolve in their
// constructor.
class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(Counter* c) : c_(c) {}
  void Inc(std::uint64_t delta = 1) { c_->Inc(delta); }
  std::uint64_t value() const { return c_->value(); }
  bool valid() const { return c_ != nullptr; }
  Counter* get() const { return c_; }

 private:
  Counter* c_ = nullptr;
};

class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name) {
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<Counter>();
    return *slot;
  }
  Histogram& GetHistogram(const std::string& name) {
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    return *slot;
  }

  CounterHandle CounterHandleFor(const std::string& name) {
    return CounterHandle(&GetCounter(name));
  }

  const Counter* FindCounter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
  }
  const Histogram* FindHistogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
  }

  // {"counters":{...},"gauges":{},"histograms":{name:{count,mean,...}}}
  // Field order is deterministic: names are sorted at export time (the
  // live maps are unordered; nothing ordered is maintained on the
  // registration path). "gauges" stays, empty, so the export's shape is
  // unchanged for its readers.
  std::string ToJson() const {
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto* kv : SortedByName(counters_)) {
      if (!first) out += ",";
      first = false;
      out += JsonStr(kv->first) + ":" + std::to_string(kv->second->value());
    }
    out += "},\"gauges\":{},\"histograms\":{";
    first = true;
    for (const auto* kv : SortedByName(histograms_)) {
      if (!first) out += ",";
      first = false;
      const Histogram* h = kv->second.get();
      out += JsonStr(kv->first) + ":{\"count\":" + std::to_string(h->count()) +
             ",\"sum\":" + JsonNum(h->sum()) +
             ",\"min\":" + JsonNum(h->min()) +
             ",\"max\":" + JsonNum(h->max()) +
             ",\"mean\":" + JsonNum(h->Mean()) +
             ",\"p50\":" + JsonNum(h->Quantile(0.50)) +
             ",\"p99\":" + JsonNum(h->Quantile(0.99)) + "}";
    }
    out += "}}";
    return out;
  }

  // Snapshot/restore (sim/state_image.h). Metric *objects* must survive a
  // restore in place — handles and cached pointers resolve once and are
  // never re-resolved — so restore writes values into existing entries,
  // creates entries that were registered at capture time but are missing
  // now, and prunes entries registered after the capture (handles to those
  // cannot exist on the restored timeline) when StateLoader::prune_new.
  template <typename V>
  void VisitState(V&& v) {
    VisitMap(v, counters_);
    VisitMap(v, histograms_);
  }

 private:
  template <typename V, typename M>
  void VisitMap(V&& v, M& m) {
    if constexpr (std::decay_t<V>::kSave) {
      std::vector<std::string> names;
      names.reserve(m.size());
      for (const auto& kv : m) names.push_back(kv.first);
      std::sort(names.begin(), names.end());
      v(names);
      for (const std::string& name : names) m[name]->VisitState(v);
    } else {
      std::vector<std::string> names;
      v(names);
      if (v.prune_new) {
        std::erase_if(m, [&](const auto& kv) {
          return !std::binary_search(names.begin(), names.end(), kv.first);
        });
      }
      for (const std::string& name : names) {
        auto& slot = m[name];
        if (slot == nullptr) slot = std::make_unique<typename M::mapped_type::element_type>();
        slot->VisitState(v);
      }
    }
  }

  template <typename M>
  static std::vector<const typename M::value_type*> SortedByName(const M& m) {
    std::vector<const typename M::value_type*> out;
    out.reserve(m.size());
    for (const auto& kv : m) out.push_back(&kv);
    std::sort(out.begin(), out.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    return out;
  }

  // unordered_map: O(1) name resolution at setup; unique_ptr: stable
  // addresses for handles and cached pointers.
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace nlh::sim
