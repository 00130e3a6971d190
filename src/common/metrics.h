// Lightweight named-counter / named-histogram registry used by the simulation
// components to report what happened during a scenario run.
//
// Thread confinement: a registry belongs to the thread that first uses it,
// and every public call checks that, through the pre-registered handles too
// (common::ThreadOwner, thread_owner.h); RebindToThisThread() hands it to
// another thread after a join. The sharded runtime gives each shard its own
// registry and merges them on the driver after the workers joined
// (exec::ShardRuntime::MergeMetricsInto).

#ifndef UDR_COMMON_METRICS_H_
#define UDR_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/attributes.h"
#include "common/histogram.h"
#include "common/thread_owner.h"

namespace udr {

/// A registry of named counters and histograms.
class Metrics {
 public:
  /// Pre-registered counter handle: the hot-path alternative to the string
  /// Add() API. RegisterCounter() resolves the name once; Add() through the
  /// handle skips the string-map lookup and checks the registry's owner
  /// thread. Slots are std::map nodes, so handles stay valid for the
  /// registry's lifetime (Reset() zeroes values in place rather than
  /// erasing nodes). A default-constructed handle is a safe no-op.
  class Counter {
   public:
    Counter() = default;

    void Add(int64_t delta = 1) {
      if (slot_ == nullptr) return;
      owner_.Check();
      *slot_ += delta;
    }
    int64_t value() const {
      if (slot_ == nullptr) return 0;
      owner_.Check();
      return *slot_;
    }

   private:
    friend class Metrics;
    Counter(const Metrics* registry, int64_t* slot)
        : owner_(&registry->owner_), slot_(slot) {}

    UDR_NO_UNIQUE_ADDRESS common::ThreadOwnerRef owner_;
    int64_t* slot_ = nullptr;
  };

  /// Pre-registered histogram handle; same contract as Counter.
  class HistHandle {
   public:
    HistHandle() = default;

    void Observe(int64_t value) {
      if (slot_ == nullptr) return;
      owner_.Check();
      slot_->Record(value);
    }

   private:
    friend class Metrics;
    HistHandle(const Metrics* registry, Histogram* slot)
        : owner_(&registry->owner_), slot_(slot) {}

    UDR_NO_UNIQUE_ADDRESS common::ThreadOwnerRef owner_;
    Histogram* slot_ = nullptr;
  };

  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Hands the registry, and so every handle into it, to the calling
  /// thread (after the previous owner's thread was joined).
  void RebindToThisThread() { owner_.Rebind(); }

  /// Resolves a counter name to a stable handle (creating the counter at
  /// zero). Register at construction time, Add() on the hot path.
  Counter RegisterCounter(const std::string& name) {
    owner_.Check();
    return Counter(this, &counters_[name]);
  }

  /// Resolves a histogram name to a stable handle (creating it empty).
  HistHandle RegisterHist(const std::string& name) {
    owner_.Check();
    return HistHandle(this, &histograms_[name]);
  }

  /// Adds `delta` to the named counter (creating it at zero). Cold-path
  /// API — hot call sites use RegisterCounter() handles.
  void Add(const std::string& name, int64_t delta = 1) {
    owner_.Check();
    counters_[name] += delta;
  }

  /// Current value of the named counter (0 when absent).
  int64_t Get(const std::string& name) const {
    owner_.Check();
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Records a sample into the named histogram.
  void Observe(const std::string& name, int64_t value) {
    owner_.Check();
    histograms_[name].Record(value);
  }

  /// Access to a named histogram (created empty on first use).
  Histogram& Hist(const std::string& name) {
    owner_.Check();
    return histograms_[name];
  }

  /// Read-only view of the named histogram; an empty one when absent.
  const Histogram& HistOrEmpty(const std::string& name) const {
    static const Histogram kEmpty;
    owner_.Check();
    auto it = histograms_.find(name);
    return it == histograms_.end() ? kEmpty : it->second;
  }

  /// Folds another registry into this one: counters add, histograms merge.
  /// The per-shard pattern — each shard owns a registry, the driver merges
  /// them once it owns them all.
  void MergeFrom(const Metrics& o) {
    owner_.Check();
    o.owner_.Check();
    for (const auto& [k, v] : o.counters_) counters_[k] += v;
    for (const auto& [k, h] : o.histograms_) histograms_[k].Merge(h);
  }

  /// Reference views, for the owner thread like every other call.
  const std::map<std::string, int64_t>& counters() const {
    owner_.Check();
    return counters_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    owner_.Check();
    return histograms_;
  }

  /// Zeroes all counters and histograms. Values are reset in place — map
  /// nodes are never erased, so RegisterCounter()/RegisterHist() handles
  /// survive a Reset().
  void Reset() {
    owner_.Check();
    for (auto& [k, v] : counters_) v = 0;
    for (auto& [k, h] : histograms_) h.Reset();
  }

  /// Multi-line dump: all counters ("name = value"), then all histograms
  /// ("name : count=N p50=X p99=Y"), each section in sorted name order and
  /// every histogram line carrying the same fields (empty ones included) —
  /// deterministic bytes for replay comparison.
  std::string Dump() const {
    owner_.Check();
    std::string out;
    for (const auto& [k, v] : counters_) {
      out += k;
      out += " = ";
      out += std::to_string(v);
      out += '\n';
    }
    for (const auto& [k, h] : histograms_) {
      out += k;
      out += " : count=";
      out += std::to_string(h.count());
      out += " p50=";
      out += std::to_string(h.P50());
      out += " p99=";
      out += std::to_string(h.P99());
      out += '\n';
    }
    return out;
  }

 private:
  UDR_NO_UNIQUE_ADDRESS common::ThreadOwner owner_{"Metrics registry"};
  std::map<std::string, int64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace udr

#endif  // UDR_COMMON_METRICS_H_
