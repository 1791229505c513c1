// openmdd — the bounded cache every cross-request memo runs on.
//
// `ClockCache` maps a key to an immutable shared value under an exact
// byte budget. Eviction is second-chance (clock): find() marks an entry
// referenced, and an admit that would exceed the budget sweeps the clock
// hand — clearing referenced bits, evicting cold entries — until the
// newcomer fits. Keys that turn hot after the budget filled up therefore
// still get cached; a first-come set cannot squat the budget forever.
// The caller supplies each entry's cost, so the byte count is exact
// against the caller's cost function.
//
// One admission policy: an entry larger than the whole budget is
// declined, and a duplicate admit keeps the first entry (racing computes
// of one key produce equal values). Hit/miss accounting and any disk tier
// stay with the caller, whose ladders differ in lock scope and in what
// counts as a hit. Not thread-safe: each memo guards it with its own
// mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace mdd {

/// Accounting every bounded memo reports (op=stats prints one per layer).
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t approx_bytes = 0;

  MemoStats& operator+=(const MemoStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    entries += o.entries;
    approx_bytes += o.approx_bytes;
    return *this;
  }
};

template <class Key, class Value, class Hash = std::hash<Key>>
class ClockCache {
 public:
  /// Counts into `<prefix>.evictions`, `<prefix>.inserts` and
  /// `<prefix>.declined` (an entry over the whole budget).
  ClockCache(std::size_t max_bytes, std::string_view prefix)
      : max_bytes_(max_bytes),
        evictions_metric_(counter(prefix, ".evictions")),
        inserts_metric_(counter(prefix, ".inserts")),
        declined_metric_(counter(prefix, ".declined")) {}

  /// The cached value, marked referenced; null when absent.
  std::shared_ptr<const Value> find(const Key& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    it->second.referenced = true;
    return it->second.value;
  }

  void admit(const Key& key, std::shared_ptr<const Value> value,
             std::size_t cost) {
    if (cost > max_bytes_) {
      declined_metric_.inc();
      return;
    }
    if (entries_.count(key) != 0) return;
    make_room(cost);
    entries_.emplace(key, Entry{std::move(value), cost, false});
    ring_.push_back(key);
    bytes_ += cost;
    inserts_metric_.inc();
  }

  /// The cache's accounting with the caller's hit/miss counts.
  MemoStats stats(std::uint64_t hits, std::uint64_t misses) const {
    return {hits, misses, evictions_, entries_.size(), bytes_};
  }

 private:
  struct Entry {
    std::shared_ptr<const Value> value;
    std::size_t cost = 0;
    bool referenced = false;  ///< set on hit, cleared by the clock hand
  };

  static obs::Counter& counter(std::string_view prefix,
                               std::string_view suffix) {
    return obs::registry().counter(std::string(prefix).append(suffix));
  }

  /// Evicts until `need` more bytes fit. A referenced entry survives one
  /// hand pass (its bit is cleared); an unreferenced one is evicted. Every
  /// full lap evicts something or clears at least one bit, so the sweep
  /// terminates.
  void make_room(std::size_t need) {
    while (bytes_ + need > max_bytes_ && !ring_.empty()) {
      if (hand_ >= ring_.size()) hand_ = 0;
      auto it = entries_.find(ring_[hand_]);
      if (it->second.referenced) {
        it->second.referenced = false;
        ++hand_;
        continue;
      }
      bytes_ -= it->second.cost;
      entries_.erase(it);
      ++evictions_;
      evictions_metric_.inc();
      ring_[hand_] = std::move(ring_.back());
      ring_.pop_back();
    }
  }

  const std::size_t max_bytes_;
  std::unordered_map<Key, Entry, Hash> entries_;
  std::vector<Key> ring_;  ///< clock order (swap-with-back on evict)
  std::size_t hand_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  obs::Counter& evictions_metric_;
  obs::Counter& inserts_metric_;
  obs::Counter& declined_metric_;
};

}  // namespace mdd
