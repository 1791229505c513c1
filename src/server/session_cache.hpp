// openmdd — circuit session cache for the diagnosis daemon.
//
// The unit of volume diagnosis is one circuit × thousands of tester
// datalogs; the session cache makes the circuit-level work pay once. A
// session holds the parsed netlist, the parsed pattern set, and the
// propagator baseline (good-machine values simulated once, shared by
// every full-window DiagnosisContext). Sessions are keyed
// by (netlist path, patterns path), LRU-evicted against a byte budget,
// and handed out as shared_ptr — eviction drops the cache's reference,
// in-flight requests keep theirs.
//
// Concurrency: a global mutex guards the index and LRU list only; loading
// (parse + simulate, the slow part) happens under a per-entry mutex, so
// two clients asking for *different* circuits load in parallel while two
// asking for the *same* circuit share one load.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "diag/composite_memo.hpp"
#include "fsim/propagate.hpp"
#include "netlist/netlist.hpp"
#include "server/signature_memo.hpp"
#include "server/trace_memo.hpp"
#include "sim/patterns.hpp"
#include "store/reader.hpp"

namespace mdd::server {

struct Session {
  Netlist netlist;
  PatternSet patterns;
  /// Cross-request solo-signature memo (full-window datalogs only);
  /// thread-safe, so it lives happily inside a shared const Session.
  std::unique_ptr<SignatureMemo> memo;
  /// Cross-request critical-path-trace memo (thread-safe, like `memo`).
  std::unique_ptr<TraceMemo> traces;
  /// Cross-request composite-signature memo for the multiplet search
  /// (full-window datalogs only; thread-safe, like `memo`).
  std::unique_ptr<CompositeMemo> composites;
  /// Shared propagator good-machine state ([block][net] values + PO
  /// response); read-only after load, reused by every full-window context
  /// so requests skip the per-request whole-circuit good simulation.
  std::shared_ptr<const PropagatorBaseline> baseline;
  /// Persistent dictionary store for this exact (netlist, patterns), if
  /// the cache's store directory held a matching valid file; also wired
  /// into `memo` as its disk tier. mmapped bytes are NOT charged against
  /// the cache budget — they live in the page cache, not the heap. This
  /// member is the reader attached at LOAD time; a background refresh may
  /// swap a newer one into the memo (memo->store_reader() is current).
  std::shared_ptr<const store::DictReader> dict;
  /// Store-miss journal (workload-learned universes), present iff the
  /// cache has a store directory; wired into `memo` so every simulated
  /// signature is recorded for the next refresh. Fail-open.
  std::shared_ptr<store::FaultJournal> journal;
  /// Composite-signature disk tier, present iff the cache has a store
  /// directory; wired into `composites`. Fail-open.
  std::shared_ptr<store::CompositeSpill> spill;
  std::size_t approx_bytes = 0;
};

/// Rough in-memory footprint used for the cache budget (bit-matrix
/// payloads exactly, netlist structures by a per-net constant).
std::size_t approx_session_bytes(const Session& session);

struct SessionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< calls that performed (or joined) a load
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t max_bytes = 0;
};

/// Aggregated per-session memo/store accounting across every resident
/// session (op=stats reporting; see DESIGN.md §12).
struct MemoLayerStats {
  SignatureMemoStats signature;
  MemoStats traces;
  CompositeMemoStats composites;
  std::size_t store_sessions = 0;  ///< resident sessions with a store
  std::size_t store_entries = 0;   ///< summed store fault records
  std::size_t store_bytes_mapped = 0;
  std::size_t journal_sessions = 0;  ///< sessions with a live journal
  std::size_t journal_pending = 0;   ///< summed unfolded journal faults
  std::size_t spill_sessions = 0;    ///< sessions with a live spill
  std::size_t spill_entries = 0;     ///< summed spilled composites
  std::size_t spill_bytes = 0;       ///< summed spill file bytes
};

class SessionCache {
 public:
  /// `max_bytes` bounds resident sessions; a single session larger than
  /// the budget is still admitted (then evicted by the next load).
  /// `memo_bytes` is the per-session solo-signature memo budget;
  /// `composite_bytes` the per-session composite-signature memo budget.
  /// A non-empty `store_dir` makes every load look for a prebuilt
  /// dictionary store matching the session's content hashes; a valid
  /// match becomes the memo's disk tier. A corrupt or mismatched file is
  /// logged + counted and the session loads storeless — never an error.
  explicit SessionCache(std::size_t max_bytes,
                        std::size_t memo_bytes = 256ull << 20,
                        std::size_t composite_bytes = 64ull << 20,
                        std::string store_dir = {});

  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  /// Returns the session for (netlist_path, patterns_path), loading it on
  /// miss. Throws std::runtime_error on unreadable/malformed files (the
  /// failed entry is not cached). `was_hit`, if non-null, reports whether
  /// the session was already resident.
  std::shared_ptr<const Session> get(const std::string& netlist_path,
                                     const std::string& patterns_path,
                                     bool* was_hit = nullptr);

  /// RAII eviction pin: while alive, the pinned key is skipped by the LRU
  /// sweep, so a long-running batch keeps its session's memos resident no
  /// matter what other traffic loads. Pinning does NOT load the session
  /// or extend the shared_ptr lifetime — it only vetoes eviction of the
  /// cache's reference. Releasing a key's last pin re-runs the sweep, so
  /// a budget the veto held over is enforced again at once. Movable,
  /// shareable (counted per key).
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept
        : cache_(std::exchange(other.cache_, nullptr)),
          key_(std::move(other.key_)) {}
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        release();
        cache_ = std::exchange(other.cache_, nullptr);
        key_ = std::move(other.key_);
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    void release();

   private:
    friend class SessionCache;
    Pin(SessionCache* cache, std::string key)
        : cache_(cache), key_(std::move(key)) {}
    SessionCache* cache_ = nullptr;
    std::string key_;
  };

  /// Pins (netlist_path, patterns_path) against eviction for the pin's
  /// lifetime. Valid before the session is loaded (the pin applies the
  /// moment it is admitted).
  Pin pin(const std::string& netlist_path, const std::string& patterns_path);

  SessionCacheStats stats() const;

  /// Byte-accounting invariant for tests: recomputes the resident total
  /// from the loaded entries and cross-checks the LRU index bookkeeping
  /// (every LRU key resolves to a loaded entry, `lru_pos_` points at its
  /// node, pins never hold negative counts). `detail` names the first
  /// violated invariant. Meaningful at quiescent points — an entry whose
  /// load is mid-flight is admitted to the LRU only after its bytes are
  /// accounted, but the check itself takes the cache lock, not the
  /// per-entry load locks.
  struct AccountingCheck {
    bool ok = true;
    std::size_t accounted = 0;   ///< the running `bytes_` total
    std::size_t recomputed = 0;  ///< sum of resident approx_bytes
    std::string detail;
  };
  AccountingCheck check_accounting() const;

  /// Sums the memo/store stats of every loaded resident session.
  MemoLayerStats layer_stats() const;

  /// Snapshot of every fully loaded resident session (the background
  /// store-refresh thread walks these looking for journal backlog).
  std::vector<std::shared_ptr<const Session>> resident_sessions() const;

  const std::string& store_dir() const { return store_dir_; }

 private:
  struct Entry {
    std::mutex load_mutex;
    std::shared_ptr<const Session> session;  // null until loaded
  };
  using Key = std::string;  // netlist_path + '\n' + patterns_path

  void evict_over_budget_locked();

  const std::size_t max_bytes_;
  const std::size_t memo_bytes_;
  const std::size_t composite_bytes_;
  const std::string store_dir_;  ///< empty = no persistent store
  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<Entry>> entries_;
  std::list<Key> lru_;  ///< front = most recent; loaded entries only
  std::unordered_map<Key, std::list<Key>::iterator> lru_pos_;
  std::unordered_map<Key, std::size_t> pins_;  ///< eviction vetoes per key
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace mdd::server
