// openmdd — shared diagnosis types and the per-case context.
//
// `DiagnosisContext` packages everything the diagnosers need for one
// failing device: the netlist, the applied pattern window, the observed
// (possibly truncated) error signature, the extracted candidate pool, and
// a cache of per-candidate solo signatures (computed lazily — every
// diagnoser needs most of them, no diagnoser wants to recompute them).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "diag/candidates.hpp"
#include "diag/composite_memo.hpp"
#include "diag/datalog.hpp"
#include "fsim/fsim.hpp"
#include "fsim/propagate.hpp"
#include "obs/trace.hpp"

namespace mdd {

/// Per-bit match weights: reward explained failures, punish mispredictions
/// harder than unexplained failures (another defect may explain those).
struct ScoreWeights {
  double tfsf = 10.0;
  double tpsf = 5.0;
  double tfsp = 2.0;
};

inline double score_of(const MatchCounts& m, const ScoreWeights& w) {
  return w.tfsf * static_cast<double>(m.tfsf) -
         w.tpsf * static_cast<double>(m.tpsf) -
         w.tfsp * static_cast<double>(m.tfsp);
}

struct ScoredCandidate {
  Fault fault{};
  MatchCounts counts{};
  double score = 0.0;
  /// Candidates whose solo signature over the applied window is identical
  /// (logically indistinguishable with this pattern set).
  std::vector<Fault> alternates;
};

struct DiagnosisReport {
  std::string method;
  /// Ranked suspects. For the multiplet diagnosers each entry is one
  /// member of the reported defect multiplet; for single-fault diagnosis
  /// it is the top-k ranking.
  std::vector<ScoredCandidate> suspects;
  /// The reported suspect set reproduces the datalog exactly.
  bool explains_all = false;
  /// The diagnoser hit its cancellation token / deadline and wound down
  /// early; `suspects` holds the best partial answer found so far.
  bool timed_out = false;
  std::size_t n_candidates_scored = 0;
  /// SLAT bookkeeping (filled by the SLAT baseline).
  std::size_t n_slat_patterns = 0;
  std::size_t n_nonslat_patterns = 0;
  double cpu_seconds = 0.0;

  std::vector<Fault> suspect_faults() const {
    std::vector<Fault> out;
    out.reserve(suspects.size());
    for (const ScoredCandidate& s : suspects) out.push_back(s.fault);
    return out;
  }
};

/// Cross-case store for candidate solo signatures. A solo signature
/// depends only on (netlist, applied window) — not on the observed
/// failures or the tester's X-mask — so datalogs for one circuit can
/// share one store and each (candidate, window shape) is simulated once
/// per circuit instead of once per datalog. Entries are keyed by
/// (fault, window length) and hold the PRE-masking truth: contexts with
/// masked bits subtract them after lookup, so ATE-truncated and X-masked
/// datalogs amortize too. Implementations must be thread-safe; lookups
/// must return exactly what a fresh compute over that window would
/// produce (the serving layer's determinism contract rides on it).
class SoloSignatureStore {
 public:
  virtual ~SoloSignatureStore() = default;
  /// Cached pre-masking signature for `f` over the first
  /// `window_patterns` patterns, or null on miss.
  virtual std::shared_ptr<const ErrorSignature> lookup(
      const Fault& f, std::size_t window_patterns) = 0;
  /// Offers a freshly computed pre-masking signature (shared, so neither
  /// side copies); the store may decline (full).
  virtual void store(const Fault& f, std::size_t window_patterns,
                     std::shared_ptr<const ErrorSignature> sig) = 0;
};

class DiagnosisContext {
 public:
  /// Static-test context (single-frame patterns). `precomputed_good` is
  /// not read (the propagator baseline carries the good response); pass
  /// nullptr. The parameter stays because the benchmark's
  /// `mddbench/src/cold.cpp` passes it. `baseline`, if given, must be
  /// SingleFaultPropagator::make_baseline(netlist, patterns) — it is
  /// used (shared, not copied) whenever the datalog's window spans the
  /// full pattern set, sparing each context the full-circuit good
  /// simulation; otherwise the context builds its own once, and every
  /// propagator it runs shares it. `trace`, if
  /// non-null, receives nested "extract" / "baseline" spans covering
  /// candidate extraction and simulation-engine setup (the serving layer
  /// threads its per-request trace through here).
  DiagnosisContext(
      const Netlist& netlist, const PatternSet& patterns,
      const Datalog& datalog, const CandidateOptions& candidate_options = {},
      const PatternSet* precomputed_good = nullptr,
      std::shared_ptr<const PropagatorBaseline> baseline = nullptr,
      obs::Trace* trace = nullptr);

  /// Pair-test context (launch/capture pairs, transition-fault capable).
  /// Candidate extraction adds slow-to-rise/fall candidates and every
  /// signature is computed with two-frame simulation — the diagnosers
  /// themselves are unchanged.
  DiagnosisContext(const Netlist& netlist, const PatternSet& launch,
                   const PatternSet& capture, const Datalog& datalog,
                   const CandidateOptions& candidate_options = {});

  // The simulation engines hold pointers into the window members.
  DiagnosisContext(const DiagnosisContext&) = delete;
  DiagnosisContext& operator=(const DiagnosisContext&) = delete;

  const Netlist& netlist() const { return *netlist_; }
  bool pair_mode() const { return pair_mode_; }
  /// Patterns restricted to the datalog's applied window (capture frame in
  /// pair mode).
  const PatternSet& patterns() const { return window_; }
  /// Launch-frame window; pair mode only.
  const PatternSet& launch_patterns() const { return launch_window_; }
  /// Observed error bits within the applied window.
  const ErrorSignature& observed() const { return observed_; }
  const Datalog& datalog() const { return *datalog_; }

  const CandidatePool& pool() const { return pool_; }
  std::size_t n_candidates() const { return pool_.faults.size(); }
  const Fault& candidate(std::size_t i) const { return pool_.faults[i]; }

  /// Solo signature of candidate `i` over the applied window (cached).
  /// Thread-safe: concurrent callers for the same `i` all receive the same
  /// cached object, computed exactly once (per-slot std::once_flag).
  const ErrorSignature& solo_signature(std::size_t i);

  /// Fills the solo-signature cache site-parallel under `policy`, through
  /// the shared batch schedule (for_each_fault_by_site): the candidates
  /// are grouped by fault site and each group runs on one worker's own
  /// event engine, so every site is flipped once. Slots
  /// already computed are kept; the cached values are byte-identical to
  /// the lazy serial fill for any thread count. A cancelled `cancel`
  /// token stops the warm at the next candidate boundary — remaining
  /// slots simply stay cold and fill lazily on demand.
  void warm_solo_signatures(const ExecPolicy& policy,
                            const CancelToken* cancel = nullptr);

  /// Fills every solo slot the attached store can answer WITHOUT
  /// simulating anything — the store-backed cold-start path: candidates
  /// the persistent dictionary covers become lookups, only the remainder
  /// is worth a parallel PPSFP warm. Returns the number of slots now
  /// filled (store answers plus slots already computed); no-op returning
  /// 0 when no store is attached. Thread-safe, like the other fills.
  std::size_t warm_solo_from_store();

  /// Number of solo signatures computed so far (cache instrumentation;
  /// never exceeds n_candidates()).
  std::size_t solo_compute_count() const {
    return solo_computes_.load(std::memory_order_relaxed);
  }

  /// Attaches a cross-case solo-signature store. Honored for every
  /// static-test context — entries are keyed by (fault, window length)
  /// and hold pre-masking signatures, so truncated and X-masked datalogs
  /// share them too (this context subtracts its own masked bits after
  /// lookup). Pair-mode (transition) contexts never attach: their
  /// signatures depend on the launch frame as well. Call before the
  /// first solo_signature()/warm_solo_signatures() query.
  void attach_solo_store(SoloSignatureStore* store) {
    if (!pair_mode_) solo_store_ = store;
  }
  bool solo_store_attached() const { return solo_store_ != nullptr; }

  /// Signature of an arbitrary multiplet over the applied window
  /// (composite evaluation). Served from the composite memo when this
  /// exact member set was evaluated before (restarts, the drop/swap
  /// refinement, the marginal-gain report, and repeat requests all replay
  /// composites); computed by the event-driven composite propagator
  /// otherwise. Bit-identical to the reference simulators either way.
  ErrorSignature multiplet_signature(std::span<const Fault> multiplet);

  /// Attaches a cross-request composite-signature memo (the serving
  /// session cache owns one per circuit). Like attach_solo_store,
  /// honored for every static context — entries are keyed by
  /// (member set, window length) and stored pre-masking, so they mean
  /// the same thing in every attaching context. Pair-mode contexts keep
  /// their private per-request memo.
  void attach_composite_memo(CompositeMemo* memo) {
    if (!pair_mode_ && memo != nullptr) composites_ = memo;
  }

  /// Routes multiplet_signature through the reference full-circuit
  /// simulator (FaultSimulator / PairFaultSimulator, built here on first
  /// use) instead of the event engine + memo (A/B benchmarking and
  /// differential tests).
  void use_reference_composites(bool on);

  /// Candidates (other than `i`) with a solo signature identical to
  /// candidate `i`'s — its indistinguishability class.
  std::vector<Fault> indistinguishable_from(std::size_t i);

 private:
  const Netlist* netlist_;
  const Datalog* datalog_;
  PatternSet window_;         // capture window in pair mode
  PatternSet launch_window_;  // pair mode only
  ErrorSignature observed_;
  ErrorSignature masked_;  ///< X-masked bits stripped from every signature
  CandidatePool pool_;
  bool pair_mode_ = false;
  /// Event-driven PPSFP engine for the thousands of per-candidate solo
  /// signatures and the search's composites.
  std::optional<SingleFaultPropagator> propagator_;
  /// The reference simulators; built only by use_reference_composites.
  std::optional<FaultSimulator> fsim_;
  std::optional<PairFaultSimulator> pair_fsim_;

  struct SoloSlot {
    std::once_flag once;
    /// Shared with the attached store when one is in play — a cache hit
    /// is a pointer copy, not a signature copy.
    std::shared_ptr<const ErrorSignature> sig;
  };
  /// Fills solo slot `i` (store lookup, else a compute with `prop`, then
  /// masked-bit subtraction); no-op if already filled. `prop_mutex`, when
  /// non-null, is held around the compute (the shared propagator).
  void fill_solo(std::size_t i, SingleFaultPropagator& prop,
                 std::mutex* prop_mutex);
  /// Subtracts this context's masked bits from a pre-masking signature
  /// (pointer pass-through when nothing is masked).
  std::shared_ptr<const ErrorSignature> apply_mask(
      std::shared_ptr<const ErrorSignature> pre) const;

  /// deque: slots are neither movable (once_flag) nor relocated.
  std::deque<SoloSlot> solo_cache_;
  std::mutex propagator_mutex_;  ///< guards propagator_'s scratch state
  std::atomic<std::size_t> solo_computes_{0};
  SoloSignatureStore* solo_store_ = nullptr;
  /// Per-context composite memo (intra-request reuse across restarts and
  /// refinement); replaced by the session-wide memo when one is attached.
  CompositeMemo local_composites_{32ull << 20};
  CompositeMemo* composites_ = &local_composites_;
  bool reference_composites_ = false;
  /// Good-machine state every static-mode propagator shares (null in
  /// pair mode).
  std::shared_ptr<const PropagatorBaseline> baseline_;
};

}  // namespace mdd
