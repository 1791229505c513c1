#include "diag/diagnosis.hpp"

#include <chrono>
#include <optional>

#include "obs/metrics.hpp"

namespace mdd {

namespace {

PatternSet make_window(const PatternSet& patterns, std::size_t n_applied) {
  if (n_applied >= patterns.n_patterns()) return patterns;
  PatternSet window(0, patterns.n_signals());
  for (std::size_t p = 0; p < n_applied; ++p)
    window.append(patterns.pattern(p));
  return window;
}

/// Heap copy of a freshly simulated signature at exact capacity. The
/// propagator grows a signature by appending, so moving it would keep the
/// vectors' growth slack in every cached solo — several MiB of a cold g1k
/// diagnosis's peak over its thousands of candidates.
std::shared_ptr<const ErrorSignature> stored_copy(const ErrorSignature& sig) {
  return std::make_shared<const ErrorSignature>(sig);
}

struct DiagMetrics {
  obs::Counter& contexts = obs::registry().counter("diag.contexts");
  obs::Counter& solo_lookups = obs::registry().counter("diag.solo_lookups");
  obs::Counter& solo_computes =
      obs::registry().counter("diag.solo_computes");
  /// Candidates a cancelled warm left cold (they fill lazily later).
  obs::Counter& warm_dropped = obs::registry().counter("diag.warm_dropped");
  /// Composite (multiplet) signatures actually evaluated...
  obs::Counter& composite_evals =
      obs::registry().counter("diag.composite_evals");
  /// ...and the ones the composite memo answered instead.
  obs::Counter& composite_memo_hits =
      obs::registry().counter("diag.composite_memo_hits");
  /// Wall time of one composite propagation (the multiplet search's
  /// dominant stage).
  obs::Histogram& composite_ms = obs::registry().latency("diag.composite_ms");
};

DiagMetrics& diag_metrics() {
  static DiagMetrics m;
  return m;
}

}  // namespace

DiagnosisContext::DiagnosisContext(
    const Netlist& netlist, const PatternSet& patterns,
    const Datalog& datalog, const CandidateOptions& candidate_options,
    const PatternSet* precomputed_good,
    std::shared_ptr<const PropagatorBaseline> baseline, obs::Trace* trace)
    : netlist_(&netlist),
      datalog_(&datalog),
      window_(make_window(patterns, datalog.n_patterns_applied)),
      observed_(restrict_signature(datalog.observed,
                                   datalog.n_patterns_applied)),
      masked_(restrict_signature(datalog.masked,
                                 datalog.n_patterns_applied)) {
  diag_metrics().contexts.inc();
  {
    std::optional<obs::Trace::Span> span;
    if (trace != nullptr) span.emplace(trace->span("extract"));
    pool_ = extract_candidates(netlist, window_, datalog, candidate_options);
  }
  for (std::size_t i = 0; i < pool_.faults.size(); ++i)
    solo_cache_.emplace_back();
  {
    std::optional<obs::Trace::Span> span;
    if (trace != nullptr) span.emplace(trace->span("baseline"));
    // The shared baseline was built for the full pattern set; it is only
    // valid when the window is the full set (no truncation).
    if (baseline != nullptr &&
        baseline->values.size() == window_.n_blocks() &&
        baseline->good.n_patterns() == window_.n_patterns())
      baseline_ = std::move(baseline);
    if (baseline_ != nullptr)
      propagator_.emplace(netlist, window_, baseline_);
    else
      propagator_.emplace(netlist, window_);
    if (precomputed_good != nullptr &&
        precomputed_good->n_patterns() >= window_.n_patterns())
      fsim_.emplace(netlist, window_,
                    make_window(*precomputed_good, window_.n_patterns()));
    else
      fsim_.emplace(netlist, window_);
  }
  // Static contexts always admit the cross-case memos: entries are keyed
  // by (fault, window length) and hold pre-masking truth, so truncation
  // and X-masking no longer disqualify a datalog from amortization.
  memo_attachable_ = true;
}

DiagnosisContext::DiagnosisContext(const Netlist& netlist,
                                   const PatternSet& launch,
                                   const PatternSet& capture,
                                   const Datalog& datalog,
                                   const CandidateOptions& candidate_options)
    : netlist_(&netlist),
      datalog_(&datalog),
      window_(make_window(capture, datalog.n_patterns_applied)),
      launch_window_(make_window(launch, datalog.n_patterns_applied)),
      observed_(restrict_signature(datalog.observed,
                                   datalog.n_patterns_applied)),
      masked_(restrict_signature(datalog.masked, datalog.n_patterns_applied)),
      pool_(extract_tdf_candidates(netlist, launch_window_, window_, datalog,
                                   candidate_options)),
      pair_fsim_(std::in_place, netlist, launch_window_, window_),
      propagator_(std::in_place, netlist, launch_window_, window_),
      solo_cache_(pool_.faults.size()) {}

/// The memo speaks pre-masking truth; the slot holds what the diagnosers
/// consume (this context's masked bits already subtracted).
std::shared_ptr<const ErrorSignature> DiagnosisContext::apply_mask(
    std::shared_ptr<const ErrorSignature> pre) const {
  if (masked_.empty()) return pre;
  return std::make_shared<const ErrorSignature>(
      signature_difference(*pre, masked_));
}

void DiagnosisContext::fill_solo(SoloSlot& slot, SingleFaultPropagator& prop,
                                 std::size_t i) {
  std::call_once(slot.once, [&] {
    const std::size_t window = window_.n_patterns();
    if (solo_store_ != nullptr) {
      if (auto hit = solo_store_->lookup(pool_.faults[i], window)) {
        slot.sig = apply_mask(std::move(hit));
        return;
      }
    }
    auto pre = stored_copy(prop.signature(pool_.faults[i]));
    solo_computes_.fetch_add(1, std::memory_order_relaxed);
    diag_metrics().solo_computes.inc();
    if (solo_store_ != nullptr)
      solo_store_->store(pool_.faults[i], window, pre);
    slot.sig = apply_mask(std::move(pre));
  });
}

const ErrorSignature& DiagnosisContext::solo_signature(std::size_t i) {
  // Lookups minus computes (both exported) is the solo-cache hit count.
  diag_metrics().solo_lookups.inc();
  SoloSlot& slot = solo_cache_[i];
  // The shared propagator's scratch state needs exclusive access; the
  // once_flag still guarantees a single compute per slot when readers
  // race.
  std::call_once(slot.once, [&] {
    const std::size_t window = window_.n_patterns();
    if (solo_store_ != nullptr) {
      if (auto hit = solo_store_->lookup(pool_.faults[i], window)) {
        slot.sig = apply_mask(std::move(hit));
        return;
      }
    }
    std::shared_ptr<const ErrorSignature> pre;
    {
      std::lock_guard<std::mutex> lock(propagator_mutex_);
      pre = stored_copy(propagator_->signature(pool_.faults[i]));
    }
    solo_computes_.fetch_add(1, std::memory_order_relaxed);
    diag_metrics().solo_computes.inc();
    if (solo_store_ != nullptr)
      solo_store_->store(pool_.faults[i], window, pre);
    slot.sig = apply_mask(std::move(pre));
  });
  return *slot.sig;
}

std::size_t DiagnosisContext::warm_solo_from_store() {
  if (solo_store_ == nullptr) return 0;
  // A store miss must leave the slot cold for the regular warm/lazy fill,
  // so the lookup runs OUTSIDE the call_once and only a hit executes the
  // callable. Nothing may throw through a once_flag here: TSan's
  // pthread_once interceptor never resets an exceptionally-unwound flag
  // (glibc's unwind handler does), so the next call_once on that slot
  // blocks forever under the sanitizer. A losing racer just drops its
  // decoded copy — the winner's signature is byte-identical.
  std::size_t warmed = 0;
  const std::size_t window = window_.n_patterns();
  for (std::size_t i = 0; i < pool_.faults.size(); ++i) {
    SoloSlot& slot = solo_cache_[i];
    auto hit = solo_store_->lookup(pool_.faults[i], window);
    if (hit == nullptr) continue;
    std::call_once(slot.once,
                   [&] { slot.sig = apply_mask(std::move(hit)); });
    if (slot.sig != nullptr) ++warmed;  // includes already-filled slots
  }
  if (warmed > 0) {
    static obs::Counter& c =
        obs::registry().counter("diag.solo_store_warmed");
    c.inc(warmed);
  }
  return warmed;
}

void DiagnosisContext::warm_solo_signatures(const ExecPolicy& policy,
                                            const CancelToken* cancel) {
  const std::size_t n = pool_.faults.size();
  if (policy.is_serial()) {
    CancelCheckpoint cp(cancel, 8);
    for (std::size_t i = 0; i < n; ++i) {
      if (cp()) {
        diag_metrics().warm_dropped.inc(n - i);
        return;
      }
      solo_signature(i);
    }
    return;
  }
  // One private event engine per worker, built on its first chunk and
  // reused for every later one: identical per-query results, no shared
  // scratch. The good machine is read-only, so workers share it.
  std::vector<std::optional<SingleFaultPropagator>> props(
      worker_slots(policy, n));
  parallel_for_ranges(
      policy, n, [&](std::size_t begin, std::size_t end, std::size_t worker) {
        // A chunk drawn after the token tripped polls it on its first
        // index and counts itself whole, so the drops add up to exactly
        // the slots this warm left cold.
        CancelCheckpoint cp(cancel, 8);
        for (std::size_t i = begin; i < end; ++i) {
          if (cp()) {
            diag_metrics().warm_dropped.inc(end - i);
            return;
          }
          std::optional<SingleFaultPropagator>& prop = props[worker];
          if (!prop) {
            if (pair_mode())
              prop.emplace(*netlist_, launch_window_, window_);
            else if (baseline_ != nullptr)
              prop.emplace(*netlist_, window_, baseline_);
            else
              prop.emplace(*netlist_, window_);
          }
          fill_solo(solo_cache_[i], *prop, i);
        }
      });
}

ErrorSignature DiagnosisContext::multiplet_signature(
    std::span<const Fault> multiplet) {
  if (reference_composites_) {
    diag_metrics().composite_evals.inc();
    ErrorSignature sig = pair_mode() ? pair_fsim_->signature(multiplet)
                                     : fsim_->signature(multiplet);
    if (!masked_.empty()) sig = signature_difference(sig, masked_);
    return sig;
  }
  // Entries are stored pre-masking: the full-window truth is what is
  // shareable across contexts; this context's masked bits come off after.
  const CompositeKey key(multiplet, window_.n_patterns());
  std::shared_ptr<const ErrorSignature> sig = composites_->lookup(key);
  if (sig != nullptr) {
    diag_metrics().composite_memo_hits.inc();
  } else {
    diag_metrics().composite_evals.inc();
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(propagator_mutex_);
      sig = std::make_shared<const ErrorSignature>(
          propagator_->signature(multiplet));
    }
    diag_metrics().composite_ms.observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
    composites_->store(key, sig);
  }
  if (masked_.empty()) return *sig;
  return signature_difference(*sig, masked_);
}

std::vector<Fault> DiagnosisContext::indistinguishable_from(std::size_t i) {
  std::vector<Fault> out;
  const ErrorSignature& ref = solo_signature(i);
  for (std::size_t j = 0; j < pool_.faults.size(); ++j) {
    if (j == i) continue;
    if (solo_signature(j) == ref) out.push_back(pool_.faults[j]);
  }
  return out;
}

}  // namespace mdd
