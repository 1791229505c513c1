// openmdd — event-driven fault signature extraction (PPSFP).
//
// `SingleFaultPropagator` precomputes the good-machine value of every net
// for every 64-pattern block, then answers signature queries by seeding
// faulty words and propagating only through the affected cone with a
// levelized event queue — the classic parallel-pattern fault propagation
// that makes simulation proportional to the influence cone instead of the
// whole netlist. Waves evaluate one simulation-kernel lane group
// (kernel.lanes consecutive 64-pattern blocks) at a time; results are
// bit-identical for every kernel.
//
// Two query shapes share the machinery:
//  * signature(const Fault&) — single-fault queries (solo signatures).
//    Every stuck-at, transition and non-feedback dominant bridge changes
//    one net (its *site*), as a function of values the fault itself
//    cannot reach, so its signature is
//    the site's *flip* signature (the site complemented on every pattern)
//    restricted to the patterns that excite the fault: gate evaluation is
//    bitwise, so patterns never interact, and on an excited pattern the
//    faulty site value is exactly the flipped one. One flip wave per site
//    therefore serves every fault on that site; the propagator keeps the
//    last site's flip as a one-entry memo (stem-sharing, as in HOPE).
//    Wired bridges and dominant bridges whose aggressor lies in the
//    victim's fan-out cone change more than one net and run as a
//    one-member composite query instead.
//  * signature(span<const Fault>) — an entire multiplet injected at once
//    (composite evaluation; a set: members are injected in canonical
//    order, like FaultyMachine), propagating through the union of the
//    members' fan-out cones with the same bridge-fixpoint and two-frame
//    transition semantics as FaultyMachine. Multiplets whose bridge
//    couplings could interact cyclically (feedback pairs, bridge chains
//    that close a loop through the netlist) fall back to the exact
//    fixpoint machine, so results are bit-identical to the reference
//    simulators in every case (verified by property tests).
//
// It is the one production engine for fault signatures: DiagnosisContext
// uses it for candidate solo signatures and the multiplet search's
// composite scores, and every bulk solo-signature producer (the store
// builder and refresh, FaultDictionary, the context's warm) runs it
// through one site-grouped batch schedule, for_each_fault_by_site.
// FaultSimulator / PairFaultSimulator stay as the serial reference the
// tests and `openmdd dict verify` check it against.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "fault/inject.hpp"
#include "fsim/fsim.hpp"

namespace mdd {

/// The propagator's precomputed good-machine state: every net's value for
/// every 64-pattern block, plus the PO response. It depends only on
/// (netlist, patterns) and is read-only during queries, so propagators for
/// the same pair — across threads or across requests in the serving layer
/// — can share one copy instead of re-simulating the whole circuit each
/// (including propagators running different kernels: the layout is
/// block-major, kernel-independent).
struct PropagatorBaseline {
  std::vector<std::vector<Word>> values;  ///< [block][net]
  PatternSet good;                        ///< PO response (masked to valid)
};

class SingleFaultPropagator {
 public:
  /// Single-frame (static test) mode.
  SingleFaultPropagator(const Netlist& netlist, const PatternSet& patterns,
                        const SimKernel& kernel = current_kernel());

  /// Single-frame mode reusing a shared baseline (must have been built by
  /// make_baseline for this exact netlist + patterns pair); skips the
  /// full-circuit good simulation.
  SingleFaultPropagator(const Netlist& netlist, const PatternSet& patterns,
                        std::shared_ptr<const PropagatorBaseline> baseline,
                        const SimKernel& kernel = current_kernel());

  /// Two-frame (launch/capture) mode: signatures are capture-frame and
  /// transition faults are supported.
  SingleFaultPropagator(const Netlist& netlist, const PatternSet& launch,
                        const PatternSet& capture,
                        const SimKernel& kernel = current_kernel());

  /// Computes the shareable good-machine state for (netlist, patterns).
  static std::shared_ptr<const PropagatorBaseline> make_baseline(
      const Netlist& netlist, const PatternSet& patterns);

  const SimKernel& kernel() const { return *kernel_; }

  /// Error signature of one fault, bit-identical to
  /// FaultSimulator/PairFaultSimulator::signature(fault) and stored at
  /// exact capacity (callers cache thousands of them). Single-site faults
  /// are derived from the site's flip, which is propagated only when the
  /// site differs from the previous single-site query's.
  ErrorSignature signature(const Fault& fault);

  /// Error signature of an entire multiplet injected simultaneously
  /// (composite evaluation), whatever the members' order. Bit-identical to
  /// FaultSimulator/PairFaultSimulator::signature(multiplet) for any fault
  /// mix: multiplets whose bridges could couple cyclically are detected up
  /// front and run on the exact fixpoint machine instead.
  ErrorSignature signature(std::span<const Fault> multiplet);

  const Netlist& netlist() const { return *netlist_; }
  const PatternSet& good_response() const { return baseline_->good; }

 private:
  using Frames = std::vector<std::vector<Word>>;  // [block][net]

  /// Gathers net `n`'s lane row for the group at `b0` (m valid blocks;
  /// padding lanes replicate the last valid block) into `out`.
  void gather_row(const Frames& vals, NetId n, std::size_t b0, std::size_t m,
                  Word* out) const;
  /// Lane row of net `n`: the scratch overlay if touched, else the good
  /// row gathered into `buf`.
  const Word* read_row(const Frames& vals, NetId n, std::size_t b0,
                       std::size_t m, Word* buf) const;

  /// True if `fault` changes only its site `fault.net`, from values no
  /// fault effect reaches (everything but wired and feedback bridges).
  bool single_site(const Fault& fault);
  /// Fills excitation_[block] with the patterns on which `fault` sets its
  /// site to the complement of the good value; false if there are none.
  bool excite(const Fault& fault);
  /// Propagates the flip of `site` over every block into the memo.
  void flip_site(NetId site);
  /// Runs the queued wave of a flip to quiescence (one level sweep).
  void propagate_flip(std::size_t b0, std::size_t m);
  /// Appends the touched overlay's PO differences for the group at `b0`
  /// to `sig`.
  void collect(std::size_t b0, std::size_t m, ErrorSignature& sig);
  void clear_touched();

  // Composite (multi-fault) machinery. The multiplet is partitioned like
  // FaultyMachine::set_faults; every dequeued net is re-evaluated through
  // the identical per-net transform stack (pin overrides -> gate -> bridge
  // couplings -> transition hold -> stem overrides), so the converged
  // overlay matches the exact machine's fixpoint bit for bit.
  struct CompStem {
    NetId net;
    bool value;
  };
  struct CompPin {
    NetId gate;
    std::uint32_t pin;
    bool value;
  };
  struct CompBridge {
    FaultKind kind;
    NetId a;  ///< victim (dom) / first net (wired)
    NetId b;  ///< aggressor (dom) / second net (wired)
  };
  struct CompTransition {
    NetId net;
    bool rise;
  };
  /// Faulty launch-frame lane row of one transition net (pair mode).
  struct LaunchRow {
    NetId net;
    Word lanes[kMaxKernelLanes];
  };

  /// Partitions the multiplet; false when the bridge couplings could form
  /// a cycle (the event fixpoint would be schedule-dependent there — use
  /// the exact machine).
  bool prepare_composite(std::span<const Fault> multiplet);
  /// True if `to` lies in the strict fan-out cone of `from` (cached; the
  /// netlist is fixed for the propagator's lifetime).
  bool reaches(NetId from, NetId to);
  void enqueue_net(NetId n);
  void seed_composite(bool apply_transitions);
  /// Re-evaluates net `g` under the composite fault set against the
  /// frame's committed `vals`; writes the final lane row to `out` and the
  /// pre-transform driver row (wired-bridge input) to `raw`.
  void eval_composite(NetId g, const Frames& vals, std::size_t b0,
                      std::size_t m, bool apply_transitions, Word* out,
                      Word* raw);
  /// Runs the seeded wave to quiescence (multi-sweep: bridge couplings may
  /// enqueue backwards in level order). False if the sweep cap was hit.
  bool propagate_composite(const Frames& vals, std::size_t b0, std::size_t m,
                           bool apply_transitions);
  void reset_composite();
  /// The event-driven composite query; nullopt when the exact machine must
  /// answer instead (cyclic couplings / sweep-cap safety).
  std::optional<ErrorSignature> propagate_multiplet(
      std::span<const Fault> multiplet);
  /// Exact-machine path.
  ErrorSignature exact_signature(std::span<const Fault> multiplet);
  bool is_wired_member(NetId g) const;

  const Netlist* netlist_;
  const SimKernel* kernel_;
  std::size_t lanes_;
  const PatternSet* patterns_;  // capture frame in pair mode
  const PatternSet* launch_ = nullptr;

  /// Committed good values + PO response (owned or shared; never written
  /// after construction).
  std::shared_ptr<const PropagatorBaseline> baseline_;
  Frames launch_values_;  // pair mode

  // Per-query scratch.
  std::vector<Word> scratch_;  ///< [net][lane] faulty overlay
  std::vector<bool> touched_;
  std::vector<NetId> touched_list_;
  std::vector<std::vector<NetId>> level_queue_;
  std::vector<bool> queued_;
  std::vector<Word> fanin_lanes_;  ///< [fanin slot][lane] gather buffer
  std::vector<const Word*> fanin_ptrs_;
  std::vector<Word> po_mask_buf_;
  struct PoDiff {
    std::uint32_t po;
    Word diff;
  };
  std::vector<PoDiff> po_diffs_;  ///< collect()'s per-block buffer

  /// The last single-site query's site and flip signature (the one-entry
  /// memo): a private copy, valid for as long as the propagator — the
  /// baseline never changes, and composite queries only reuse the scratch
  /// overlay it was collected from.
  NetId flip_site_ = kNoNet;
  ErrorSignature flip_;
  std::vector<Word> excitation_;  ///< [block] excited patterns of a query

  // Composite-query scratch (allocated on first composite query).
  std::vector<Fault> members_;  ///< the multiplet in canonical order
  std::vector<CompStem> comp_stems_;
  std::vector<CompPin> comp_pins_;
  std::vector<CompBridge> comp_bridges_;
  std::vector<CompTransition> comp_transitions_;
  std::vector<Word> raw_scratch_;  ///< pre-transform rows, wired members
  std::vector<bool> raw_touched_;
  std::vector<NetId> raw_touched_list_;
  /// Faulty launch-frame rows at the transition nets (pair mode; the only
  /// frame-1 state the capture frame consumes).
  std::vector<LaunchRow> launch_faulty_;
  std::size_t pending_ = 0;  ///< enqueued, not yet re-evaluated
  std::unordered_map<std::uint64_t, bool> reach_cache_;

  FaultyMachine fallback_;
};

/// The site-grouped batch schedule behind every bulk solo-signature
/// producer. Orders `faults` stably by site (Fault::net) and hands each
/// site's run whole to one worker, so a site is flipped once per batch
/// (the propagator's one-entry flip memo). Each worker builds one
/// propagator with `make` on its first chunk and reuses it. Calls
/// visit(i, propagator) once per fault index i, unless a tripped `cancel`
/// stops the workers at their next fault boundary; returns the number of
/// indices left unvisited.
std::size_t for_each_fault_by_site(
    std::span<const Fault> faults, const ExecPolicy& policy,
    const std::function<SingleFaultPropagator()>& make,
    const std::function<void(std::size_t, SingleFaultPropagator&)>& visit,
    const CancelToken* cancel = nullptr);

/// Solo signatures of `faults`, in input order, each byte-identical to
/// FaultSimulator::signature(faults[i]) for any thread count: one
/// make_baseline shared by one propagator per worker.
std::vector<ErrorSignature> solo_signatures(const Netlist& netlist,
                                            const PatternSet& patterns,
                                            std::span<const Fault> faults,
                                            const ExecPolicy& policy = {});

}  // namespace mdd
