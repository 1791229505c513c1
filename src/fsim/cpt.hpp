// openmdd — gate-level critical path tracing (CPT).
//
// A net is *critical* for (pattern, PO) if flipping its value flips that
// PO. CPT computes the critical set by backward tracing from the failing
// PO: within fanout-free regions the classic per-gate rules are exact
// (unique controlling input critical; no controlling input => all inputs
// critical; two or more controlling inputs => none); at fanout stems, where
// reconvergence makes the rules unsound, criticality is decided exactly by
// a localized forward flip re-simulation.
//
// The tracer is the candidate-extraction front-end of the diagnosis core:
// every critical net, with its good value, yields a stuck-at candidate that
// could explain the observed failure of that PO under that pattern.
//
// The tracer works on a committed *block* of up to 64 patterns, one bit
// per pattern ("slot") in one word per net. commit() simulates the good
// machine once for the whole block (BlockSim on packed PI words); a trace
// of (slot, PO) reads bit `slot` of the words it visits, so the per-gate
// rules see exactly that pattern's values. Stem analysis flips a stem in
// every slot at once: one 64-wide event-driven re-simulation of the
// stem's fan-out cone answers "does flipping this stem flip PO o under
// slot s?" for every (s, o). That is exact per slot because gate
// evaluation is bitwise — slots never interact, so bit s of the flipped
// machine is the one-pattern flipped machine of slot s. Each flip result,
// a sparse list of (PO, changed-slots word) covering only the POs that
// changed, is memoized until the next commit: every failing (slot, PO) of
// a block shares one flip per stem, and a stem no trace reaches is never
// flipped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "sim/sim2.hpp"

namespace mdd {

class CriticalPathTracer {
 public:
  /// Patterns per committed block (one bit of a Word each).
  static constexpr std::size_t kBlockPatterns = 64;

  explicit CriticalPathTracer(const Netlist& netlist);

  /// Commits `patterns[s]` of `stimuli` as slot s: simulates the good
  /// machine for the block and drops every memoized flip. Throws
  /// std::invalid_argument past kBlockPatterns patterns or when
  /// `stimuli` does not have one signal per PI.
  void commit(const PatternSet& stimuli,
              std::span<const std::uint32_t> patterns);

  /// Slots of the committed block.
  std::size_t n_slots() const { return n_slots_; }

  /// Good value word of net `n` in the committed block: bit s is its
  /// value under slot s; bits from n_slots() up are zero.
  Word good(NetId n) const { return sim_.value(n) & slot_mask_; }

  /// Critical *nets* (stems) for PO `po_index` under slot `slot` of the
  /// committed block, sorted ascending. Includes the PO net itself.
  /// Throws std::out_of_range for a slot the block does not have.
  std::vector<NetId> critical_nets(std::size_t slot, std::uint32_t po_index);

  /// Stuck-at candidate faults implied by the critical set: for every
  /// critical stem a stem fault at the opposite of its good value; for
  /// every critical branch whose source net has multiple fanouts, the
  /// corresponding branch fault. Sorted, unique.
  std::vector<Fault> critical_faults(std::size_t slot,
                                     std::uint32_t po_index);

 private:
  struct Trace {
    std::vector<NetId> stems;
    std::vector<Fault> faults;
  };
  /// A PO a stem flip changed, and on which slots.
  struct PoDiff {
    std::uint32_t po;
    Word slots;
  };
  /// Where a stem's memoized flip result lives in flip_outputs_; valid
  /// while `generation` equals generation_.
  struct FlipSlot {
    std::uint64_t generation = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  Trace trace(std::size_t slot, std::uint32_t po_index, bool want_faults);
  /// The stem's flip over every slot, sorted by PO; memoized per commit.
  std::span<const PoDiff> flip_observed(NetId stem);
  /// Flips `stem` on every slot and appends the changed POs to
  /// flip_outputs_.
  void flip(NetId stem);

  const Netlist* netlist_;
  BlockSim sim_;               // committed good machine (one word per net)
  Word slot_mask_ = kAllZero;  // bits [0, n_slots_)
  std::size_t n_slots_ = 0;

  std::vector<bool> visited_;  // per-net trace scratch

  std::vector<FlipSlot> flip_slots_;  // per net
  std::vector<PoDiff> flip_outputs_;  // flips of the current commit
  std::uint64_t generation_ = 0;      // bumped by every commit

  // Flip scratch: good words overlaid with the running flip.
  std::vector<Word> cur_;
  std::vector<NetId> changed_;  // nets whose cur_ differs, for restore
  std::vector<std::vector<NetId>> level_queue_;
  std::vector<bool> queued_;
  std::vector<Word> ins_;  // fanin words of the gate being evaluated
};

}  // namespace mdd
