// openmdd — gate-level critical path tracing (CPT).
//
// A net is *critical* for (pattern, PO) if flipping its value flips that
// PO. CPT computes the critical set by backward tracing from the failing
// PO: within fanout-free regions the classic per-gate rules are exact
// (unique controlling input critical; no controlling input => all inputs
// critical; two or more controlling inputs => none); at fanout stems, where
// reconvergence makes the rules unsound, criticality is decided exactly by
// a localized forward flip re-simulation (EventSim).
//
// The tracer is the candidate-extraction front-end of the diagnosis core:
// every critical net, with its good value, yields a stuck-at candidate that
// could explain the observed failure of that PO under that pattern.
//
// A stem flip answers for every PO at once, and a failing pattern usually
// fails several POs whose traces meet the same stems, so the tracer
// memoizes each stem's flip result for the committed pattern (keyed by
// EventSim::epoch(), so any apply() invalidates it): all failing outputs
// of a pattern share one flip per stem.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "sim/event_sim.hpp"

namespace mdd {

class CriticalPathTracer {
 public:
  explicit CriticalPathTracer(const Netlist& netlist);

  /// Critical *nets* (stems) for PO `po_index` under the pattern committed
  /// in `sim`, sorted ascending. Includes the PO net itself.
  std::vector<NetId> critical_nets(EventSim& sim, std::uint32_t po_index);

  /// Stuck-at candidate faults implied by the critical set: for every
  /// critical stem a stem fault at the opposite of its good value; for
  /// every critical branch whose source net has multiple fanouts, the
  /// corresponding branch fault. Sorted, unique.
  std::vector<Fault> critical_faults(EventSim& sim, std::uint32_t po_index);

 private:
  struct Trace {
    std::vector<NetId> stems;
    std::vector<Fault> faults;
  };
  Trace trace(EventSim& sim, std::uint32_t po_index, bool want_faults);
  /// sim.flip_observed_outputs(stem), memoized per committed pattern.
  std::span<const std::uint32_t> flip_observed(EventSim& sim, NetId stem);

  /// Where a stem's memoized flip result lives in flip_outputs_; valid
  /// while `generation` equals flip_generation_.
  struct FlipSlot {
    std::uint64_t generation = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  const Netlist* netlist_;
  std::vector<bool> visited_;  // per-net scratch
  std::vector<FlipSlot> flip_slots_;         // per net
  std::vector<std::uint32_t> flip_outputs_;  // flips under flip_epoch_
  std::uint64_t flip_epoch_ = 0;       // simulator epoch the memo holds
  std::uint64_t flip_generation_ = 0;  // bumped whenever the memo drops
};

}  // namespace mdd
