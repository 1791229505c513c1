// openmdd — event-driven single-pattern simulator.
//
// Holds one committed good-machine state and answers "what changes if this
// net flips?" by levelized event propagation on a scratch overlay, leaving
// the committed state untouched. One pattern, one bool per net: it is the
// plain reference the word-parallel engines are tested against (critical
// path tracing's 64-slot stem flips, brute-force criticality); no
// production path uses it.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/patterns.hpp"

namespace mdd {

class EventSim {
 public:
  explicit EventSim(const Netlist& netlist);

  /// Full evaluation of pattern `p` of `stimuli`; commits the state.
  void apply(const PatternSet& stimuli, std::size_t p);

  /// Full evaluation from explicit PI values; commits the state.
  void apply(const std::vector<bool>& pi_values);

  /// Committed good value of net `n`.
  bool value(NetId n) const { return values_[n]; }

  /// Flips net `n` (as if a fault forced the opposite value) and
  /// propagates events forward. Returns the PO indices whose value
  /// changed. The committed state is restored before returning.
  std::vector<std::uint32_t> flip_observed_outputs(NetId n);

  /// As above but reports every net whose value changed (including `n`).
  std::vector<NetId> flip_changed_nets(NetId n);

  const Netlist& netlist() const { return *netlist_; }

 private:
  void propagate_flip(NetId n);

  const Netlist* netlist_;
  std::vector<bool> values_;         // committed
  std::vector<bool> scratch_;        // overlay values during a flip
  std::vector<bool> touched_;        // net has a scratch value
  std::vector<NetId> touched_list_;  // for O(changed) cleanup
  std::vector<std::vector<NetId>> level_queue_;
  std::vector<bool> queued_;
};

}  // namespace mdd
