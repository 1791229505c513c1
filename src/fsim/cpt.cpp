#include "fsim/cpt.hpp"

#include <algorithm>
#include <stdexcept>

namespace mdd {

CriticalPathTracer::CriticalPathTracer(const Netlist& netlist)
    : netlist_(&netlist),
      visited_(netlist.n_nets(), false),
      flip_slots_(netlist.n_nets()) {
  if (!netlist.finalized())
    throw std::logic_error("CriticalPathTracer: netlist not finalized");
}

std::span<const std::uint32_t> CriticalPathTracer::flip_observed(
    EventSim& sim, NetId stem) {
  // A new committed state (another pattern, or another simulator) drops
  // every memoized flip. Epoch 0 (nothing committed yet) is never
  // memoized.
  const std::uint64_t epoch = sim.epoch();
  if (epoch == 0 || epoch != flip_epoch_) {
    flip_outputs_.clear();
    flip_epoch_ = epoch;
    ++flip_generation_;
  }
  FlipSlot& slot = flip_slots_[stem];
  if (epoch == 0 || slot.generation != flip_generation_) {
    const std::vector<std::uint32_t> observed = sim.flip_observed_outputs(stem);
    slot.generation = flip_generation_;
    slot.begin = static_cast<std::uint32_t>(flip_outputs_.size());
    flip_outputs_.insert(flip_outputs_.end(), observed.begin(),
                         observed.end());
    slot.end = static_cast<std::uint32_t>(flip_outputs_.size());
  }
  return {flip_outputs_.data() + slot.begin, slot.end - slot.begin};
}

CriticalPathTracer::Trace CriticalPathTracer::trace(EventSim& sim,
                                                    std::uint32_t po_index,
                                                    bool want_faults) {
  const Netlist& nl = *netlist_;
  Trace result;
  std::vector<NetId> touched;
  std::vector<NetId> stack;

  auto push_stem = [&](NetId n) {
    if (!visited_[n]) {
      visited_[n] = true;
      touched.push_back(n);
      stack.push_back(n);
    }
  };

  push_stem(nl.outputs()[po_index]);

  std::vector<std::uint32_t> critical_pins;
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    result.stems.push_back(n);
    if (want_faults)
      result.faults.push_back(Fault::stem_sa(n, !sim.value(n)));

    const GateKind k = nl.kind(n);
    const auto fi = nl.fanins(n);
    if (fi.empty()) continue;  // Input / Const

    critical_pins.clear();
    switch (k) {
      case GateKind::Buf:
      case GateKind::Not:
        critical_pins.push_back(0);
        break;
      case GateKind::Xor:
      case GateKind::Xnor:
        for (std::uint32_t p = 0; p < fi.size(); ++p)
          critical_pins.push_back(p);
        break;
      case GateKind::And:
      case GateKind::Nand:
      case GateKind::Or:
      case GateKind::Nor: {
        const bool c = controlling_value(k);
        std::uint32_t n_controlling = 0;
        std::uint32_t controlling_pin = 0;
        for (std::uint32_t p = 0; p < fi.size(); ++p) {
          if (sim.value(fi[p]) == c) {
            ++n_controlling;
            controlling_pin = p;
          }
        }
        if (n_controlling == 1) {
          critical_pins.push_back(controlling_pin);
        } else if (n_controlling == 0) {
          for (std::uint32_t p = 0; p < fi.size(); ++p)
            critical_pins.push_back(p);
        }
        // >= 2 controlling inputs: classical CPT rule — no single input
        // critical (simultaneous multi-branch effects are not traced).
        break;
      }
      default:
        break;
    }

    for (std::uint32_t p : critical_pins) {
      const NetId src = fi[p];
      if (nl.fanouts(src).size() == 1) {
        push_stem(src);  // branch == stem
        continue;
      }
      if (want_faults)
        result.faults.push_back(Fault::branch_sa(n, p, !sim.value(src)));
      if (!visited_[src]) {
        // Exact stem analysis: does flipping the stem flip this PO?
        const auto observed = flip_observed(sim, src);
        if (std::binary_search(observed.begin(), observed.end(), po_index))
          push_stem(src);
        else {
          // Not critical; mark visited so the (possibly expensive) flip
          // check runs at most once per stem per trace.
          visited_[src] = true;
          touched.push_back(src);
        }
      }
    }
  }

  for (NetId n : touched) visited_[n] = false;
  std::sort(result.stems.begin(), result.stems.end());
  result.stems.erase(std::unique(result.stems.begin(), result.stems.end()),
                     result.stems.end());
  std::sort(result.faults.begin(), result.faults.end());
  result.faults.erase(std::unique(result.faults.begin(), result.faults.end()),
                      result.faults.end());
  return result;
}

std::vector<NetId> CriticalPathTracer::critical_nets(EventSim& sim,
                                                     std::uint32_t po_index) {
  return trace(sim, po_index, false).stems;
}

std::vector<Fault> CriticalPathTracer::critical_faults(EventSim& sim,
                                                       std::uint32_t po_index) {
  return trace(sim, po_index, true).faults;
}

}  // namespace mdd
