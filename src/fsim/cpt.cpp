#include "fsim/cpt.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace mdd {

namespace {

struct CptMetrics {
  /// (slot, PO) traces run.
  obs::Counter& traces = obs::registry().counter("cpt.traces");
  /// 64-slot stem flips: one per distinct fanout stem a block's traces
  /// analyse.
  obs::Counter& stem_flips = obs::registry().counter("cpt.stem_flips");
};

CptMetrics& cpt_metrics() {
  static CptMetrics m;
  return m;
}

}  // namespace

CriticalPathTracer::CriticalPathTracer(const Netlist& netlist)
    : netlist_(&netlist),
      // One word per net: the scalar kernel evaluates exactly the block.
      sim_(netlist, scalar_kernel()),
      visited_(netlist.n_nets(), false),
      flip_slots_(netlist.n_nets()),
      cur_(netlist.n_nets(), kAllZero),
      level_queue_(netlist.depth() + 1),
      queued_(netlist.n_nets(), false) {
  std::size_t max_fanin = 0;
  for (NetId n = 0; n < netlist.n_nets(); ++n)
    max_fanin = std::max(max_fanin, netlist.fanins(n).size());
  ins_.resize(max_fanin);
}

void CriticalPathTracer::commit(const PatternSet& stimuli,
                                std::span<const std::uint32_t> patterns) {
  if (stimuli.n_signals() != netlist_->n_inputs())
    throw std::invalid_argument("CriticalPathTracer: PI count mismatch");
  sim_.run(stimuli.gather(patterns));  // throws past kBlockPatterns
  n_slots_ = patterns.size();
  slot_mask_ =
      n_slots_ == kBlockPatterns ? kAllOne : (Word{1} << n_slots_) - 1;
  // Unused slots keep the all-zero pattern's values, so cur_ is one
  // consistent machine on every bit and flips (seeded on used slots
  // only) never change an unused slot.
  for (NetId n = 0; n < netlist_->n_nets(); ++n) cur_[n] = sim_.value(n);
  flip_outputs_.clear();
  ++generation_;
}

void CriticalPathTracer::flip(NetId stem) {
  const Netlist& nl = *netlist_;
  cpt_metrics().stem_flips.inc();
  auto enqueue_fanouts = [&](NetId n) {
    for (NetId s : nl.fanouts(n)) {
      if (!queued_[s]) {
        queued_[s] = true;
        level_queue_[nl.level(s)].push_back(s);
      }
    }
  };

  cur_[stem] ^= slot_mask_;
  changed_.push_back(stem);
  enqueue_fanouts(stem);
  for (std::uint32_t lv = nl.level(stem) + 1; lv < level_queue_.size(); ++lv) {
    std::vector<NetId>& queue = level_queue_[lv];
    for (std::size_t idx = 0; idx < queue.size(); ++idx) {
      const NetId g = queue[idx];
      queued_[g] = false;
      const auto fi = nl.fanins(g);
      for (std::size_t j = 0; j < fi.size(); ++j) ins_[j] = cur_[fi[j]];
      const Word v = eval_gate_word(nl.kind(g), ins_.data(), fi.size());
      if (v != cur_[g]) {
        cur_[g] = v;
        changed_.push_back(g);
        enqueue_fanouts(g);
      }
    }
    queue.clear();
  }

  const std::size_t begin = flip_outputs_.size();
  for (NetId t : changed_) {
    if (auto idx = nl.output_index(t))
      flip_outputs_.push_back({*idx, cur_[t] ^ sim_.value(t)});
    cur_[t] = sim_.value(t);
  }
  changed_.clear();
  std::sort(flip_outputs_.begin() + static_cast<std::ptrdiff_t>(begin),
            flip_outputs_.end(),
            [](const PoDiff& a, const PoDiff& b) { return a.po < b.po; });
}

std::span<const CriticalPathTracer::PoDiff> CriticalPathTracer::flip_observed(
    NetId stem) {
  FlipSlot& slot = flip_slots_[stem];
  if (slot.generation != generation_) {
    slot.generation = generation_;
    slot.begin = static_cast<std::uint32_t>(flip_outputs_.size());
    flip(stem);
    slot.end = static_cast<std::uint32_t>(flip_outputs_.size());
  }
  return {flip_outputs_.data() + slot.begin, slot.end - slot.begin};
}

CriticalPathTracer::Trace CriticalPathTracer::trace(std::size_t slot,
                                                    std::uint32_t po_index,
                                                    bool want_faults) {
  if (slot >= n_slots_)
    throw std::out_of_range("CriticalPathTracer: slot not committed");
  cpt_metrics().traces.inc();
  const Netlist& nl = *netlist_;
  auto value = [&](NetId n) { return ((sim_.value(n) >> slot) & 1u) != 0; };
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
    if (want_faults) result.faults.push_back(Fault::stem_sa(n, !value(n)));

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
          if (value(fi[p]) == c) {
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
        result.faults.push_back(Fault::branch_sa(n, p, !value(src)));
      if (!visited_[src]) {
        // Exact stem analysis: does flipping the stem flip this PO on
        // this slot?
        const auto observed = flip_observed(src);
        const auto it = std::lower_bound(
            observed.begin(), observed.end(), po_index,
            [](const PoDiff& d, std::uint32_t po) { return d.po < po; });
        if (it != observed.end() && it->po == po_index &&
            ((it->slots >> slot) & 1u) != 0)
          push_stem(src);
        else {
          // Not critical; mark visited so the stem is looked up at most
          // once per trace.
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

std::vector<NetId> CriticalPathTracer::critical_nets(std::size_t slot,
                                                     std::uint32_t po_index) {
  return trace(slot, po_index, false).stems;
}

std::vector<Fault> CriticalPathTracer::critical_faults(
    std::size_t slot, std::uint32_t po_index) {
  return trace(slot, po_index, true).faults;
}

}  // namespace mdd
