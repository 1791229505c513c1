#include "fault/inject.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mdd {

namespace {

// Constant operand rows for pin overrides: an overridden fanin pointer is
// redirected here instead of at the driving net's lanes.
constexpr Word kZeroLanes[kMaxKernelLanes] = {};
constexpr Word kOneLanes[kMaxKernelLanes] = {kAllOne, kAllOne, kAllOne,
                                             kAllOne, kAllOne, kAllOne,
                                             kAllOne, kAllOne};

}  // namespace

FaultyMachine::FaultyMachine(const Netlist& netlist)
    : FaultyMachine(netlist, current_kernel()) {}

FaultyMachine::FaultyMachine(const Netlist& netlist, const SimKernel& kernel)
    : netlist_(&netlist),
      kernel_(&kernel),
      lanes_(kernel.lanes),
      values_(netlist.n_nets() * kernel.lanes, kAllZero),
      raw_values_(netlist.n_nets() * kernel.lanes, kAllZero) {
  if (!netlist.finalized())
    throw std::logic_error("FaultyMachine: netlist not finalized");
  std::size_t max_fanin = 0;
  for (NetId n = 0; n < netlist.n_nets(); ++n)
    max_fanin = std::max(max_fanin, netlist.fanins(n).size());
  fanin_ptrs_.resize(max_fanin);
  pi_index_.assign(netlist.n_nets(), UINT32_MAX);
  for (std::uint32_t i = 0; i < netlist.inputs().size(); ++i)
    pi_index_[netlist.inputs()[i]] = i;
}

void FaultyMachine::set_faults(std::span<const Fault> faults) {
  // A multiplet is a set: members are injected in canonical (sorted)
  // order, so members on one net (SA0 and SA1 on one pin, two bridges onto
  // one victim) resolve the same way whatever order the caller listed.
  faults_.assign(faults.begin(), faults.end());
  std::sort(faults_.begin(), faults_.end());
  stem_overrides_.clear();
  pin_overrides_.clear();
  bridges_.clear();
  transitions_.clear();
  for (const Fault& f : faults_) {
    validate_fault(f, *netlist_);
    if (f.is_stuck_at()) {
      if (f.pin == kStemPin) {
        stem_overrides_.push_back({f.net, f.stuck_value()});
      } else {
        pin_overrides_.push_back({f.net, f.pin, f.stuck_value()});
      }
    } else if (f.is_transition()) {
      transitions_.push_back({f.net, f.kind == FaultKind::SlowToRise});
    } else {
      bridges_.push_back({f.kind, f.net, f.bridge_net});
    }
  }
}

void FaultyMachine::reset_values() {
  // Without bridges pass 0 overwrites every net from its fanins in
  // topological order, so the previous contents are never read. With
  // bridges a net can read a value later in topological order (a dominant
  // aggressor, a wired partner's raw driver) before this frame wrote it;
  // for a feedback bridge the fixpoint the passes settle in — or the state
  // the pass cap leaves — depends on that start, so it must not be
  // whatever the previous call left behind.
  if (bridges_.empty()) return;
  std::fill(values_.begin(), values_.end(), kAllZero);
  std::fill(raw_values_.begin(), raw_values_.end(), kAllZero);
}

std::size_t FaultyMachine::run_wide(const PatternSet& stimuli,
                                    std::size_t block) {
  reset_values();
  return run_frame(stimuli, block, /*apply_transitions=*/false);
}

std::size_t FaultyMachine::run_pair_wide(const PatternSet& launch,
                                         const PatternSet& capture,
                                         std::size_t block) {
  reset_values();
  run_frame(launch, block, /*apply_transitions=*/false);
  if (frame1_.size() != values_.size()) frame1_.resize(values_.size());
  std::copy(values_.begin(), values_.end(), frame1_.begin());
  return run_frame(capture, block, /*apply_transitions=*/true);
}

std::size_t FaultyMachine::run_frame(const PatternSet& stimuli,
                                     std::size_t block,
                                     bool apply_transitions) {
  assert(stimuli.n_signals() == netlist_->n_inputs());
  assert(block < stimuli.n_blocks());
  const std::size_t L = lanes_;
  const std::size_t m = std::min(L, stimuli.n_blocks() - block);

  // Pass 0 evaluates everything; later passes re-evaluate to propagate
  // bridge couplings that jump backwards in topological order.
  const std::size_t max_passes = bridges_.size() + 2;
  converged_ = false;

  Word vbuf[kMaxKernelLanes];

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (NetId g : netlist_->topo_order()) {
      const GateKind k = netlist_->kind(g);
      if (k == GateKind::Input) {
        // Padding lanes replicate the last valid block, matching BlockSim.
        for (std::size_t l = 0; l < L; ++l)
          vbuf[l] = stimuli.word(block + std::min(l, m - 1), pi_index_[g]);
      } else {
        const auto fi = netlist_->fanins(g);
        for (std::size_t j = 0; j < fi.size(); ++j)
          fanin_ptrs_[j] = values_.data() + fi[j] * L;
        for (const PinOverride& po : pin_overrides_)
          if (po.gate == g)
            fanin_ptrs_[po.pin] = po.value ? kOneLanes : kZeroLanes;
        kernel_->eval_gate(k, fanin_ptrs_.data(), fi.size(), vbuf);
      }
      std::copy(vbuf, vbuf + L, raw_values_.begin() + g * L);
      // Bridges first, stuck-at last (a hard stuck-at wins over coupling).
      // Dominant bridges copy the aggressor's *net* value; wired bridges
      // resolve the fight between the two *driver* (raw) values.
      for (const Bridge& br : bridges_) {
        if (br.kind == FaultKind::BridgeDom) {
          if (br.a == g) {
            const Word* other = values_.data() + br.b * L;
            std::copy(other, other + L, vbuf);
          }
        } else if (br.a == g || br.b == g) {
          const NetId other = (br.a == g) ? br.b : br.a;
          const Word* self_raw = raw_values_.data() + g * L;
          const Word* other_raw = raw_values_.data() + other * L;
          if (br.kind == FaultKind::BridgeWAnd) {
            for (std::size_t l = 0; l < L; ++l)
              vbuf[l] = self_raw[l] & other_raw[l];
          } else {
            for (std::size_t l = 0; l < L; ++l)
              vbuf[l] = self_raw[l] | other_raw[l];
          }
        }
      }
      if (apply_transitions) {
        // Gross-delay transition semantics: bits where the net moves in
        // the slow direction hold the launch-frame value through capture.
        for (const Transition& t : transitions_) {
          if (t.net != g) continue;
          const Word* f1 = frame1_.data() + g * L;
          for (std::size_t l = 0; l < L; ++l) {
            const Word moved =
                t.rise ? (~f1[l] & vbuf[l]) : (f1[l] & ~vbuf[l]);
            vbuf[l] = (vbuf[l] & ~moved) | (f1[l] & moved);
          }
        }
      }
      for (const StemOverride& so : stem_overrides_)
        if (so.net == g)
          std::fill(vbuf, vbuf + L, so.value ? kAllOne : kAllZero);
      Word* dst = values_.data() + g * L;
      if (!std::equal(vbuf, vbuf + L, dst)) {
        std::copy(vbuf, vbuf + L, dst);
        changed = true;
      }
    }
    if (!changed) {
      converged_ = true;
      break;
    }
    if (bridges_.empty()) {
      // Without bridges a single pass is exact.
      converged_ = true;
      break;
    }
  }
  return m;
}

PatternSet FaultyMachine::simulate_pair(const PatternSet& launch,
                                        const PatternSet& capture) {
  assert(launch.n_patterns() == capture.n_patterns());
  PatternSet responses(capture.n_patterns(), netlist_->n_outputs());
  for (std::size_t b = 0; b < capture.n_blocks();) {
    const std::size_t m = run_pair_wide(launch, capture, b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word mask = capture.valid_mask(b + l);
      for (std::size_t o = 0; o < netlist_->n_outputs(); ++o)
        responses.word(b + l, o) = value(netlist_->outputs()[o], l) & mask;
    }
    b += m;
  }
  return responses;
}

PatternSet FaultyMachine::simulate(const PatternSet& stimuli) {
  PatternSet responses(stimuli.n_patterns(), netlist_->n_outputs());
  for (std::size_t b = 0; b < stimuli.n_blocks();) {
    const std::size_t m = run_wide(stimuli, b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word mask = stimuli.valid_mask(b + l);
      for (std::size_t o = 0; o < netlist_->n_outputs(); ++o)
        responses.word(b + l, o) = value(netlist_->outputs()[o], l) & mask;
    }
    b += m;
  }
  return responses;
}

PatternSet simulate_with_faults(const Netlist& netlist,
                                std::span<const Fault> faults,
                                const PatternSet& stimuli) {
  FaultyMachine fm(netlist);
  fm.set_faults(faults);
  return fm.simulate(stimuli);
}

}  // namespace mdd
