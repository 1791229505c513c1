#include "fsim/propagate.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <numeric>

#include "obs/metrics.hpp"
#include "sim/sim2.hpp"

namespace mdd {

namespace {

struct PropagateMetrics {
  /// Single-fault (solo) queries, however they are answered.
  obs::Counter& queries = obs::registry().counter("propagate.queries");
  /// Flip waves: one per site a solo query had to propagate.
  obs::Counter& site_flips = obs::registry().counter("propagate.site_flips");
  /// Patterns per propagation actually run (site flips and composites).
  obs::Counter& patterns_simulated =
      obs::registry().counter("propagate.patterns_simulated");
  /// Solo queries on feedback bridges that ran on the exact fixpoint
  /// machine.
  obs::Counter& fallbacks = obs::registry().counter("propagate.fallbacks");
  obs::Counter& composite_queries =
      obs::registry().counter("propagate.composite_queries");
  /// Composite queries whose bridge couplings could cycle (or whose sweep
  /// cap tripped) and ran on the exact fixpoint machine instead.
  obs::Counter& composite_fallbacks =
      obs::registry().counter("propagate.composite_fallbacks");
};

PropagateMetrics& propagate_metrics() {
  static PropagateMetrics m;
  return m;
}

// Constant operand rows for pin overrides (see FaultyMachine).
constexpr Word kZeroLanes[kMaxKernelLanes] = {};
constexpr Word kOneLanes[kMaxKernelLanes] = {kAllOne, kAllOne, kAllOne,
                                             kAllOne, kAllOne, kAllOne,
                                             kAllOne, kAllOne};

/// The failing patterns of `sig` whose bit is set in `selected` (one bit
/// per pattern), at exact capacity.
ErrorSignature select_patterns(const ErrorSignature& sig,
                               std::span<const Word> selected) {
  const std::vector<std::uint32_t>& failing = sig.failing_patterns();
  auto is_selected = [&](std::uint32_t p) {
    return ((selected[p / 64] >> (p % 64)) & 1u) != 0;
  };
  ErrorSignature out(sig.n_patterns(), sig.n_outputs());
  out.reserve(static_cast<std::size_t>(
      std::count_if(failing.begin(), failing.end(), is_selected)));
  for (std::size_t i = 0; i < failing.size(); ++i)
    if (is_selected(failing[i])) out.append(failing[i], sig.mask(i));
  return out;
}

}  // namespace

std::shared_ptr<const PropagatorBaseline>
SingleFaultPropagator::make_baseline(const Netlist& netlist,
                                     const PatternSet& patterns) {
  auto baseline = std::make_shared<PropagatorBaseline>();
  BlockSim sim(netlist);
  baseline->values.resize(patterns.n_blocks());
  baseline->good = PatternSet(patterns.n_patterns(), netlist.n_outputs());
  for (std::size_t b = 0; b < patterns.n_blocks();) {
    const std::size_t m = sim.run_wide(patterns, b);
    for (std::size_t l = 0; l < m; ++l) {
      auto& blk = baseline->values[b + l];
      blk.resize(netlist.n_nets());
      for (NetId n = 0; n < netlist.n_nets(); ++n) blk[n] = sim.value(n, l);
      const Word mask = patterns.valid_mask(b + l);
      for (std::size_t o = 0; o < netlist.n_outputs(); ++o)
        baseline->good.word(b + l, o) =
            sim.value(netlist.outputs()[o], l) & mask;
    }
    b += m;
  }
  return baseline;
}

SingleFaultPropagator::SingleFaultPropagator(
    const Netlist& netlist, const PatternSet& patterns,
    std::shared_ptr<const PropagatorBaseline> baseline,
    const SimKernel& kernel)
    : netlist_(&netlist),
      kernel_(&kernel),
      lanes_(kernel.lanes),
      patterns_(&patterns),
      baseline_(std::move(baseline)),
      scratch_(netlist.n_nets() * kernel.lanes, kAllZero),
      touched_(netlist.n_nets(), false),
      level_queue_(netlist.depth() + 1),
      queued_(netlist.n_nets(), false),
      po_mask_buf_((netlist.n_outputs() + 63) / 64, kAllZero),
      fallback_(netlist, kernel) {
  assert(baseline_ != nullptr &&
         baseline_->values.size() == patterns.n_blocks() &&
         baseline_->good.n_patterns() == patterns.n_patterns());
  std::size_t max_fanin = 0;
  for (NetId n = 0; n < netlist.n_nets(); ++n)
    max_fanin = std::max(max_fanin, netlist.fanins(n).size());
  fanin_lanes_.resize(max_fanin * kMaxKernelLanes);
  fanin_ptrs_.resize(max_fanin);
}

SingleFaultPropagator::SingleFaultPropagator(const Netlist& netlist,
                                             const PatternSet& patterns,
                                             const SimKernel& kernel)
    : SingleFaultPropagator(netlist, patterns,
                            make_baseline(netlist, patterns), kernel) {}

SingleFaultPropagator::SingleFaultPropagator(const Netlist& netlist,
                                             const PatternSet& launch,
                                             const PatternSet& capture,
                                             const SimKernel& kernel)
    : SingleFaultPropagator(netlist, capture, kernel) {
  launch_ = &launch;
  BlockSim sim(netlist, kernel);
  launch_values_.resize(launch.n_blocks());
  for (std::size_t b = 0; b < launch.n_blocks();) {
    const std::size_t m = sim.run_wide(launch, b);
    for (std::size_t l = 0; l < m; ++l) {
      auto& blk = launch_values_[b + l];
      blk.resize(netlist.n_nets());
      for (NetId n = 0; n < netlist.n_nets(); ++n) blk[n] = sim.value(n, l);
    }
    b += m;
  }
}

void SingleFaultPropagator::gather_row(const Frames& vals, NetId n,
                                       std::size_t b0, std::size_t m,
                                       Word* out) const {
  // Padding lanes replicate the last valid block, matching BlockSim /
  // FaultyMachine; only lanes < m are ever read out.
  for (std::size_t l = 0; l < lanes_; ++l)
    out[l] = vals[b0 + std::min(l, m - 1)][n];
}

const Word* SingleFaultPropagator::read_row(const Frames& vals, NetId n,
                                            std::size_t b0, std::size_t m,
                                            Word* buf) const {
  if (touched_[n]) return scratch_.data() + n * lanes_;
  gather_row(vals, n, b0, m, buf);
  return buf;
}

bool SingleFaultPropagator::single_site(const Fault& fault) {
  if (!fault.is_bridge()) return true;
  // A dominant bridge's victim copies the aggressor's good value unless the
  // victim's own effect can reach the aggressor.
  return fault.kind == FaultKind::BridgeDom &&
         !reaches(fault.net, fault.bridge_net);
}

bool SingleFaultPropagator::excite(const Fault& fault) {
  // Faulty site value XOR good value, per pattern: the stuck value, the
  // gate re-evaluated with its pin forced, the aggressor's good value, or
  // the launch value held on a transition.
  const Frames& vals = baseline_->values;
  Word good_row[kMaxKernelLanes];
  Word val_row[kMaxKernelLanes];
  Word other_row[kMaxKernelLanes];
  excitation_.assign(patterns_->n_blocks(), kAllZero);
  if (fault.is_transition() && launch_ == nullptr)
    return false;  // inert in single-frame mode
  Word any = kAllZero;
  for (std::size_t b = 0; b < patterns_->n_blocks();) {
    const std::size_t m = std::min(lanes_, patterns_->n_blocks() - b);
    gather_row(vals, fault.net, b, m, good_row);
    if (fault.is_stuck_at() && fault.pin == kStemPin) {
      std::fill(val_row, val_row + lanes_,
                fault.stuck_value() ? kAllOne : kAllZero);
    } else if (fault.is_stuck_at()) {
      const auto fi = netlist_->fanins(fault.net);
      for (std::size_t j = 0; j < fi.size(); ++j) {
        Word* row = fanin_lanes_.data() + j * kMaxKernelLanes;
        gather_row(vals, fi[j], b, m, row);
        fanin_ptrs_[j] = row;
      }
      fanin_ptrs_[fault.pin] = fault.stuck_value() ? kOneLanes : kZeroLanes;
      kernel_->eval_gate(netlist_->kind(fault.net), fanin_ptrs_.data(),
                         fi.size(), val_row);
    } else if (fault.kind == FaultKind::BridgeDom) {
      gather_row(vals, fault.bridge_net, b, m, val_row);
    } else {
      gather_row(launch_values_, fault.net, b, m, other_row);
      for (std::size_t l = 0; l < lanes_; ++l) {
        const Word moved = fault.kind == FaultKind::SlowToRise
                               ? (~other_row[l] & good_row[l])
                               : (other_row[l] & ~good_row[l]);
        val_row[l] = good_row[l] ^ moved;
      }
    }
    for (std::size_t l = 0; l < m; ++l) {
      excitation_[b + l] =
          (val_row[l] ^ good_row[l]) & patterns_->valid_mask(b + l);
      any |= excitation_[b + l];
    }
    b += m;
  }
  return any != kAllZero;
}

void SingleFaultPropagator::flip_site(NetId site) {
  propagate_metrics().site_flips.inc();
  propagate_metrics().patterns_simulated.inc(patterns_->n_patterns());
  flip_site_ = site;
  flip_ = ErrorSignature(patterns_->n_patterns(), netlist_->n_outputs());
  for (std::size_t b = 0; b < patterns_->n_blocks();) {
    const std::size_t m = std::min(lanes_, patterns_->n_blocks() - b);
    Word* row = scratch_.data() + site * lanes_;
    gather_row(baseline_->values, site, b, m, row);
    for (std::size_t l = 0; l < lanes_; ++l) row[l] = ~row[l];
    touched_[site] = true;
    touched_list_.push_back(site);
    for (NetId s : netlist_->fanouts(site)) enqueue_net(s);
    propagate_flip(b, m);
    collect(b, m, flip_);
    clear_touched();
    b += m;
  }
}

void SingleFaultPropagator::propagate_flip(std::size_t b0, std::size_t m) {
  const Frames& vals = baseline_->values;
  Word vbuf[kMaxKernelLanes];
  Word cur_buf[kMaxKernelLanes];
  // Fan-outs sit on higher levels, so one sweep settles the wave.
  for (std::uint32_t lv = 0; lv < level_queue_.size(); ++lv) {
    for (std::size_t idx = 0; idx < level_queue_[lv].size(); ++idx) {
      const NetId g = level_queue_[lv][idx];
      queued_[g] = false;
      --pending_;
      const auto fi = netlist_->fanins(g);
      for (std::size_t j = 0; j < fi.size(); ++j)
        fanin_ptrs_[j] = read_row(vals, fi[j], b0, m,
                                  fanin_lanes_.data() + j * kMaxKernelLanes);
      kernel_->eval_gate(netlist_->kind(g), fanin_ptrs_.data(), fi.size(),
                         vbuf);
      const Word* cur = read_row(vals, g, b0, m, cur_buf);
      if (!std::equal(vbuf, vbuf + lanes_, cur)) {
        std::copy(vbuf, vbuf + lanes_, scratch_.begin() + g * lanes_);
        if (!touched_[g]) {
          touched_[g] = true;
          touched_list_.push_back(g);
        }
        for (NetId s : netlist_->fanouts(g)) enqueue_net(s);
      }
    }
    level_queue_[lv].clear();
  }
}

void SingleFaultPropagator::collect(std::size_t b0, std::size_t m,
                                    ErrorSignature& sig) {
  // Touched POs are gathered once per block; the per-failing-pattern loop
  // then only walks that short list.
  for (std::size_t l = 0; l < m; ++l) {
    const Word valid = patterns_->valid_mask(b0 + l);
    const std::vector<Word>& good = baseline_->values[b0 + l];
    Word any = kAllZero;
    po_diffs_.clear();
    for (NetId t : touched_list_) {
      if (auto idx = netlist_->output_index(t)) {
        const Word diff = (scratch_[t * lanes_ + l] ^ good[t]) & valid;
        if (diff) {
          po_diffs_.push_back({*idx, diff});
          any |= diff;
        }
      }
    }
    while (any) {
      const int bit = std::countr_zero(any);
      any &= any - 1;
      std::fill(po_mask_buf_.begin(), po_mask_buf_.end(), kAllZero);
      for (const PoDiff& pd : po_diffs_) {
        if ((pd.diff >> bit) & 1u)
          po_mask_buf_[pd.po / 64] |= Word{1} << (pd.po % 64);
      }
      sig.append(static_cast<std::uint32_t>((b0 + l) * 64 +
                                            static_cast<std::size_t>(bit)),
                 po_mask_buf_);
    }
  }
}

void SingleFaultPropagator::clear_touched() {
  for (NetId t : touched_list_) touched_[t] = false;
  touched_list_.clear();
}

ErrorSignature SingleFaultPropagator::signature(const Fault& fault) {
  validate_fault(fault, *netlist_);
  propagate_metrics().queries.inc();
  if (!single_site(fault)) {
    std::optional<ErrorSignature> sig = propagate_multiplet({&fault, 1});
    if (!sig) {
      propagate_metrics().fallbacks.inc();
      sig = exact_signature({&fault, 1});
    }
    sig->shrink_to_fit();
    return std::move(*sig);
  }
  if (!excite(fault))
    return ErrorSignature(patterns_->n_patterns(), netlist_->n_outputs());
  if (flip_site_ != fault.net) flip_site(fault.net);
  return select_patterns(flip_, excitation_);
}

bool SingleFaultPropagator::reaches(NetId from, NetId to) {
  if (from == to) return false;
  if (netlist_->level(from) >= netlist_->level(to)) return false;
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  if (auto it = reach_cache_.find(key); it != reach_cache_.end())
    return it->second;
  // Level-pruned DFS over fanouts (the is_feedback_pair approach, made
  // directional); memoized — the netlist never changes under a propagator.
  const std::uint32_t limit = netlist_->level(to);
  std::vector<bool> seen(netlist_->n_nets(), false);
  std::vector<NetId> stack{from};
  seen[from] = true;
  bool found = false;
  while (!stack.empty() && !found) {
    const NetId n = stack.back();
    stack.pop_back();
    for (NetId s : netlist_->fanouts(n)) {
      if (s == to) {
        found = true;
        break;
      }
      if (!seen[s] && netlist_->level(s) < limit) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  reach_cache_.emplace(key, found);
  return found;
}

bool SingleFaultPropagator::prepare_composite(
    std::span<const Fault> multiplet) {
  comp_stems_.clear();
  comp_pins_.clear();
  comp_bridges_.clear();
  comp_transitions_.clear();
  for (const Fault& f : multiplet) {
    validate_fault(f, *netlist_);
    if (f.is_stuck_at()) {
      if (f.pin == kStemPin)
        comp_stems_.push_back({f.net, f.stuck_value()});
      else
        comp_pins_.push_back({f.net, f.pin, f.stuck_value()});
    } else if (f.is_transition()) {
      comp_transitions_.push_back({f.net, f.kind == FaultKind::SlowToRise});
    } else {
      comp_bridges_.push_back({f.kind, f.net, f.bridge_net});
    }
  }
  const std::size_t nb = comp_bridges_.size();
  if (nb == 0) return true;
  if (raw_scratch_.size() != netlist_->n_nets() * lanes_) {
    raw_scratch_.assign(netlist_->n_nets() * lanes_, kAllZero);
    raw_touched_.assign(netlist_->n_nets(), false);
  }

  // A bridge reads inputs (dom: the aggressor's final net value; wired:
  // both raw driver values) and writes outputs (dom: the victim; wired:
  // both nets). If any bridge output can feed one of its own inputs —
  // through the netlist or through a chain of other bridges — the
  // fixpoint is schedule-dependent and only the exact machine's pass
  // discipline reproduces the reference bits: detect any cycle over the
  // bridge influence graph and report it to the caller (conservative —
  // influence is over-approximated, a cycle is never missed).
  auto put_nets = [](const CompBridge& br, bool outputs, NetId out[2]) {
    out[0] = br.a;
    out[1] = br.kind == FaultKind::BridgeDom ? (outputs ? kNoNet : br.b)
                                             : br.b;
    if (br.kind == FaultKind::BridgeDom && !outputs) out[0] = kNoNet;
  };
  std::vector<char> edge(nb * nb, 0);
  for (std::size_t i = 0; i < nb; ++i) {
    NetId outs[2];
    put_nets(comp_bridges_[i], /*outputs=*/true, outs);
    for (std::size_t j = 0; j < nb; ++j) {
      NetId ins[2];
      put_nets(comp_bridges_[j], /*outputs=*/false, ins);
      for (NetId out : outs) {
        if (out == kNoNet) continue;
        for (NetId in : ins) {
          if (in == kNoNet) continue;
          if ((i != j && out == in) || reaches(out, in)) edge[i * nb + j] = 1;
        }
      }
    }
  }
  for (std::size_t k = 0; k < nb; ++k)
    for (std::size_t i = 0; i < nb; ++i)
      for (std::size_t j = 0; j < nb; ++j)
        if (edge[i * nb + k] && edge[k * nb + j]) edge[i * nb + j] = 1;
  for (std::size_t i = 0; i < nb; ++i)
    if (edge[i * nb + i]) return false;
  return true;
}

void SingleFaultPropagator::enqueue_net(NetId n) {
  if (queued_[n]) return;
  queued_[n] = true;
  level_queue_[netlist_->level(n)].push_back(n);
  ++pending_;
}

void SingleFaultPropagator::seed_composite(bool apply_transitions) {
  // Seeds are just "re-evaluate this net": eval_composite decides whether
  // the fault set actually changes anything for this group.
  for (const CompStem& s : comp_stems_) enqueue_net(s.net);
  for (const CompPin& p : comp_pins_) enqueue_net(p.gate);
  for (const CompBridge& br : comp_bridges_) {
    enqueue_net(br.a);
    if (br.kind != FaultKind::BridgeDom) enqueue_net(br.b);
  }
  if (apply_transitions)
    for (const CompTransition& t : comp_transitions_) enqueue_net(t.net);
}

bool SingleFaultPropagator::is_wired_member(NetId g) const {
  for (const CompBridge& br : comp_bridges_)
    if (br.kind != FaultKind::BridgeDom && (br.a == g || br.b == g))
      return true;
  return false;
}

void SingleFaultPropagator::eval_composite(NetId g, const Frames& vals,
                                           std::size_t b0, std::size_t m,
                                           bool apply_transitions, Word* out,
                                           Word* raw) {
  if (netlist_->kind(g) == GateKind::Input) {
    gather_row(vals, g, b0, m, raw);  // the stimulus row; nothing
                                      // upstream to fault
  } else {
    const auto fi = netlist_->fanins(g);
    for (std::size_t j = 0; j < fi.size(); ++j)
      fanin_ptrs_[j] = read_row(vals, fi[j], b0, m,
                                fanin_lanes_.data() + j * kMaxKernelLanes);
    for (const CompPin& po : comp_pins_)
      if (po.gate == g) fanin_ptrs_[po.pin] = po.value ? kOneLanes : kZeroLanes;
    kernel_->eval_gate(netlist_->kind(g), fanin_ptrs_.data(), fi.size(),
                       raw);
  }
  // Identical transform order to FaultyMachine::run_frame: bridges in
  // declaration order (dom copies the aggressor's *net* value, wired
  // resolves the two *driver* values), then the transition hold, then
  // stem overrides (a hard stuck-at wins over coupling).
  std::copy(raw, raw + lanes_, out);
  Word row_buf[kMaxKernelLanes];
  for (const CompBridge& br : comp_bridges_) {
    if (br.kind == FaultKind::BridgeDom) {
      if (br.a == g) {
        const Word* other = read_row(vals, br.b, b0, m, row_buf);
        std::copy(other, other + lanes_, out);
      }
    } else if (br.a == g || br.b == g) {
      const NetId other = (br.a == g) ? br.b : br.a;
      const Word* other_raw;
      if (raw_touched_[other]) {
        other_raw = raw_scratch_.data() + other * lanes_;
      } else {
        gather_row(vals, other, b0, m, row_buf);
        other_raw = row_buf;
      }
      if (br.kind == FaultKind::BridgeWAnd) {
        for (std::size_t l = 0; l < lanes_; ++l)
          out[l] = raw[l] & other_raw[l];
      } else {
        for (std::size_t l = 0; l < lanes_; ++l)
          out[l] = raw[l] | other_raw[l];
      }
    }
  }
  if (apply_transitions) {
    for (const CompTransition& t : comp_transitions_) {
      if (t.net != g) continue;
      const Word* f1 = kZeroLanes;
      for (const LaunchRow& lr : launch_faulty_) {
        if (lr.net == g) {
          f1 = lr.lanes;
          break;
        }
      }
      for (std::size_t l = 0; l < lanes_; ++l) {
        const Word moved = t.rise ? (~f1[l] & out[l]) : (f1[l] & ~out[l]);
        out[l] = (out[l] & ~moved) | (f1[l] & moved);
      }
    }
  }
  for (const CompStem& so : comp_stems_)
    if (so.net == g)
      std::fill(out, out + lanes_, so.value ? kAllOne : kAllZero);
}

bool SingleFaultPropagator::propagate_composite(const Frames& vals,
                                                std::size_t b0,
                                                std::size_t m,
                                                bool apply_transitions) {
  Word vbuf[kMaxKernelLanes];
  Word raw_buf[kMaxKernelLanes];
  Word cur_buf[kMaxKernelLanes];
  Word prev_raw_buf[kMaxKernelLanes];
  // Bridge couplings can enqueue backwards in level order; those events
  // survive into the next sweep. Any acyclic coupling chain settles
  // within n_bridges+1 sweeps, so the cap is pure safety (callers fall
  // back to the exact machine if it ever trips).
  const std::size_t max_sweeps = comp_bridges_.size() + 2;
  for (std::size_t sweep = 0; pending_ > 0; ++sweep) {
    if (sweep >= max_sweeps) return false;
    for (std::uint32_t lv = 0; lv < level_queue_.size(); ++lv) {
      auto& bucket = level_queue_[lv];
      for (std::size_t idx = 0; idx < bucket.size(); ++idx) {
        const NetId g = bucket[idx];
        queued_[g] = false;
        --pending_;
        eval_composite(g, vals, b0, m, apply_transitions, vbuf, raw_buf);
        if (is_wired_member(g)) {
          const Word* prev_raw;
          if (raw_touched_[g]) {
            prev_raw = raw_scratch_.data() + g * lanes_;
          } else {
            gather_row(vals, g, b0, m, prev_raw_buf);
            prev_raw = prev_raw_buf;
          }
          if (!std::equal(raw_buf, raw_buf + lanes_, prev_raw)) {
            std::copy(raw_buf, raw_buf + lanes_,
                      raw_scratch_.begin() + g * lanes_);
            if (!raw_touched_[g]) {
              raw_touched_[g] = true;
              raw_touched_list_.push_back(g);
            }
            // The partner resolves against this driver value: re-resolve
            // it even if this net's own final value did not move.
            for (const CompBridge& br : comp_bridges_)
              if (br.kind != FaultKind::BridgeDom &&
                  (br.a == g || br.b == g))
                enqueue_net(br.a == g ? br.b : br.a);
          }
        }
        const Word* cur = read_row(vals, g, b0, m, cur_buf);
        if (!std::equal(vbuf, vbuf + lanes_, cur)) {
          std::copy(vbuf, vbuf + lanes_, scratch_.begin() + g * lanes_);
          if (!touched_[g]) {
            touched_[g] = true;
            touched_list_.push_back(g);
          }
          for (NetId s : netlist_->fanouts(g)) enqueue_net(s);
          // A dominant bridge's victim copies this net's final value.
          for (const CompBridge& br : comp_bridges_)
            if (br.kind == FaultKind::BridgeDom && br.b == g)
              enqueue_net(br.a);
        }
      }
      bucket.clear();
    }
  }
  return true;
}

void SingleFaultPropagator::reset_composite() {
  clear_touched();
  for (NetId t : raw_touched_list_) raw_touched_[t] = false;
  raw_touched_list_.clear();
  for (auto& bucket : level_queue_) {
    for (NetId g : bucket) queued_[g] = false;
    bucket.clear();
  }
  pending_ = 0;
}

ErrorSignature SingleFaultPropagator::exact_signature(
    std::span<const Fault> multiplet) {
  fallback_.set_faults(multiplet);
  const PatternSet faulty =
      launch_ ? fallback_.simulate_pair(*launch_, *patterns_)
              : fallback_.simulate(*patterns_);
  return ErrorSignature::diff(baseline_->good, faulty);
}

std::optional<ErrorSignature> SingleFaultPropagator::propagate_multiplet(
    std::span<const Fault> multiplet) {
  if (!prepare_composite(multiplet)) return std::nullopt;
  propagate_metrics().patterns_simulated.inc(patterns_->n_patterns());
  ErrorSignature sig(patterns_->n_patterns(), netlist_->n_outputs());
  for (std::size_t b = 0; b < patterns_->n_blocks();) {
    const std::size_t m = std::min(lanes_, patterns_->n_blocks() - b);
    if (launch_ != nullptr && !comp_transitions_.empty()) {
      // Frame 1 (launch) under the static members only — run purely to
      // harvest the faulty launch rows the transition hold consumes in
      // frame 2 (the capture frame reads no other frame-1 state).
      seed_composite(/*apply_transitions=*/false);
      if (!propagate_composite(launch_values_, b, m,
                               /*apply_transitions=*/false)) {
        reset_composite();
        return std::nullopt;
      }
      launch_faulty_.clear();
      for (const CompTransition& t : comp_transitions_) {
        LaunchRow row;
        row.net = t.net;
        gather_row(launch_values_, t.net, b, m, row.lanes);
        if (touched_[t.net])
          std::copy(scratch_.begin() + t.net * lanes_,
                    scratch_.begin() + t.net * lanes_ + lanes_, row.lanes);
        launch_faulty_.push_back(row);
      }
      reset_composite();
    }
    seed_composite(/*apply_transitions=*/launch_ != nullptr);
    if (!propagate_composite(baseline_->values, b, m,
                             /*apply_transitions=*/launch_ != nullptr)) {
      reset_composite();
      return std::nullopt;
    }
    collect(b, m, sig);
    reset_composite();
    b += m;
  }
  return sig;
}

ErrorSignature SingleFaultPropagator::signature(
    std::span<const Fault> multiplet) {
  propagate_metrics().composite_queries.inc();
  // Set semantics, exactly as FaultyMachine::set_faults: the members are
  // injected in canonical order.
  members_.assign(multiplet.begin(), multiplet.end());
  std::sort(members_.begin(), members_.end());
  if (auto sig = propagate_multiplet(members_)) return std::move(*sig);
  propagate_metrics().composite_fallbacks.inc();
  return exact_signature(members_);
}

std::size_t for_each_fault_by_site(
    std::span<const Fault> faults, const ExecPolicy& policy,
    const std::function<SingleFaultPropagator()>& make,
    const std::function<void(std::size_t, SingleFaultPropagator&)>& visit,
    const CancelToken* cancel) {
  const std::size_t n = faults.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return faults[a].net < faults[b].net;
                   });
  std::vector<std::size_t> group_begin;
  for (std::size_t pos = 0; pos < n; ++pos)
    if (pos == 0 || faults[order[pos]].net != faults[order[pos - 1]].net)
      group_begin.push_back(pos);
  const std::size_t n_groups = group_begin.size();
  group_begin.push_back(n);
  // One private propagator per worker, built on its first chunk and reused
  // for every later one: identical per-query results, no shared scratch.
  std::vector<std::optional<SingleFaultPropagator>> props(
      worker_slots(policy, n_groups));
  std::atomic<std::size_t> dropped{0};
  parallel_for_ranges(
      policy, n_groups,
      [&](std::size_t g_begin, std::size_t g_end, std::size_t worker) {
        // A chunk drawn after the token tripped polls it on its first
        // fault and counts itself whole, so the drops add up to exactly
        // the faults left unvisited.
        CancelCheckpoint cp(cancel, 8);
        const std::size_t end = group_begin[g_end];
        for (std::size_t pos = group_begin[g_begin]; pos < end; ++pos) {
          if (cp()) {
            dropped += end - pos;
            return;
          }
          std::optional<SingleFaultPropagator>& prop = props[worker];
          if (!prop) prop.emplace(make());
          visit(order[pos], *prop);
        }
      });
  return dropped;
}

std::vector<ErrorSignature> solo_signatures(const Netlist& netlist,
                                            const PatternSet& patterns,
                                            std::span<const Fault> faults,
                                            const ExecPolicy& policy) {
  std::vector<ErrorSignature> out(faults.size());
  if (faults.empty()) return out;
  const auto baseline = SingleFaultPropagator::make_baseline(netlist, patterns);
  for_each_fault_by_site(
      faults, policy,
      [&] { return SingleFaultPropagator(netlist, patterns, baseline); },
      [&](std::size_t i, SingleFaultPropagator& prop) {
        out[i] = prop.signature(faults[i]);
      });
  return out;
}

}  // namespace mdd
