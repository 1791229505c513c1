// openmdd — composite faulty-machine simulation.
//
// `FaultyMachine` evaluates the netlist with an arbitrary *set* of faults
// injected simultaneously — the primitive that lets the diagnosis core make
// no assumptions about failing-pattern characteristics: candidate multiplets
// are always scored on the true multiple-fault response, so masking and
// reinforcement between defects are modeled exactly.
//
// Evaluation is word-parallel through a simulation kernel (sim/kernel.hpp):
// a lane group of up to kernel.lanes consecutive 64-pattern blocks is
// evaluated per pass (64 patterns with the scalar kernel, 256/512 with
// AVX2/AVX-512 — bit-identical results either way). Bridges couple nets
// that may be far apart in topological order, so the machine iterates full
// passes to a fixpoint; for non-feedback bridge sets this converges in at
// most n_bridges+1 passes (a safety cap plus `converged()` flag guard
// against user-forced feedback bridges). Every run_wide / run_pair_wide
// call starts from a defined state (all-zero nets when bridges are
// present), so a machine answers exactly like a freshly constructed one
// whatever it simulated before — feedback bridges included, whose
// settled state depends on where the passes start.
#pragma once

#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/patterns.hpp"

namespace mdd {

class FaultyMachine {
 public:
  explicit FaultyMachine(const Netlist& netlist);
  FaultyMachine(const Netlist& netlist, const SimKernel& kernel);

  const SimKernel& kernel() const { return *kernel_; }
  std::size_t lanes() const { return lanes_; }

  /// Installs the active fault set (validated). Any number and mix of
  /// faults is allowed, including the empty set (good machine).
  void set_faults(std::span<const Fault> faults);
  const std::vector<Fault>& faults() const { return faults_; }

  /// Evaluates the lane group starting at pattern block `block`:
  /// min(lanes(), n_blocks - block) blocks per pass (the returned count;
  /// padding lanes replicate the last valid block). Lane l holds block
  /// `block + l`. Transition faults in the fault set are inert in
  /// single-frame mode (they require a launch/capture pair).
  std::size_t run_wide(const PatternSet& stimuli, std::size_t block);

  /// Single-block compatibility shim: lane 0 is exactly `block` (value(n)
  /// reads it); wider kernels fill the remaining lanes with the following
  /// blocks as run_wide does.
  void run(const PatternSet& stimuli, std::size_t block) {
    run_wide(stimuli, block);
  }

  /// Two-frame (launch, capture) evaluation of one lane group for
  /// transition testing. Frame 1 is evaluated with the static faults;
  /// frame 2 applies in addition the gross-delay transition semantics: a
  /// slow-to-rise (slow-to-fall) net whose value rises (falls) between the
  /// frames holds its frame-1 value through capture. Values after the call
  /// are the capture-frame values.
  std::size_t run_pair_wide(const PatternSet& launch,
                            const PatternSet& capture, std::size_t block);
  void run_pair(const PatternSet& launch, const PatternSet& capture,
                std::size_t block) {
    run_pair_wide(launch, capture, block);
  }

  /// Frame-1 value of net `n` after run_pair() (lane 0 / lane `lane`).
  Word launch_value(NetId n) const { return frame1_[n * lanes_]; }
  Word launch_value(NetId n, std::size_t lane) const {
    return frame1_[n * lanes_ + lane];
  }

  /// Faulty value word of net `n` after run() (lane 0 / lane `lane`).
  Word value(NetId n) const { return values_[n * lanes_]; }
  Word value(NetId n, std::size_t lane) const {
    return values_[n * lanes_ + lane];
  }

  /// True if the last run() reached a fixpoint (always true for
  /// non-feedback fault sets).
  bool converged() const { return converged_; }

  /// Full-set responses at the POs.
  PatternSet simulate(const PatternSet& stimuli);

  /// Full-set capture-frame responses for launch/capture pairs.
  PatternSet simulate_pair(const PatternSet& launch,
                           const PatternSet& capture);

  const Netlist& netlist() const { return *netlist_; }

 private:
  std::size_t run_frame(const PatternSet& stimuli, std::size_t block,
                        bool apply_transitions);
  /// Zeroes the net values when bridges are installed (see run_wide).
  void reset_values();

  struct PinOverride {
    NetId gate;
    std::uint32_t pin;
    bool value;
  };
  struct StemOverride {
    NetId net;
    bool value;
  };
  struct Bridge {
    FaultKind kind;
    NetId a;  ///< victim (dom) / first net (wired)
    NetId b;  ///< aggressor (dom) / second net (wired)
  };
  struct Transition {
    NetId net;
    bool rise;  ///< true = slow-to-rise, false = slow-to-fall
  };

  const Netlist* netlist_;
  const SimKernel* kernel_;
  std::size_t lanes_;
  std::vector<Fault> faults_;
  std::vector<StemOverride> stem_overrides_;
  std::vector<PinOverride> pin_overrides_;
  std::vector<Bridge> bridges_;
  std::vector<Transition> transitions_;
  std::vector<Word> frame1_;  ///< launch-frame values (run_pair only)
  std::vector<Word> values_;      ///< [net][lane]
  std::vector<Word> raw_values_;  ///< driver outputs before bridge/stem
                                  ///< transforms (wired bridges combine
                                  ///< the fighting drivers' raw values)
  std::vector<const Word*> fanin_ptrs_;
  std::vector<std::uint32_t> pi_index_;  // NetId -> PI position
  bool converged_ = true;
};

/// Convenience: simulate `faults` injected together over `stimuli`.
PatternSet simulate_with_faults(const Netlist& netlist,
                                std::span<const Fault> faults,
                                const PatternSet& stimuli);

}  // namespace mdd
