#include "fsim/fsim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace mdd {

ErrorSignature::ErrorSignature(std::size_t n_patterns, std::size_t n_outputs)
    : n_patterns_(n_patterns),
      n_outputs_(n_outputs),
      n_po_words_((n_outputs + 63) / 64) {}

ErrorSignature ErrorSignature::diff(const PatternSet& good,
                                    const PatternSet& faulty) {
  if (good.n_patterns() != faulty.n_patterns() ||
      good.n_signals() != faulty.n_signals())
    throw std::invalid_argument("ErrorSignature::diff: shape mismatch");
  ErrorSignature sig(good.n_patterns(), good.n_signals());
  std::vector<Word> mask(sig.n_po_words_);
  // Word-wise: one XOR sweep finds the failing patterns of each block,
  // then only those extract per-output masks.
  for (std::size_t b = 0; b < good.n_blocks(); ++b) {
    const Word valid = good.valid_mask(b);
    Word any_diff = kAllZero;
    for (std::size_t o = 0; o < good.n_signals(); ++o)
      any_diff |= (good.word(b, o) ^ faulty.word(b, o)) & valid;
    while (any_diff) {
      const int bit = std::countr_zero(any_diff);
      any_diff &= any_diff - 1;
      std::fill(mask.begin(), mask.end(), kAllZero);
      for (std::size_t o = 0; o < good.n_signals(); ++o) {
        const Word d = good.word(b, o) ^ faulty.word(b, o);
        if ((d >> bit) & 1u) mask[o / 64] |= Word{1} << (o % 64);
      }
      sig.append(static_cast<std::uint32_t>(b * 64 + bit), mask);
    }
  }
  return sig;
}

std::size_t ErrorSignature::n_error_bits() const {
  // Through the kernel: the base build's std::popcount is a library
  // call per word, the SIMD kernels' is the hardware instruction.
  return current_kernel().popcount(masks_.data(), masks_.size());
}

std::span<const Word> ErrorSignature::mask(std::size_t i) const {
  assert(i < patterns_.size());
  return {masks_.data() + i * n_po_words_, n_po_words_};
}

std::span<const Word> ErrorSignature::mask_of_pattern(std::uint32_t p) const {
  auto it = std::lower_bound(patterns_.begin(), patterns_.end(), p);
  if (it == patterns_.end() || *it != p) return {};
  return mask(static_cast<std::size_t>(it - patterns_.begin()));
}

void ErrorSignature::append(std::uint32_t pattern,
                            std::span<const Word> po_mask) {
  assert(po_mask.size() == n_po_words_);
  assert(patterns_.empty() || patterns_.back() < pattern);
  patterns_.push_back(pattern);
  masks_.insert(masks_.end(), po_mask.begin(), po_mask.end());
}

void ErrorSignature::reserve(std::size_t n_failing_patterns) {
  patterns_.reserve(n_failing_patterns);
  masks_.reserve(n_failing_patterns * n_po_words_);
}

void ErrorSignature::shrink_to_fit() {
  patterns_.shrink_to_fit();
  masks_.shrink_to_fit();
}

std::vector<std::uint32_t> ErrorSignature::failing_outputs(
    std::size_t i) const {
  std::vector<std::uint32_t> outs;
  const auto m = mask(i);
  for (std::size_t w = 0; w < m.size(); ++w) {
    Word bits = m[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      outs.push_back(static_cast<std::uint32_t>(w * 64 + b));
      bits &= bits - 1;
    }
  }
  return outs;
}

MatchCounts match(const ErrorSignature& observed, const ErrorSignature& sim) {
  assert(observed.n_po_words() == sim.n_po_words());
  MatchCounts mc;
  const auto& op = observed.failing_patterns();
  const auto& sp = sim.failing_patterns();
  std::size_t i = 0, j = 0;
  const std::size_t nw = observed.n_po_words();
  while (i < op.size() || j < sp.size()) {
    if (j >= sp.size() || (i < op.size() && op[i] < sp[j])) {
      for (Word w : observed.mask(i))
        mc.tfsp += static_cast<std::size_t>(std::popcount(w));
      ++i;
    } else if (i >= op.size() || sp[j] < op[i]) {
      for (Word w : sim.mask(j))
        mc.tpsf += static_cast<std::size_t>(std::popcount(w));
      ++j;
    } else {
      const auto om = observed.mask(i);
      const auto sm = sim.mask(j);
      for (std::size_t w = 0; w < nw; ++w) {
        mc.tfsf += static_cast<std::size_t>(std::popcount(om[w] & sm[w]));
        mc.tfsp += static_cast<std::size_t>(std::popcount(om[w] & ~sm[w]));
        mc.tpsf += static_cast<std::size_t>(std::popcount(~om[w] & sm[w]));
      }
      ++i;
      ++j;
    }
  }
  return mc;
}

SignatureMatcher::SignatureMatcher(const ErrorSignature& observed)
    : SignatureMatcher(observed, current_kernel()) {}

SignatureMatcher::SignatureMatcher(const ErrorSignature& observed,
                                   const SimKernel& kernel)
    : kernel_(&kernel),
      n_po_words_(observed.n_po_words()),
      dense_(observed.n_patterns() * observed.n_po_words(), kAllZero) {
  for (std::size_t i = 0; i < observed.n_failing_patterns(); ++i) {
    const std::uint32_t p = observed.failing_patterns()[i];
    const auto m = observed.mask(i);
    for (std::size_t w = 0; w < n_po_words_; ++w) {
      dense_[p * n_po_words_ + w] = m[w];
      observed_bits_ += static_cast<std::size_t>(std::popcount(m[w]));
    }
  }
}

MatchCounts SignatureMatcher::match(const ErrorSignature& sim) const {
  assert(sim.n_po_words() == n_po_words_);
  // tfsp and tpsf follow from the totals: every observed bit is either
  // explained (tfsf) or not (tfsp), every simulated bit either observed
  // (tfsf) or a misprediction (tpsf).
  std::size_t tfsf = 0, sim_bits = 0;
  const auto& sp = sim.failing_patterns();
  for (std::size_t j = 0; j < sp.size(); ++j) {
    const Word* obs = dense_.data() + std::size_t{sp[j]} * n_po_words_;
    const auto m = sim.mask(j);
    tfsf += kernel_->popcount_and(obs, m.data(), n_po_words_);
    sim_bits += kernel_->popcount(m.data(), n_po_words_);
  }
  MatchCounts mc;
  mc.tfsf = tfsf;
  mc.tfsp = observed_bits_ - tfsf;
  mc.tpsf = sim_bits - tfsf;
  return mc;
}

ErrorSignature signature_difference(const ErrorSignature& a,
                                    const ErrorSignature& b) {
  assert(a.n_po_words() == b.n_po_words());
  ErrorSignature out(a.n_patterns(), a.n_outputs());
  std::vector<Word> mask(a.n_po_words());
  for (std::size_t i = 0; i < a.n_failing_patterns(); ++i) {
    const std::uint32_t p = a.failing_patterns()[i];
    const auto am = a.mask(i);
    const auto bm = b.mask_of_pattern(p);
    bool any = false;
    for (std::size_t w = 0; w < mask.size(); ++w) {
      mask[w] = am[w] & ~(bm.empty() ? kAllZero : bm[w]);
      any = any || mask[w] != kAllZero;
    }
    if (any) out.append(p, mask);
  }
  return out;
}

ErrorSignature restrict_signature(const ErrorSignature& sig,
                                  std::size_t n_patterns) {
  ErrorSignature out(sig.n_patterns(), sig.n_outputs());
  for (std::size_t i = 0; i < sig.n_failing_patterns(); ++i) {
    const std::uint32_t p = sig.failing_patterns()[i];
    if (p >= n_patterns) break;
    out.append(p, sig.mask(i));
  }
  return out;
}

namespace {

/// Whole-machine simulation volume, for the obs layer: every signature /
/// detection kernel call lands here. Relaxed atomic adds on cached
/// handles — safe and cheap from any thread.
struct FsimMetrics {
  obs::Counter& signatures = obs::registry().counter("fsim.signatures");
  obs::Counter& detect_queries =
      obs::registry().counter("fsim.detect_queries");
  obs::Counter& patterns_simulated =
      obs::registry().counter("fsim.patterns_simulated");
};

FsimMetrics& fsim_metrics() {
  static FsimMetrics m;
  return m;
}

/// Error signature of the fault set installed in `machine`: `run(b)`
/// evaluates the lane group at block `b` (one or two frames) and returns
/// its block count; the PO values are compared with `good` (capture-frame
/// `patterns` shape).
template <typename Run>
ErrorSignature diff_outputs(const FaultyMachine& machine,
                            const Netlist& netlist,
                            const PatternSet& patterns,
                            const PatternSet& good, Run run) {
  fsim_metrics().signatures.inc();
  fsim_metrics().patterns_simulated.inc(patterns.n_patterns());
  ErrorSignature sig(patterns.n_patterns(), netlist.n_outputs());
  std::vector<Word> mask(sig.n_po_words());
  const auto& pos = netlist.outputs();
  for (std::size_t b = 0; b < patterns.n_blocks();) {
    const std::size_t m = run(b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word valid = patterns.valid_mask(b + l);
      // Which patterns in this block show any PO difference?
      Word any_diff = kAllZero;
      for (std::size_t o = 0; o < pos.size(); ++o)
        any_diff |= (machine.value(pos[o], l) ^ good.word(b + l, o)) & valid;
      while (any_diff) {
        const int bit = std::countr_zero(any_diff);
        any_diff &= any_diff - 1;
        const std::size_t p = (b + l) * 64 + static_cast<std::size_t>(bit);
        std::fill(mask.begin(), mask.end(), kAllZero);
        for (std::size_t o = 0; o < pos.size(); ++o) {
          const Word d = machine.value(pos[o], l) ^ good.word(b + l, o);
          if ((d >> bit) & 1u) mask[o / 64] |= Word{1} << (o % 64);
        }
        sig.append(static_cast<std::uint32_t>(p), mask);
      }
    }
    b += m;
  }
  return sig;
}

/// Lowest pattern index whose PO response differs from `good` under the
/// fault set installed in `machine` (early exit per lane group).
template <typename Run>
std::optional<std::uint32_t> first_difference(const FaultyMachine& machine,
                                              const Netlist& netlist,
                                              const PatternSet& patterns,
                                              const PatternSet& good,
                                              Run run) {
  fsim_metrics().detect_queries.inc();
  const auto& pos = netlist.outputs();
  for (std::size_t b = 0; b < patterns.n_blocks();) {
    const std::size_t m = run(b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word valid = patterns.valid_mask(b + l);
      Word any = kAllZero;
      for (std::size_t o = 0; o < pos.size(); ++o)
        any |= (machine.value(pos[o], l) ^ good.word(b + l, o)) & valid;
      if (any)
        return static_cast<std::uint32_t>((b + l) * 64 +
                                          std::countr_zero(any));
    }
    b += m;
  }
  return std::nullopt;
}

double fraction_detected(std::span<const Fault> faults,
                         const std::function<bool(const Fault&)>& detects) {
  if (faults.empty()) return 1.0;
  std::size_t n = 0;
  for (const Fault& f : faults) n += detects(f);
  return static_cast<double>(n) / static_cast<double>(faults.size());
}

}  // namespace

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const PatternSet& patterns)
    : FaultSimulator(netlist, patterns, current_kernel()) {}

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const PatternSet& patterns,
                               const SimKernel& kernel)
    : netlist_(&netlist),
      patterns_(&patterns),
      good_(simulate(netlist, patterns, kernel)),
      machine_(netlist, kernel) {}

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const PatternSet& patterns, PatternSet good)
    : FaultSimulator(netlist, patterns, std::move(good), current_kernel()) {}

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const PatternSet& patterns, PatternSet good,
                               const SimKernel& kernel)
    : netlist_(&netlist),
      patterns_(&patterns),
      good_(std::move(good)),
      machine_(netlist, kernel) {
  if (good_.n_patterns() != patterns.n_patterns() ||
      good_.n_signals() != netlist.n_outputs())
    throw std::invalid_argument(
        "FaultSimulator: precomputed good response shape mismatch");
}

ErrorSignature FaultSimulator::signature(const Fault& fault) {
  return signature(std::span<const Fault>(&fault, 1));
}

ErrorSignature FaultSimulator::signature(std::span<const Fault> multiplet) {
  machine_.set_faults(multiplet);
  return diff_outputs(machine_, *netlist_, *patterns_, good_,
                      [&](std::size_t b) {
                        return machine_.run_wide(*patterns_, b);
                      });
}

bool FaultSimulator::detects(const Fault& fault) {
  return first_detecting_pattern(fault).has_value();
}

std::optional<std::uint32_t> FaultSimulator::first_detecting_pattern(
    const Fault& fault) {
  machine_.set_faults({&fault, 1});
  return first_difference(machine_, *netlist_, *patterns_, good_,
                          [&](std::size_t b) {
                            return machine_.run_wide(*patterns_, b);
                          });
}

std::vector<bool> FaultSimulator::detected(std::span<const Fault> faults) {
  std::vector<bool> out(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) out[i] = detects(faults[i]);
  return out;
}

double FaultSimulator::coverage(std::span<const Fault> faults) {
  return fraction_detected(faults,
                           [&](const Fault& f) { return detects(f); });
}

PairFaultSimulator::PairFaultSimulator(const Netlist& netlist,
                                       const PatternSet& launch,
                                       const PatternSet& capture)
    : PairFaultSimulator(netlist, launch, capture, current_kernel()) {}

PairFaultSimulator::PairFaultSimulator(const Netlist& netlist,
                                       const PatternSet& launch,
                                       const PatternSet& capture,
                                       const SimKernel& kernel)
    : netlist_(&netlist),
      launch_(&launch),
      capture_(&capture),
      machine_(netlist, kernel) {
  if (launch.n_patterns() != capture.n_patterns())
    throw std::invalid_argument("PairFaultSimulator: pair count mismatch");
  machine_.set_faults({});
  good_ = machine_.simulate_pair(launch, capture);
}

ErrorSignature PairFaultSimulator::signature(const Fault& fault) {
  return signature(std::span<const Fault>(&fault, 1));
}

ErrorSignature PairFaultSimulator::signature(std::span<const Fault> multiplet) {
  machine_.set_faults(multiplet);
  return diff_outputs(machine_, *netlist_, *capture_, good_,
                      [&](std::size_t b) {
                        return machine_.run_pair_wide(*launch_, *capture_, b);
                      });
}

bool PairFaultSimulator::detects(const Fault& fault) {
  return first_detecting_pair(fault).has_value();
}

std::optional<std::uint32_t> PairFaultSimulator::first_detecting_pair(
    const Fault& fault) {
  machine_.set_faults({&fault, 1});
  return first_difference(machine_, *netlist_, *capture_, good_,
                          [&](std::size_t b) {
                            return machine_.run_pair_wide(*launch_, *capture_,
                                                          b);
                          });
}

double PairFaultSimulator::coverage(std::span<const Fault> faults) {
  return fraction_detected(faults,
                           [&](const Fault& f) { return detects(f); });
}

}  // namespace mdd
