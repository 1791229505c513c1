// openmdd — test pattern and response containers.
//
// `PatternSet` is a bit-packed (patterns x signals) matrix stored
// block-major: patterns are grouped into blocks of 64 so each (block,
// signal) cell is one machine word holding the signal's value across 64
// consecutive patterns — the native layout of the bit-parallel simulators.
// The same container holds input stimuli (signals = PIs) and output
// responses (signals = POs).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "netlist/logic.hpp"

namespace mdd {

class PatternSet {
 public:
  PatternSet() = default;
  PatternSet(std::size_t n_patterns, std::size_t n_signals);

  std::size_t n_patterns() const { return n_patterns_; }
  std::size_t n_signals() const { return n_signals_; }
  std::size_t n_blocks() const { return n_blocks_; }

  /// Word holding patterns [64*block, 64*block+63] of `signal`.
  Word word(std::size_t block, std::size_t signal) const {
    return bits_[block * n_signals_ + signal];
  }
  Word& word(std::size_t block, std::size_t signal) {
    return bits_[block * n_signals_ + signal];
  }

  bool get(std::size_t pattern, std::size_t signal) const;
  void set(std::size_t pattern, std::size_t signal, bool value);

  /// All signal values of one pattern.
  std::vector<bool> pattern(std::size_t p) const;

  /// Packs pattern `patterns[s]` into bit s of one word per signal (at
  /// most 64 patterns; higher bits zero) — the explicit-PI-word form
  /// BlockSim::run takes.
  std::vector<Word> gather(std::span<const std::uint32_t> patterns) const;

  /// Appends one pattern (values.size() == n_signals). Grows blocks as
  /// needed.
  void append(const std::vector<bool>& values);

  /// Mask with a 1 for every valid pattern position inside `block`
  /// (the last block may be partial).
  Word valid_mask(std::size_t block) const;

  /// Uniform random fill, deterministic in `seed`.
  static PatternSet random(std::size_t n_patterns, std::size_t n_signals,
                           std::uint64_t seed);

  /// All 2^n_signals input combinations (n_signals <= 20).
  static PatternSet exhaustive(std::size_t n_signals);

  /// Compact "010X..."-free binary string of one pattern (debug aid).
  std::string to_string(std::size_t pattern) const;

  bool operator==(const PatternSet&) const = default;

 private:
  std::size_t n_patterns_ = 0;
  std::size_t n_signals_ = 0;
  std::size_t n_blocks_ = 0;
  std::vector<Word> bits_;  // [block][signal]
};

}  // namespace mdd
