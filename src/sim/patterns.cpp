#include "sim/patterns.hpp"

#include <cassert>
#include <stdexcept>

namespace mdd {

PatternSet::PatternSet(std::size_t n_patterns, std::size_t n_signals)
    : n_patterns_(n_patterns),
      n_signals_(n_signals),
      n_blocks_((n_patterns + 63) / 64),
      bits_(n_blocks_ * n_signals, kAllZero) {}

bool PatternSet::get(std::size_t pattern, std::size_t signal) const {
  assert(pattern < n_patterns_ && signal < n_signals_);
  return (word(pattern / 64, signal) >> (pattern % 64)) & 1u;
}

void PatternSet::set(std::size_t pattern, std::size_t signal, bool value) {
  assert(pattern < n_patterns_ && signal < n_signals_);
  Word& w = word(pattern / 64, signal);
  const Word m = Word{1} << (pattern % 64);
  if (value)
    w |= m;
  else
    w &= ~m;
}

std::vector<bool> PatternSet::pattern(std::size_t p) const {
  std::vector<bool> out(n_signals_);
  for (std::size_t s = 0; s < n_signals_; ++s) out[s] = get(p, s);
  return out;
}

std::vector<Word> PatternSet::gather(
    std::span<const std::uint32_t> patterns) const {
  if (patterns.size() > 64)
    throw std::invalid_argument("PatternSet::gather: more than 64 patterns");
  std::vector<Word> out(n_signals_, kAllZero);
  for (std::size_t slot = 0; slot < patterns.size(); ++slot) {
    const std::uint32_t p = patterns[slot];
    if (p >= n_patterns_)
      throw std::out_of_range("PatternSet::gather: pattern out of range");
    for (std::size_t s = 0; s < n_signals_; ++s)
      out[s] |= ((word(p / 64, s) >> (p % 64)) & 1u) << slot;
  }
  return out;
}

void PatternSet::append(const std::vector<bool>& values) {
  if (values.size() != n_signals_)
    throw std::invalid_argument("PatternSet::append: width mismatch");
  ++n_patterns_;
  const std::size_t need_blocks = (n_patterns_ + 63) / 64;
  if (need_blocks > n_blocks_) {
    n_blocks_ = need_blocks;
    bits_.resize(n_blocks_ * n_signals_, kAllZero);
  }
  for (std::size_t s = 0; s < n_signals_; ++s)
    set(n_patterns_ - 1, s, values[s]);
}

Word PatternSet::valid_mask(std::size_t block) const {
  assert(block < n_blocks_);
  if (block + 1 < n_blocks_ || n_patterns_ % 64 == 0) return kAllOne;
  return (Word{1} << (n_patterns_ % 64)) - 1;
}

PatternSet PatternSet::random(std::size_t n_patterns, std::size_t n_signals,
                              std::uint64_t seed) {
  PatternSet ps(n_patterns, n_signals);
  std::mt19937_64 rng(seed);
  for (std::size_t b = 0; b < ps.n_blocks(); ++b) {
    const Word mask = ps.valid_mask(b);
    for (std::size_t s = 0; s < n_signals; ++s)
      ps.word(b, s) = rng() & mask;
  }
  return ps;
}

PatternSet PatternSet::exhaustive(std::size_t n_signals) {
  if (n_signals > 20)
    throw std::invalid_argument("PatternSet::exhaustive: too many signals");
  const std::size_t n = std::size_t{1} << n_signals;
  PatternSet ps(n, n_signals);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t s = 0; s < n_signals; ++s)
      ps.set(p, s, (p >> s) & 1u);
  return ps;
}

std::string PatternSet::to_string(std::size_t pattern) const {
  std::string s(n_signals_, '0');
  for (std::size_t i = 0; i < n_signals_; ++i)
    if (get(pattern, i)) s[i] = '1';
  return s;
}

}  // namespace mdd
