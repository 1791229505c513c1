#include "diag/shortlist.hpp"

#include <bit>
#include <stdexcept>

namespace mdd {

ShortlistIndex::ShortlistIndex(const ErrorSignature& observed,
                               std::size_t n_candidates)
    : observed_(&observed),
      n_po_words_(observed.n_po_words()),
      observed_pos_(observed.n_patterns(), -1),
      row_begin_(observed.n_failing_patterns() * observed.n_po_words() + 1,
                 0),
      acc_(n_candidates, 0) {
  const auto& patterns = observed.failing_patterns();
  for (std::size_t k = 0; k < patterns.size(); ++k)
    observed_pos_[patterns[k]] = static_cast<std::int32_t>(k);
}

template <class F>
void ShortlistIndex::for_each_word(const ErrorSignature& solo, F&& f) const {
  const std::size_t nw = n_po_words_;
  for (std::size_t k = 0; k < solo.n_failing_patterns(); ++k) {
    const std::int32_t pos = observed_pos_[solo.failing_patterns()[k]];
    if (pos < 0) continue;
    const auto smask = solo.mask(k);
    const auto omask = observed_->mask(static_cast<std::size_t>(pos));
    for (std::size_t w = 0; w < nw; ++w) {
      const Word bits = smask[w] & omask[w];
      if (bits != kAllZero) f(static_cast<std::size_t>(pos) * nw + w, bits);
    }
  }
}

void ShortlistIndex::add(std::uint32_t candidate, const ErrorSignature& solo) {
  if (candidate >= acc_.size())
    throw std::out_of_range("ShortlistIndex::add: candidate out of range");
  added_.push_back({candidate, &solo});
  for_each_word(solo, [&](std::size_t key, Word) { ++row_begin_[key + 1]; });
}

void ShortlistIndex::finish() {
  // add() counted each row's entries, so the table is sized exactly and
  // filled in one more sweep over the same signatures: the index never
  // holds more than its final CSR (no staging copy of the entries).
  const std::size_t n_keys = row_begin_.size() - 1;
  for (std::size_t k = 0; k < n_keys; ++k) row_begin_[k + 1] += row_begin_[k];
  candidates_.resize(row_begin_[n_keys]);
  bits_.resize(row_begin_[n_keys]);
  std::vector<std::uint32_t> fill(row_begin_.begin(), row_begin_.end() - 1);
  for (const auto& [candidate, solo] : added_)
    for_each_word(*solo, [&](std::size_t key, Word bits) {
      const std::uint32_t at = fill[key]++;
      candidates_[at] = candidate;
      bits_[at] = bits;
    });
  added_ = {};
}

std::vector<ShortlistIndex::Overlap> ShortlistIndex::overlaps(
    const ErrorSignature& residual) {
  // Nothing indexed (or finish() not called yet): no overlaps.
  if (candidates_.empty()) return {};
  const std::size_t nw = n_po_words_;
  for (std::size_t k = 0; k < residual.n_failing_patterns(); ++k) {
    const std::int32_t pos = observed_pos_[residual.failing_patterns()[k]];
    if (pos < 0) continue;
    const auto rmask = residual.mask(k);
    for (std::size_t w = 0; w < nw; ++w) {
      const Word r = rmask[w];
      if (r == kAllZero) continue;
      const std::size_t key = static_cast<std::size_t>(pos) * nw + w;
      for (std::uint32_t e = row_begin_[key]; e < row_begin_[key + 1]; ++e) {
        const int overlap = std::popcount(r & bits_[e]);
        if (overlap == 0) continue;
        const std::uint32_t c = candidates_[e];
        if (acc_[c] == 0) touched_.push_back(c);
        acc_[c] += static_cast<std::size_t>(overlap);
      }
    }
  }
  std::vector<Overlap> out;
  out.reserve(touched_.size());
  for (std::uint32_t c : touched_) {
    out.push_back({c, acc_[c]});
    acc_[c] = 0;
  }
  touched_.clear();
  return out;
}

}  // namespace mdd
