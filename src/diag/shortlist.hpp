// openmdd — residual-overlap index behind the multiplet search's shortlist.
//
// Every greedy round of diagnose_multiplet ranks candidates by how many
// error bits of the current residual (observed minus the composite found
// so far) their solo signatures also predict: the residual TFSF. The
// index answers that for all candidates at once. It is one contiguous CSR
// table keyed by (observed failing pattern, PO word); a key's row lists
// (candidate, solo word & observed word) for the non-zero words only.
//
// Every residual the search asks about is a subset of `observed`, so
// masking the solo words with observed leaves every overlap count
// unchanged — and it drops every word that could only ever contribute
// zero, which is most of them: solo signatures of candidates extracted
// from one datalog fail on many patterns the tester never saw fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fsim/fsim.hpp"

namespace mdd {

class ShortlistIndex {
 public:
  struct Overlap {
    std::uint32_t candidate;
    std::size_t tfsf;  ///< error bits shared with the residual (> 0)
  };

  /// Empty index over `observed`'s error bits for candidates numbered
  /// below `n_candidates`. The index keeps a reference to `observed`.
  ShortlistIndex(const ErrorSignature& observed, std::size_t n_candidates);

  /// Indexes one candidate's solo signature (same shape as observed;
  /// referenced, not copied, so it must outlive finish()). Each candidate
  /// at most once; call finish() after the last add. A candidate never
  /// added overlaps nothing (a deadline-truncated index simply holds
  /// fewer candidates).
  void add(std::uint32_t candidate, const ErrorSignature& solo);

  /// Builds the CSR table from the added signatures.
  void finish();

  /// Candidates whose solo signature shares at least one error bit with
  /// `residual`, with the shared-bit count, in unspecified order.
  /// `residual` must have observed's shape and be a subset of it; bits
  /// outside observed are not indexed and count as no overlap.
  std::vector<Overlap> overlaps(const ErrorSignature& residual);

 private:
  /// Calls f(key, solo word & observed word) for every non-zero word.
  template <class F>
  void for_each_word(const ErrorSignature& solo, F&& f) const;

  const ErrorSignature* observed_;
  std::size_t n_po_words_;
  /// Observed failing-pattern position of each pattern, -1 if it passes.
  std::vector<std::int32_t> observed_pos_;
  /// Signatures added since construction, consumed by finish().
  std::vector<std::pair<std::uint32_t, const ErrorSignature*>> added_;
  /// Per key (observed failing-pattern position * words + word) the first
  /// entry of its row, plus one sentinel; row sizes until finish().
  std::vector<std::uint32_t> row_begin_;
  std::vector<std::uint32_t> candidates_;
  std::vector<Word> bits_;
  std::vector<std::size_t> acc_;  ///< per candidate, zero between queries
  std::vector<std::uint32_t> touched_;
};

}  // namespace mdd
