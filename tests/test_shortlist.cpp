// Unit tests: the multiplet search's residual-overlap index
// (diag/shortlist.hpp) against a naive per-candidate TFSF oracle.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "diag/diagnosis.hpp"
#include "diag/shortlist.hpp"
#include "netlist/generator.hpp"

namespace mdd {
namespace {

/// Random signature of the given shape: each pattern fails with
/// probability `p_fail`, each output bit of a failing pattern is set with
/// probability `p_bit` (at least one bit per failing pattern).
ErrorSignature random_signature(std::size_t n_patterns, std::size_t n_outputs,
                                double p_fail, double p_bit,
                                std::mt19937_64& rng) {
  std::bernoulli_distribution fail(p_fail), bit(p_bit);
  ErrorSignature sig(n_patterns, n_outputs);
  std::vector<Word> mask(sig.n_po_words());
  for (std::uint32_t p = 0; p < n_patterns; ++p) {
    if (!fail(rng)) continue;
    std::fill(mask.begin(), mask.end(), kAllZero);
    for (std::size_t o = 0; o < n_outputs; ++o)
      if (bit(rng)) mask[o / 64] |= Word{1} << (o % 64);
    const std::size_t o = rng() % n_outputs;
    mask[o / 64] |= Word{1} << (o % 64);
    sig.append(p, mask);
  }
  return sig;
}

/// candidate -> TFSF against `residual`, for every indexed candidate with
/// a non-zero count.
std::map<std::uint32_t, std::size_t> oracle(
    const ErrorSignature& residual, const std::vector<ErrorSignature>& solos,
    std::size_t n_indexed) {
  std::map<std::uint32_t, std::size_t> out;
  for (std::size_t i = 0; i < n_indexed; ++i) {
    const std::size_t tfsf = match(residual, solos[i]).tfsf;
    if (tfsf > 0) out[static_cast<std::uint32_t>(i)] = tfsf;
  }
  return out;
}

std::map<std::uint32_t, std::size_t> from_index(ShortlistIndex& index,
                                                const ErrorSignature& residual) {
  std::map<std::uint32_t, std::size_t> out;
  for (const ShortlistIndex::Overlap& o : index.overlaps(residual)) {
    EXPECT_GT(o.tfsf, 0u);
    EXPECT_TRUE(out.emplace(o.candidate, o.tfsf).second)
        << "candidate " << o.candidate << " reported twice";
  }
  return out;
}

/// Residuals the search asks about: observed itself and observed minus
/// random "composites" (which also carry bits outside observed).
std::vector<ErrorSignature> residuals_of(const ErrorSignature& observed,
                                         std::mt19937_64& rng) {
  std::vector<ErrorSignature> out{observed};
  for (double p_fail : {0.2, 0.5, 0.9}) {
    const ErrorSignature composite = random_signature(
        observed.n_patterns(), observed.n_outputs(), p_fail, 0.3, rng);
    out.push_back(signature_difference(observed, composite));
  }
  out.push_back(signature_difference(observed, observed));  // empty
  return out;
}

TEST(ShortlistIndex, MatchesNaiveTfsfOnRandomSignatures) {
  std::mt19937_64 rng(0x5107);
  // 150 outputs: three PO words, the last one partial.
  for (std::size_t n_outputs : {150u, 64u, 7u}) {
    SCOPED_TRACE("n_outputs=" + std::to_string(n_outputs));
    const std::size_t n_patterns = 300;
    const ErrorSignature observed =
        random_signature(n_patterns, n_outputs, 0.3, 0.1, rng);
    // Solos fail well beyond observed: other patterns and other outputs.
    std::vector<ErrorSignature> solos;
    for (std::size_t i = 0; i < 120; ++i)
      solos.push_back(random_signature(n_patterns, n_outputs,
                                       0.05 + 0.005 * static_cast<double>(i),
                                       0.2, rng));
    solos.emplace_back(n_patterns, n_outputs);  // a candidate with no bits

    ShortlistIndex index(observed, solos.size());
    for (std::size_t i = 0; i < solos.size(); ++i)
      index.add(static_cast<std::uint32_t>(i), solos[i]);
    index.finish();
    for (const ErrorSignature& residual : residuals_of(observed, rng))
      EXPECT_EQ(from_index(index, residual),
                oracle(residual, solos, solos.size()));
    // Repeated queries see a clean accumulator.
    EXPECT_EQ(from_index(index, observed),
              oracle(observed, solos, solos.size()));
  }
}

TEST(ShortlistIndex, PartialIndexCoversOnlyAddedCandidates) {
  // A deadline that trips while the index is built leaves only a prefix
  // of the candidates indexed; the rest must overlap nothing.
  std::mt19937_64 rng(0x7A27);
  const ErrorSignature observed = random_signature(200, 130, 0.4, 0.1, rng);
  std::vector<ErrorSignature> solos;
  for (std::size_t i = 0; i < 80; ++i)
    solos.push_back(random_signature(200, 130, 0.3, 0.15, rng));
  for (std::size_t cutoff : {0u, 1u, 37u, 80u}) {
    SCOPED_TRACE("cutoff=" + std::to_string(cutoff));
    ShortlistIndex index(observed, solos.size());
    for (std::size_t i = 0; i < cutoff; ++i)
      index.add(static_cast<std::uint32_t>(i), solos[i]);
    index.finish();
    for (const ErrorSignature& residual : residuals_of(observed, rng))
      EXPECT_EQ(from_index(index, residual), oracle(residual, solos, cutoff));
  }
}

TEST(ShortlistIndex, UnfinishedIndexOverlapsNothing) {
  std::mt19937_64 rng(3);
  const ErrorSignature observed = random_signature(64, 70, 0.5, 0.2, rng);
  ShortlistIndex index(observed, 1);
  index.add(0, observed);
  EXPECT_TRUE(index.overlaps(observed).empty());
  index.finish();
  ASSERT_EQ(index.overlaps(observed).size(), 1u);
  EXPECT_EQ(index.overlaps(observed)[0].tfsf, observed.n_error_bits());
}

TEST(ShortlistIndex, MatchesNaiveTfsfOnXMaskedContext) {
  // A real context whose datalog X-masks a fifth of the observations:
  // observed and the solos both lose the masked bits, and the residuals
  // are observed minus exact composites.
  RandomCircuitConfig cfg;
  cfg.n_inputs = 24;
  cfg.n_gates = 300;
  cfg.n_outputs = 80;  // two PO words
  cfg.locality = 96;
  cfg.xor_fraction = 0.35;
  cfg.seed = 0x3A5C;
  const Netlist nl = make_random_circuit(cfg);
  const PatternSet patterns = PatternSet::random(256, nl.n_inputs(), 41);
  FaultSimulator fsim(nl, patterns);

  std::mt19937_64 rng(0xD1A6);
  std::size_t contexts = 0;
  for (int attempt = 0; attempt < 40 && contexts < 3; ++attempt) {
    const std::vector<Fault> defect{
        Fault::stem_sa(static_cast<NetId>(rng() % nl.n_nets()), rng() % 2),
        Fault::stem_sa(static_cast<NetId>(rng() % nl.n_nets()), rng() % 2)};
    DatalogOptions opt;
    opt.x_mask_fraction = 0.2;
    opt.x_mask_seed = rng();
    const Datalog log = datalog_from_defect(nl, defect, patterns,
                                            fsim.good_response(), opt);
    if (!log.has_failures() || log.masked.empty()) continue;
    ++contexts;

    DiagnosisContext ctx(nl, patterns, log);
    ASSERT_GE(ctx.observed().n_po_words(), 2u);
    std::vector<ErrorSignature> solos;
    ShortlistIndex index(ctx.observed(), ctx.n_candidates());
    for (std::size_t i = 0; i < ctx.n_candidates(); ++i) {
      solos.push_back(ctx.solo_signature(i));
      index.add(static_cast<std::uint32_t>(i), ctx.solo_signature(i));
    }
    index.finish();

    std::vector<ErrorSignature> residuals{ctx.observed()};
    for (std::size_t k = 0; k + 1 < std::min<std::size_t>(ctx.n_candidates(), 6);
         ++k) {
      const std::vector<Fault> pair{ctx.candidate(k), ctx.candidate(k + 1)};
      residuals.push_back(
          signature_difference(ctx.observed(), ctx.multiplet_signature(pair)));
    }
    for (const ErrorSignature& residual : residuals)
      EXPECT_EQ(from_index(index, residual),
                oracle(residual, solos, solos.size()));
  }
  EXPECT_EQ(contexts, 3u) << "too few failing X-masked datalogs drawn";
}

}  // namespace
}  // namespace mdd
