// Unit tests: PODEM and the test-generation flow.
#include <gtest/gtest.h>

#include "atpg/tpg.hpp"
#include "fault/collapse.hpp"
#include "netlist/generator.hpp"

namespace mdd {
namespace {

/// Verifies a claimed test pattern by simulation.
bool pattern_detects(const Netlist& nl, const Fault& f,
                     const std::vector<bool>& pattern) {
  PatternSet ps(0, nl.n_inputs());
  ps.append(pattern);
  FaultSimulator fsim(nl, ps);
  return fsim.detects(f);
}

class PodemOnCircuit : public ::testing::TestWithParam<const char*> {};

/// Property: every PODEM "Detected" result carries a pattern that really
/// detects the fault; collapsed representatives only (equivalent faults
/// share tests).
TEST_P(PodemOnCircuit, DetectedPatternsAreValid) {
  const Netlist nl = make_named_circuit(GetParam());
  const CollapsedFaults cf(nl);
  Podem podem(nl, {200});
  std::size_t n_detected = 0;
  for (const Fault& f : cf.representatives()) {
    const PodemResult r = podem.generate(f);
    if (r.outcome != PodemOutcome::Detected) continue;
    ++n_detected;
    std::vector<bool> pattern(r.pattern.size());
    for (std::size_t i = 0; i < r.pattern.size(); ++i)
      pattern[i] = r.pattern[i] == Val3::X ? false : v3_to_bool(r.pattern[i]);
    ASSERT_TRUE(pattern_detects(nl, f, pattern)) << to_string(f, nl);
  }
  // PODEM must handle the large majority of testable faults.
  EXPECT_GE(n_detected * 10, cf.representatives().size() * 8);
}

INSTANTIATE_TEST_SUITE_P(Circuits, PodemOnCircuit,
                         ::testing::Values("c17", "add8", "mux16"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(Podem, C17AllFaultsTestable) {
  const Netlist nl = make_c17();
  const CollapsedFaults cf(nl);
  Podem podem(nl, {500});
  for (const Fault& f : cf.representatives()) {
    const PodemResult r = podem.generate(f);
    EXPECT_EQ(r.outcome, PodemOutcome::Detected) << to_string(f, nl);
  }
}

TEST(Podem, FindsRedundantFault) {
  // z = a | !a is constantly 1 -> z SA1 is untestable; also the inputs of
  // the OR can never make it 0.
  Netlist nl("red");
  const NetId a = nl.add_input("a");
  const NetId na = nl.add_gate(GateKind::Not, {a}, "na");
  const NetId z = nl.add_gate(GateKind::Or, {a, na}, "z");
  nl.mark_output(z);
  nl.finalize();
  Podem podem(nl, {1000});
  EXPECT_EQ(podem.generate(Fault::stem_sa(z, true)).outcome,
            PodemOutcome::Untestable);
  EXPECT_EQ(podem.generate(Fault::stem_sa(z, false)).outcome,
            PodemOutcome::Detected);
}

TEST(Podem, BranchFaults) {
  const Netlist nl = make_c17();
  // Branch 16.pin1 (from net 11) SA1.
  const Fault f = Fault::branch_sa(nl.find_net("16"), 1, true);
  Podem podem(nl);
  const PodemResult r = podem.generate(f);
  ASSERT_EQ(r.outcome, PodemOutcome::Detected);
  std::vector<bool> pattern(r.pattern.size());
  for (std::size_t i = 0; i < r.pattern.size(); ++i)
    pattern[i] = r.pattern[i] == Val3::X ? true : v3_to_bool(r.pattern[i]);
  EXPECT_TRUE(pattern_detects(nl, f, pattern));
}

TEST(Podem, RejectsBridgeFaults) {
  const Netlist nl = make_c17();
  Podem podem(nl);
  EXPECT_THROW(podem.generate(Fault::bridge_dom(0, 1)),
               std::invalid_argument);
}

TEST(GenerateTests, FullCoverageOnSmallCircuits) {
  for (const char* name : {"c17", "add8"}) {
    const Netlist nl = make_named_circuit(name);
    TpgOptions opt;
    opt.random_batch = 64;
    opt.max_random_rounds = 4;
    const TpgResult r = generate_tests(nl, opt);
    EXPECT_DOUBLE_EQ(r.effective_coverage(), 1.0) << name;
    EXPECT_EQ(r.n_aborted, 0u) << name;
    EXPECT_GT(r.patterns.n_patterns(), 0u) << name;
  }
}

TEST(GenerateTests, Deterministic) {
  const Netlist nl = make_named_circuit("g200");
  TpgOptions opt;
  opt.seed = 11;
  const TpgResult a = generate_tests(nl, opt);
  const TpgResult b = generate_tests(nl, opt);
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.n_detected, b.n_detected);
}

TEST(GenerateTests, RandomOnlyMode) {
  const Netlist nl = make_named_circuit("g200");
  TpgOptions opt;
  opt.run_podem = false;
  const TpgResult r = generate_tests(nl, opt);
  // g200 is deliberately deep (locality window) — random-resistant faults
  // abound, which is exactly why phase 2 exists.
  EXPECT_GT(r.coverage(), 0.5);
  EXPECT_EQ(r.n_untestable, 0u);  // PODEM never ran
}

TEST(GenerateTests, PodemImprovesOverRandomOnly) {
  const Netlist nl = make_named_circuit("mux16");
  TpgOptions ro;
  ro.run_podem = false;
  ro.max_random_rounds = 2;
  ro.random_batch = 32;
  TpgOptions full = ro;
  full.run_podem = true;
  const TpgResult a = generate_tests(nl, ro);
  const TpgResult b = generate_tests(nl, full);
  EXPECT_GE(b.coverage(), a.coverage());
}

TEST(CompactReverse, PreservesCoverageAndShrinks) {
  const Netlist nl = make_named_circuit("add8");
  const CollapsedFaults cf(nl);
  const PatternSet patterns = PatternSet::random(256, nl.n_inputs(), 13);
  FaultSimulator before(nl, patterns);
  std::vector<Fault> detected;
  for (const Fault& f : cf.representatives())
    if (before.detects(f)) detected.push_back(f);

  const PatternSet compacted = compact_reverse(nl, patterns, detected);
  EXPECT_LT(compacted.n_patterns(), patterns.n_patterns());
  FaultSimulator after(nl, compacted);
  for (const Fault& f : detected)
    EXPECT_TRUE(after.detects(f)) << to_string(f, nl);
}

/// FNV-1a over a pattern set's shape and valid bits.
std::uint64_t pattern_digest(const PatternSet& ps) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(ps.n_patterns());
  mix(ps.n_signals());
  for (std::size_t b = 0; b < ps.n_blocks(); ++b)
    for (std::size_t s = 0; s < ps.n_signals(); ++s)
      mix(ps.word(b, s) & ps.valid_mask(b));
  return h;
}

/// The test-generation flows fault-drop with the event-driven propagator;
/// their output is pinned to golden digests so any change in a solo
/// signature the flows consume (which pattern first detects which fault)
/// shows up as a different pattern set.
TEST(GenerateTests, PatternSetsMatchGoldenDigests) {
  struct Golden {
    const char* circuit;
    std::size_t n_patterns, n_detected, n_untestable, n_aborted;
    std::uint64_t digest;
  };
  for (const Golden& g : {Golden{"c17", 6, 22, 0, 0, 0xe2f0102460dbc8c5ull},
                          Golden{"g200", 71, 837, 95, 47,
                                 0xa11438c4868af7c0ull}}) {
    SCOPED_TRACE(g.circuit);
    const TpgResult r = generate_tests(make_named_circuit(g.circuit));
    EXPECT_EQ(r.patterns.n_patterns(), g.n_patterns);
    EXPECT_EQ(r.n_detected, g.n_detected);
    EXPECT_EQ(r.n_untestable, g.n_untestable);
    EXPECT_EQ(r.n_aborted, g.n_aborted);
    EXPECT_EQ(pattern_digest(r.patterns), g.digest);
  }
}

TEST(GenerateTdfTests, PairSetsMatchGoldenDigests) {
  struct Golden {
    const char* circuit;
    std::size_t n_pairs, n_detected;
    std::uint64_t launch, capture;
  };
  for (const Golden& g :
       {Golden{"c17", 9, 22, 0x82cb228aaa066191ull, 0x1cf17e2faef42116ull},
        Golden{"g200", 62, 357, 0x2765f43f2def1c1full,
               0xf79f7b48e14d68daull}}) {
    SCOPED_TRACE(g.circuit);
    const TdfTpgResult r = generate_tdf_tests(make_named_circuit(g.circuit));
    EXPECT_EQ(r.capture.n_patterns(), g.n_pairs);
    EXPECT_EQ(r.n_detected, g.n_detected);
    EXPECT_EQ(pattern_digest(r.launch), g.launch);
    EXPECT_EQ(pattern_digest(r.capture), g.capture);
  }
}

}  // namespace
}  // namespace mdd
