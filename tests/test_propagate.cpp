// Unit tests: event-driven single-fault propagation (PPSFP engine).
//
// The defining property: for every supported fault kind the propagator's
// signature is bit-identical to the full faulty-machine simulation. Solo
// signatures of single-site faults are derived from a memoized flip of
// the site, so the tests also pin the memo (query orders that reuse,
// replace and interleave it) and the counters that report the work.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"

namespace mdd {
namespace {

TEST(Propagator, MatchesFaultyMachineForStuckAt) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(200, nl.n_inputs(), 11);
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  EXPECT_EQ(prop.good_response(), reference.good_response());
  for (const Fault& f : all_stuck_at_faults(nl)) {
    ASSERT_EQ(prop.signature(f), reference.signature(f)) << to_string(f, nl);
  }
}

TEST(Propagator, MatchesFaultyMachineForBridges) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(200, nl.n_inputs(), 12);
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  BridgeUniverseConfig cfg;
  cfg.count = 40;
  cfg.seed = 3;
  for (const Fault& f : sample_bridge_faults(nl, cfg)) {
    ASSERT_EQ(prop.signature(f), reference.signature(f)) << to_string(f, nl);
  }
}

TEST(Propagator, FeedbackBridgeFallsBackExactly) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  obs::Counter& fallbacks = obs::registry().counter("propagate.fallbacks");
  // 11 feeds 16, so the pair is a feedback pair either way round. With
  // victim 16 the aggressor 11 is upstream and cannot see the fault: the
  // single-site path answers it.
  const Fault upstream =
      Fault::bridge_dom(nl.find_net("16"), nl.find_net("11"));
  std::uint64_t before = fallbacks.value();
  EXPECT_EQ(prop.signature(upstream), reference.signature(upstream));
  EXPECT_EQ(fallbacks.value(), before);
  // With victim 11 the aggressor 16 lies in the victim's fan-out cone:
  // the exact fixpoint machine must answer it.
  const Fault loop = Fault::bridge_dom(nl.find_net("11"), nl.find_net("16"));
  ASSERT_TRUE(is_feedback_pair(nl, loop.net, loop.bridge_net));
  before = fallbacks.value();
  EXPECT_EQ(prop.signature(loop), reference.signature(loop));
  EXPECT_GT(fallbacks.value(), before);
}

TEST(Propagator, MatchesPairMachineForTransitions) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet launch = PatternSet::random(150, nl.n_inputs(), 13);
  const PatternSet capture = PatternSet::random(150, nl.n_inputs(), 14);
  PairFaultSimulator reference(nl, launch, capture);
  SingleFaultPropagator prop(nl, launch, capture);
  EXPECT_EQ(prop.good_response(), reference.good_response());
  std::mt19937_64 rng(9);
  for (int iter = 0; iter < 60; ++iter) {
    const NetId n = rng() % nl.n_nets();
    const Fault f =
        (rng() & 1) ? Fault::slow_to_rise(n) : Fault::slow_to_fall(n);
    ASSERT_EQ(prop.signature(f), reference.signature(f)) << to_string(f, nl);
  }
  // Static faults under pair testing too.
  for (int iter = 0; iter < 40; ++iter) {
    const Fault f = Fault::stem_sa(rng() % nl.n_nets(), rng() & 1);
    ASSERT_EQ(prop.signature(f), reference.signature(f)) << to_string(f, nl);
  }
}

TEST(Propagator, StateCleanBetweenQueries) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  SingleFaultPropagator prop(nl, patterns);
  const Fault a = Fault::stem_sa(nl.find_net("11"), true);
  const Fault b = Fault::stem_sa(nl.find_net("10"), false);
  const ErrorSignature sa1 = prop.signature(a);
  prop.signature(b);
  EXPECT_EQ(prop.signature(a), sa1);  // no state leakage
}

// ---- site-flip derivation --------------------------------------------------

/// Every fault kind, clustered on a few sites so consecutive queries share
/// a site (the memo's hit path) and change sites (its miss path): stem and
/// branch stuck-ats, dominant bridges with the aggressor upstream,
/// unrelated or downstream (feedback) of the victim, wired AND/OR, and —
/// when `transitions` — slow-to-rise/fall.
std::vector<Fault> clustered_faults(const Netlist& nl, std::size_t n_sites,
                                    bool transitions, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Fault> faults;
  for (std::size_t k = 0; k < n_sites; ++k) {
    const NetId site = static_cast<NetId>(rng() % nl.n_nets());
    faults.push_back(Fault::stem_sa(site, false));
    faults.push_back(Fault::stem_sa(site, true));
    const auto fi = nl.fanins(site);
    for (std::uint32_t pin = 0; pin < fi.size(); ++pin)
      faults.push_back(Fault::branch_sa(site, pin, rng() % 2 == 0));
    for (int j = 0; j < 4; ++j) {
      const NetId other = static_cast<NetId>(rng() % nl.n_nets());
      if (other != site) faults.push_back(Fault::bridge_dom(site, other));
    }
    // A fan-out net of the site as aggressor: a feedback dominant bridge.
    if (!nl.fanouts(site).empty())
      faults.push_back(Fault::bridge_dom(site, nl.fanouts(site).front()));
    // And a fan-in net: the aggressor is upstream, still single-site.
    if (!fi.empty()) faults.push_back(Fault::bridge_dom(site, fi.front()));
    const NetId other = static_cast<NetId>(rng() % nl.n_nets());
    if (other != site) {
      faults.push_back(Fault::bridge_wand(site, other));
      faults.push_back(Fault::bridge_wor(site, other));
    }
    if (!nl.fanouts(site).empty())
      faults.push_back(Fault::bridge_wor(site, nl.fanouts(site).front()));
    if (transitions) {
      faults.push_back(Fault::slow_to_rise(site));
      faults.push_back(Fault::slow_to_fall(site));
    }
  }
  return faults;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

/// More 64-pattern blocks than the widest kernel has lanes, with a ragged
/// tail: a flip spans several lane groups on every kernel.
constexpr std::size_t kMultiGroupPatterns = 1100;

TEST(SiteFlip, DerivedSolosMatchReferenceOnEveryKernel) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns =
      PatternSet::random(kMultiGroupPatterns, nl.n_inputs(), 41);
  FaultSimulator reference(nl, patterns, scalar_kernel());
  const std::vector<Fault> faults = clustered_faults(nl, 24, false, 5);
  std::vector<ErrorSignature> expected;
  for (const Fault& f : faults) expected.push_back(reference.signature(f));
  for (const SimKernel* kernel : available_kernels()) {
    SCOPED_TRACE(std::string("kernel=") + kernel->name);
    ASSERT_GT(patterns.n_blocks(), 2 * kernel->lanes);
    SingleFaultPropagator prop(nl, patterns, *kernel);
    const std::uint64_t fallbacks = counter("propagate.fallbacks");
    for (std::size_t i = 0; i < faults.size(); ++i)
      ASSERT_EQ(prop.signature(faults[i]), expected[i])
          << to_string(faults[i], nl);
    // The mix really exercises the feedback route.
    EXPECT_GT(counter("propagate.fallbacks"), fallbacks);
  }
}

TEST(SiteFlip, DerivedPairSolosMatchReferenceOnEveryKernel) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet launch =
      PatternSet::random(kMultiGroupPatterns, nl.n_inputs(), 42);
  const PatternSet capture =
      PatternSet::random(kMultiGroupPatterns, nl.n_inputs(), 43);
  PairFaultSimulator reference(nl, launch, capture, scalar_kernel());
  const std::vector<Fault> faults = clustered_faults(nl, 16, true, 6);
  std::vector<ErrorSignature> expected;
  for (const Fault& f : faults) expected.push_back(reference.signature(f));
  for (const SimKernel* kernel : available_kernels()) {
    SCOPED_TRACE(std::string("kernel=") + kernel->name);
    SingleFaultPropagator prop(nl, launch, capture, *kernel);
    for (std::size_t i = 0; i < faults.size(); ++i)
      ASSERT_EQ(prop.signature(faults[i]), expected[i])
          << to_string(faults[i], nl);
  }
}

TEST(SiteFlip, MemoSurvivesSiteChangesAndCompositeQueries) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(300, nl.n_inputs(), 44);
  FaultSimulator reference(nl, patterns);
  // Two gates with fan-out; primary inputs as aggressors lie in no cone.
  std::vector<NetId> gates;
  for (NetId n = 0; n < nl.n_nets() && gates.size() < 2; ++n)
    if (n >= nl.n_nets() / 3 && !nl.fanins(n).empty() &&
        !nl.fanouts(n).empty())
      gates.push_back(n);
  ASSERT_EQ(gates.size(), 2u);
  const NetId a = gates[0];
  const NetId b = gates[1];
  const Fault a0 = Fault::stem_sa(a, false);
  const Fault a1 = Fault::stem_sa(a, true);
  const Fault b1 = Fault::stem_sa(b, true);
  const Fault a_dom = Fault::bridge_dom(a, nl.inputs()[0]);

  // First query on a fresh propagator: flips its site once.
  SingleFaultPropagator prop(nl, patterns);
  std::uint64_t flips = counter("propagate.site_flips");
  EXPECT_EQ(prop.signature(a0), reference.signature(a0));
  EXPECT_EQ(counter("propagate.site_flips"), flips + 1);

  // A, B, A: each site change replaces the one-entry memo.
  flips = counter("propagate.site_flips");
  EXPECT_EQ(prop.signature(b1), reference.signature(b1));
  EXPECT_EQ(prop.signature(a1), reference.signature(a1));
  EXPECT_EQ(counter("propagate.site_flips"), flips + 2);

  // A composite between two solos of one site leaves the memo valid: the
  // second solo is derived without another flip, and still exact.
  const std::vector<Fault> multiplet{b1, Fault::bridge_wand(a, nl.inputs()[1])};
  EXPECT_EQ(prop.signature(multiplet), reference.signature(multiplet));
  flips = counter("propagate.site_flips");
  EXPECT_EQ(prop.signature(a_dom), reference.signature(a_dom));
  EXPECT_EQ(prop.signature(a0), reference.signature(a0));
  EXPECT_EQ(counter("propagate.site_flips"), flips);
}

TEST(SiteFlip, CountersKeepTheirMeaning) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  FaultSimulator reference(nl, patterns);
  const std::uint64_t n = patterns.n_patterns();
  const NetId n16 = nl.find_net("16");
  const NetId n11 = nl.find_net("11");
  const NetId n10 = nl.find_net("10");
  struct Delta {
    std::uint64_t queries, flips, patterns, fallbacks, comp, comp_fallbacks;
  };
  auto snap = [] {
    return Delta{counter("propagate.queries"),
                 counter("propagate.site_flips"),
                 counter("propagate.patterns_simulated"),
                 counter("propagate.fallbacks"),
                 counter("propagate.composite_queries"),
                 counter("propagate.composite_fallbacks")};
  };
  auto since = [&](const Delta& d) {
    const Delta now = snap();
    return Delta{now.queries - d.queries, now.flips - d.flips,
                 now.patterns - d.patterns, now.fallbacks - d.fallbacks,
                 now.comp - d.comp, now.comp_fallbacks - d.comp_fallbacks};
  };
  SingleFaultPropagator prop(nl, patterns);

  // Three faults on one site: three solo queries, one flip.
  Delta d = snap();
  for (const Fault& f : {Fault::stem_sa(n16, false), Fault::stem_sa(n16, true),
                         Fault::bridge_dom(n16, n10)})
    EXPECT_EQ(prop.signature(f), reference.signature(f));
  Delta got = since(d);
  EXPECT_EQ(got.queries, 3u);
  EXPECT_EQ(got.flips, 1u);
  EXPECT_EQ(got.patterns, n);
  EXPECT_EQ(got.comp, 0u);

  // A non-feedback wired bridge is a solo query that runs one composite
  // propagation, without counting as a composite query.
  d = snap();
  const Fault wired = Fault::bridge_wor(n10, n11);
  EXPECT_EQ(prop.signature(wired), reference.signature(wired));
  got = since(d);
  EXPECT_EQ(got.queries, 1u);
  EXPECT_EQ(got.flips, 0u);
  EXPECT_EQ(got.patterns, n);
  EXPECT_EQ(got.fallbacks, 0u);
  EXPECT_EQ(got.comp, 0u);
  EXPECT_EQ(got.comp_fallbacks, 0u);

  // A feedback dominant bridge (11 feeds 16) falls back as a solo.
  d = snap();
  const Fault feedback = Fault::bridge_dom(n11, n16);
  EXPECT_EQ(prop.signature(feedback), reference.signature(feedback));
  got = since(d);
  EXPECT_EQ(got.queries, 1u);
  EXPECT_EQ(got.fallbacks, 1u);
  EXPECT_EQ(got.patterns, 0u);
  EXPECT_EQ(got.comp, 0u);
  EXPECT_EQ(got.comp_fallbacks, 0u);

  // Multiplets count as composite queries only.
  d = snap();
  const std::vector<Fault> multiplet{Fault::stem_sa(n10, true), feedback};
  EXPECT_EQ(prop.signature(multiplet), reference.signature(multiplet));
  got = since(d);
  EXPECT_EQ(got.queries, 0u);
  EXPECT_EQ(got.comp, 1u);
  EXPECT_EQ(got.comp_fallbacks, 1u);
  EXPECT_EQ(got.fallbacks, 0u);
}

TEST(SiteFlip, UnexcitedFaultsNeedNoFlip) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  SingleFaultPropagator prop(nl, patterns);
  const std::uint64_t flips = counter("propagate.site_flips");
  // Transition faults are inert under single-frame patterns.
  EXPECT_TRUE(prop.signature(Fault::slow_to_rise(nl.find_net("16"))).empty());
  EXPECT_TRUE(prop.signature(Fault::slow_to_fall(nl.find_net("16"))).empty());
  EXPECT_EQ(counter("propagate.site_flips"), flips);
}

}  // namespace
}  // namespace mdd
