// Unit tests: critical path tracing.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "fault/inject.hpp"
#include "fsim/cpt.hpp"
#include "netlist/generator.hpp"
#include "sim/sim2.hpp"

namespace mdd {
namespace {

/// Brute-force criticality: does forcing net n to its complement flip PO
/// `po` under this pattern?
bool brute_critical(const Netlist& nl, const PatternSet& stimuli,
                    std::size_t p, NetId n, std::uint32_t po) {
  EventSim sim(nl);
  sim.apply(stimuli, p);
  const auto observed = sim.flip_observed_outputs(n);
  return std::binary_search(observed.begin(), observed.end(), po);
}

/// Soundness: every net CPT reports critical really flips the PO.
TEST(CPT, SoundnessOnRandomCircuits) {
  for (std::uint64_t seed : {61ull, 62ull}) {
    RandomCircuitConfig cfg;
    cfg.n_inputs = 10;
    cfg.n_gates = 100;
    cfg.n_outputs = 6;
    cfg.seed = seed;
    const Netlist nl = make_random_circuit(cfg);
    const PatternSet stimuli = PatternSet::random(16, nl.n_inputs(), seed);
    EventSim sim(nl);
    CriticalPathTracer cpt(nl);
    for (std::size_t p = 0; p < stimuli.n_patterns(); ++p) {
      sim.apply(stimuli, p);
      for (std::uint32_t po = 0; po < nl.n_outputs(); ++po) {
        for (NetId n : cpt.critical_nets(sim, po)) {
          ASSERT_TRUE(brute_critical(nl, stimuli, p, n, po))
              << "seed " << seed << " p " << p << " po " << po << " net "
              << nl.net_name(n);
        }
      }
    }
  }
}

/// Completeness on fanout-free circuits: CPT's per-gate rules are exact
/// when there is no reconvergence, so the critical set must equal the
/// brute-force set.
TEST(CPT, CompleteOnFanoutFreeTree) {
  const Netlist nl = make_parity_tree(32);
  const PatternSet stimuli = PatternSet::random(8, nl.n_inputs(), 9);
  EventSim sim(nl);
  CriticalPathTracer cpt(nl);
  for (std::size_t p = 0; p < 8; ++p) {
    sim.apply(stimuli, p);
    const auto critical = cpt.critical_nets(sim, 0);
    // XOR tree: every net is critical on every pattern.
    EXPECT_EQ(critical.size(), nl.n_nets());
  }
}

TEST(CPT, CompleteOnAndChain) {
  // z = a & b & c & d as a chain; criticality depends on values.
  Netlist nl("chain");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId d = nl.add_input("d");
  const NetId g1 = nl.add_gate(GateKind::And, {a, b}, "g1");
  const NetId g2 = nl.add_gate(GateKind::And, {g1, c}, "g2");
  const NetId g3 = nl.add_gate(GateKind::And, {g2, d}, "g3");
  nl.mark_output(g3);
  nl.finalize();
  const PatternSet stimuli = PatternSet::exhaustive(4);
  EventSim sim(nl);
  CriticalPathTracer cpt(nl);
  for (std::size_t p = 0; p < 16; ++p) {
    sim.apply(stimuli, p);
    const auto critical = cpt.critical_nets(sim, 0);
    for (NetId n = 0; n < nl.n_nets(); ++n) {
      const bool expected = brute_critical(nl, stimuli, p, n, 0);
      const bool got =
          std::binary_search(critical.begin(), critical.end(), n);
      ASSERT_EQ(got, expected) << "p=" << p << " net " << nl.net_name(n);
    }
  }
}

/// On reconvergent circuits classical CPT may under-approximate at gates
/// with multiple controlling inputs, but must never over-approximate; and
/// it must remain complete for nets whose criticality flows through
/// single-path sensitization. Verified on c17 exhaustively against brute
/// force for the subset relationship.
TEST(CPT, C17SubsetOfBruteForce) {
  const Netlist nl = make_c17();
  const PatternSet stimuli = PatternSet::exhaustive(5);
  EventSim sim(nl);
  CriticalPathTracer cpt(nl);
  std::size_t cpt_total = 0, brute_total = 0;
  for (std::size_t p = 0; p < 32; ++p) {
    sim.apply(stimuli, p);
    for (std::uint32_t po = 0; po < 2; ++po) {
      const auto critical = cpt.critical_nets(sim, po);
      cpt_total += critical.size();
      for (NetId n = 0; n < nl.n_nets(); ++n) {
        const bool brute = brute_critical(nl, stimuli, p, n, po);
        brute_total += brute;
        if (!brute) {
          ASSERT_FALSE(
              std::binary_search(critical.begin(), critical.end(), n))
              << "overapprox p=" << p << " po=" << po << " net "
              << nl.net_name(n);
        }
      }
    }
  }
  // CPT finds the large majority of critical nets on c17.
  EXPECT_GE(cpt_total * 10, brute_total * 9);
}

/// Property: every fault CPT proposes, when injected, produces an error at
/// exactly that (pattern, PO) — the defining property of a candidate.
TEST(CPT, CriticalFaultsExplainTheFailure) {
  RandomCircuitConfig cfg;
  cfg.n_inputs = 10;
  cfg.n_gates = 120;
  cfg.n_outputs = 6;
  cfg.seed = 77;
  const Netlist nl = make_random_circuit(cfg);
  const PatternSet stimuli = PatternSet::random(6, nl.n_inputs(), 1);
  const PatternSet good = simulate(nl, stimuli);
  EventSim sim(nl);
  CriticalPathTracer cpt(nl);
  FaultyMachine fm(nl);
  for (std::size_t p = 0; p < stimuli.n_patterns(); ++p) {
    sim.apply(stimuli, p);
    for (std::uint32_t po = 0; po < nl.n_outputs(); ++po) {
      for (const Fault& f : cpt.critical_faults(sim, po)) {
        fm.set_faults({&f, 1});
        fm.run(stimuli, p / 64);
        const Word diff =
            fm.value(nl.outputs()[po]) ^
            (good.get(p, po) ? kAllOne : kAllZero);
        ASSERT_TRUE((diff >> (p % 64)) & 1u)
            << to_string(f, nl) << " does not flip po " << po
            << " on pattern " << p;
      }
    }
  }
}

/// The per-pattern stem-flip memo: one long-lived tracer (memo warm across
/// every PO of a pattern, invalidated by each apply) must report exactly
/// what a fresh tracer does for every (pattern, PO), on circuits whose
/// fanout stems reconverge — the case the flip analysis exists for.
TEST(CPT, MemoizedTracerMatchesFreshTracerEverywhere) {
  for (const std::string name : {"g200", "c17"}) {
    SCOPED_TRACE(name);
    const Netlist nl = make_named_circuit(name);
    std::size_t stems = 0;
    for (NetId n = 0; n < nl.n_nets(); ++n) stems += nl.fanouts(n).size() > 1;
    ASSERT_GT(stems, 0u) << "circuit needs reconvergent fanout stems";
    const PatternSet stimuli = PatternSet::random(24, nl.n_inputs(), 0xC97);
    EventSim sim(nl);
    CriticalPathTracer memo(nl);
    for (std::size_t p = 0; p < stimuli.n_patterns(); ++p) {
      sim.apply(stimuli, p);
      // Odd patterns walk the POs backwards, so the memo is filled in a
      // different order than the fresh tracers see.
      for (std::uint32_t k = 0; k < nl.n_outputs(); ++k) {
        const std::uint32_t po =
            p % 2 == 0 ? k : static_cast<std::uint32_t>(nl.n_outputs() - 1 - k);
        CriticalPathTracer fresh(nl);
        ASSERT_EQ(memo.critical_faults(sim, po), fresh.critical_faults(sim, po))
            << "p=" << p << " po=" << po;
        ASSERT_EQ(memo.critical_nets(sim, po),
                  CriticalPathTracer(nl).critical_nets(sim, po))
            << "p=" << p << " po=" << po;
      }
    }
  }
}

/// The memo is keyed by the simulator's committed state, not by the
/// simulator object: alternating two simulators (or re-applying a pattern)
/// through one tracer must never serve a stale flip.
TEST(CPT, MemoInvalidatedByEveryApply) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet stimuli = PatternSet::random(12, nl.n_inputs(), 0xE90);
  EventSim a(nl), b(nl);
  CriticalPathTracer memo(nl);
  for (std::size_t p = 0; p + 1 < stimuli.n_patterns(); ++p) {
    a.apply(stimuli, p);
    b.apply(stimuli, p + 1);
    const std::uint64_t epoch = a.epoch();
    for (std::uint32_t po = 0; po < nl.n_outputs(); ++po) {
      EXPECT_EQ(memo.critical_faults(a, po),
                CriticalPathTracer(nl).critical_faults(a, po));
      EXPECT_EQ(memo.critical_faults(b, po),
                CriticalPathTracer(nl).critical_faults(b, po));
    }
    a.apply(stimuli, p);  // same pattern again: a new epoch all the same
    EXPECT_NE(a.epoch(), epoch);
    EXPECT_NE(a.epoch(), b.epoch());
    EXPECT_EQ(memo.critical_faults(a, 0),
              CriticalPathTracer(nl).critical_faults(a, 0));
  }
}

TEST(CPT, TraceIncludesTheOutputItself) {
  const Netlist nl = make_c17();
  PatternSet stimuli(1, 5);
  EventSim sim(nl);
  sim.apply(stimuli, 0);
  CriticalPathTracer cpt(nl);
  const auto critical = cpt.critical_nets(sim, 0);
  EXPECT_TRUE(std::binary_search(critical.begin(), critical.end(),
                                 nl.outputs()[0]));
}

}  // namespace
}  // namespace mdd
