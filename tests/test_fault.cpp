// Unit tests: fault models, universe generation, composite injection.
#include <gtest/gtest.h>

#include <random>

#include "fault/fault.hpp"
#include "fault/inject.hpp"
#include "netlist/generator.hpp"
#include "sim/sim2.hpp"
#include "sim/sim3.hpp"

namespace mdd {
namespace {

TEST(Fault, Constructors) {
  const Fault s = Fault::stem_sa(3, true);
  EXPECT_EQ(s.kind, FaultKind::StuckAt1);
  EXPECT_TRUE(s.is_stuck_at());
  EXPECT_TRUE(s.stuck_value());
  EXPECT_EQ(s.pin, kStemPin);

  const Fault b = Fault::branch_sa(5, 1, false);
  EXPECT_EQ(b.pin, 1u);
  EXPECT_FALSE(b.stuck_value());

  const Fault d = Fault::bridge_dom(2, 9);
  EXPECT_TRUE(d.is_bridge());
  EXPECT_EQ(d.net, 2u);        // victim
  EXPECT_EQ(d.bridge_net, 9u);  // aggressor

  const Fault w = Fault::bridge_wand(9, 2);
  EXPECT_EQ(w.net, 2u);  // normalized
  EXPECT_EQ(w.bridge_net, 9u);
}

TEST(Fault, ToString) {
  const Netlist nl = make_c17();
  EXPECT_EQ(to_string(Fault::stem_sa(nl.find_net("16"), false), nl),
            "SA0 16");
  EXPECT_EQ(to_string(Fault::bridge_dom(nl.find_net("16"),
                                        nl.find_net("10")),
                      nl),
            "BR-DOM 10->16");
  const std::string branch =
      to_string(Fault::branch_sa(nl.find_net("16"), 1, true), nl);
  EXPECT_NE(branch.find("16.pin1"), std::string::npos);
  EXPECT_NE(branch.find("(11)"), std::string::npos);
}

TEST(Fault, Validation) {
  const Netlist nl = make_c17();
  EXPECT_NO_THROW(validate_fault(Fault::stem_sa(0, false), nl));
  EXPECT_THROW(validate_fault(Fault::stem_sa(1000, false), nl),
               std::invalid_argument);
  EXPECT_THROW(validate_fault(Fault::branch_sa(nl.find_net("16"), 7, false),
                              nl),
               std::invalid_argument);
  EXPECT_THROW(validate_fault(Fault::bridge_dom(3, 3), nl),
               std::invalid_argument);
  EXPECT_THROW(validate_fault(Fault::bridge_dom(3, 1000), nl),
               std::invalid_argument);
}

TEST(Fault, StuckAtUniverseCount) {
  const Netlist nl = make_c17();
  const auto faults = all_stuck_at_faults(nl);
  // 11 nets * 2 stems + branch faults on pins fed by multi-fanout stems.
  // Multi-fanout stems in c17: 3 (feeds 10,11), 11 (feeds 16,19),
  // 16 (feeds 22,23) -> 6 branch pins * 2 polarities = 12.
  EXPECT_EQ(faults.size(), 11u * 2 + 12u);
  for (const Fault& f : faults) EXPECT_NO_THROW(validate_fault(f, nl));
}

TEST(Fault, FeedbackPairDetection) {
  const Netlist nl = make_c17();
  // 11 feeds 16 -> feedback pair.
  EXPECT_TRUE(is_feedback_pair(nl, nl.find_net("11"), nl.find_net("16")));
  EXPECT_TRUE(is_feedback_pair(nl, nl.find_net("16"), nl.find_net("11")));
  // 10 and 19 are independent.
  EXPECT_FALSE(is_feedback_pair(nl, nl.find_net("10"), nl.find_net("19")));
  // PI 1 reaches 22.
  EXPECT_TRUE(is_feedback_pair(nl, nl.find_net("1"), nl.find_net("22")));
}

TEST(Fault, BridgeSamplingIsCleanAndDeterministic) {
  const Netlist nl = make_named_circuit("g200");
  BridgeUniverseConfig cfg;
  cfg.count = 20;
  cfg.seed = 5;
  const auto a = sample_bridge_faults(nl, cfg);
  const auto b = sample_bridge_faults(nl, cfg);
  EXPECT_EQ(a, b);
  EXPECT_GE(a.size(), 20u);  // 4 faults per accepted pair
  for (const Fault& f : a) {
    EXPECT_TRUE(f.is_bridge());
    EXPECT_NO_THROW(validate_fault(f, nl));
    EXPECT_FALSE(is_feedback_pair(nl, f.net, f.bridge_net))
        << to_string(f, nl);
  }
}

// ---- FaultyMachine ---------------------------------------------------------

TEST(FaultyMachine, EmptyFaultSetEqualsGoodMachine) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet stimuli = PatternSet::random(200, nl.n_inputs(), 9);
  FaultyMachine fm(nl);
  fm.set_faults({});
  EXPECT_EQ(fm.simulate(stimuli), simulate(nl, stimuli));
  EXPECT_TRUE(fm.converged());
}

TEST(FaultyMachine, StemStuckAt) {
  const Netlist nl = make_c17();
  // All-ones input: 11 = NAND(3,6) = 0; with 11 SA1: 16 = NAND(2,11) -> 0,
  // 19 = NAND(11,7) -> 0, 22 = NAND(10,16) -> 1, 23 = NAND(16,19) -> 1.
  PatternSet ps(1, 5);
  for (int i = 0; i < 5; ++i) ps.set(0, i, true);
  const Fault f = Fault::stem_sa(nl.find_net("11"), true);
  FaultyMachine fm(nl);
  fm.set_faults({&f, 1});
  fm.run(ps, 0);
  EXPECT_EQ(fm.value(nl.find_net("11")) & 1u, 1u);
  EXPECT_EQ(fm.value(nl.find_net("16")) & 1u, 0u);
  EXPECT_EQ(fm.value(nl.find_net("22")) & 1u, 1u);
  EXPECT_EQ(fm.value(nl.find_net("23")) & 1u, 1u);
}

TEST(FaultyMachine, BranchStuckAtIsLocal) {
  const Netlist nl = make_c17();
  PatternSet ps(1, 5);
  for (int i = 0; i < 5; ++i) ps.set(0, i, true);
  // Branch 16.pin1 (from 11) SA1: 16 flips to 0, but 19 still sees 11=0.
  const Fault f = Fault::branch_sa(nl.find_net("16"), 1, true);
  FaultyMachine fm(nl);
  fm.set_faults({&f, 1});
  fm.run(ps, 0);
  EXPECT_EQ(fm.value(nl.find_net("11")) & 1u, 0u);  // stem unchanged
  EXPECT_EQ(fm.value(nl.find_net("16")) & 1u, 0u);  // NAND(1, forced 1)
  EXPECT_EQ(fm.value(nl.find_net("19")) & 1u, 1u);  // NAND(0, 1) = 1
}

TEST(FaultyMachine, DominantBridgeForcesVictim) {
  const Netlist nl = make_c17();
  const PatternSet stimuli = PatternSet::exhaustive(5);
  const NetId victim = nl.find_net("10");
  const NetId aggressor = nl.find_net("19");  // later in topo order!
  ASSERT_GT(nl.level(aggressor), nl.level(victim));
  const Fault f = Fault::bridge_dom(victim, aggressor);
  FaultyMachine fm(nl);
  fm.set_faults({&f, 1});
  const PatternSet good = simulate(nl, stimuli);

  // Reference: victim value must equal the aggressor's *faulty-machine*
  // value everywhere; since the aggressor is not downstream of the victim,
  // that equals its good value.
  BlockSim gs(nl);
  for (std::size_t b = 0; b < stimuli.n_blocks(); ++b) {
    gs.run(stimuli, b);
    fm.run(stimuli, b);
    EXPECT_TRUE(fm.converged());
    const Word mask = stimuli.valid_mask(b);
    EXPECT_EQ(fm.value(victim) & mask, gs.value(aggressor) & mask);
  }
}

TEST(FaultyMachine, WiredBridges) {
  const Netlist nl = make_c17();
  const PatternSet stimuli = PatternSet::exhaustive(5);
  const NetId a = nl.find_net("10"), b = nl.find_net("19");
  BlockSim gs(nl);
  gs.run(stimuli, 0);
  const Word va = gs.value(a), vb = gs.value(b);
  const Word mask = stimuli.valid_mask(0);

  FaultyMachine fm(nl);
  const Fault wand = Fault::bridge_wand(a, b);
  fm.set_faults({&wand, 1});
  fm.run(stimuli, 0);
  EXPECT_EQ(fm.value(a) & mask, (va & vb) & mask);
  EXPECT_EQ(fm.value(b) & mask, (va & vb) & mask);

  const Fault wor = Fault::bridge_wor(a, b);
  fm.set_faults({&wor, 1});
  fm.run(stimuli, 0);
  EXPECT_EQ(fm.value(a) & mask, (va | vb) & mask);
  EXPECT_EQ(fm.value(b) & mask, (va | vb) & mask);
}

TEST(FaultyMachine, MultipleFaultsMask) {
  // Hand-built masking: z = AND(a, b); fault1 = a SA0, fault2 = z SA0.
  // Alone, each flips z on pattern a=b=1. Together the response equals the
  // single z-SA0 response: fault1 is masked by fault2.
  Netlist nl("mask");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId z = nl.add_gate(GateKind::And, {a, b}, "z");
  nl.mark_output(z);
  nl.finalize();
  const PatternSet stimuli = PatternSet::exhaustive(2);

  const Fault f1 = Fault::stem_sa(a, false);
  const Fault f2 = Fault::stem_sa(z, false);
  const std::vector<Fault> both{f1, f2};
  const PatternSet r_both = simulate_with_faults(nl, both, stimuli);
  const PatternSet r_f2 = simulate_with_faults(nl, {&f2, 1}, stimuli);
  EXPECT_EQ(r_both, r_f2);
}

TEST(FaultyMachine, MultipleFaultsCompose) {
  // Two independent cones: each fault shows on its own output only;
  // composite shows both.
  Netlist nl("compose");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_gate(GateKind::Not, {a}, "x");
  const NetId y = nl.add_gate(GateKind::Not, {b}, "y");
  nl.mark_output(x);
  nl.mark_output(y);
  nl.finalize();
  const PatternSet stimuli = PatternSet::exhaustive(2);
  const PatternSet good = simulate(nl, stimuli);

  const std::vector<Fault> both{Fault::stem_sa(x, false),
                                Fault::stem_sa(y, true)};
  const PatternSet r = simulate_with_faults(nl, both, stimuli);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(r.get(p, 0));
    EXPECT_TRUE(r.get(p, 1));
  }
}

TEST(FaultyMachine, StuckAtWinsOverBridge) {
  Netlist nl("prio");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_gate(GateKind::Buf, {a}, "x");
  const NetId y = nl.add_gate(GateKind::Buf, {b}, "y");
  nl.mark_output(x);
  nl.mark_output(y);
  nl.finalize();
  const PatternSet stimuli = PatternSet::exhaustive(2);
  // x bridged from y, but x also hard SA0: SA0 must win.
  const std::vector<Fault> faults{Fault::bridge_dom(x, y),
                                  Fault::stem_sa(x, false)};
  const PatternSet r = simulate_with_faults(nl, faults, stimuli);
  for (std::size_t p = 0; p < 4; ++p) EXPECT_FALSE(r.get(p, 0));
}

TEST(FaultyMachine, BridgeChainConverges) {
  // victim2 <- victim1 <- aggressor, with victims earlier in topo order.
  Netlist nl("chain");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId v2 = nl.add_gate(GateKind::Buf, {a}, "v2");
  const NetId v1 = nl.add_gate(GateKind::Buf, {b}, "v1");
  const NetId agg = nl.add_gate(GateKind::Not, {b}, "agg");
  nl.mark_output(v2);
  nl.mark_output(v1);
  nl.mark_output(agg);
  nl.finalize();
  const PatternSet stimuli = PatternSet::exhaustive(2);
  const std::vector<Fault> faults{Fault::bridge_dom(v1, agg),
                                  Fault::bridge_dom(v2, v1)};
  FaultyMachine fm(nl);
  fm.set_faults(faults);
  const PatternSet r = fm.simulate(stimuli);
  EXPECT_TRUE(fm.converged());
  for (std::size_t p = 0; p < 4; ++p) {
    const bool agg_val = !((p >> 1) & 1);
    EXPECT_EQ(r.get(p, 1), agg_val);  // v1 = agg
    EXPECT_EQ(r.get(p, 0), agg_val);  // v2 = v1 = agg
  }
}

/// Regression: a reused machine answers exactly like a fresh one. Every
/// run used to start from the net values the previous run left behind,
/// and a feedback dominant bridge (the victim reaches its own aggressor)
/// settles — or stops at the pass cap — in a state that depends on that
/// start: on g1k about a third of random feedback bridges simulated
/// differently on a used machine.
TEST(FaultyMachine, UsedMachineMatchesFreshOnFeedbackBridges) {
  const Netlist nl = make_named_circuit("g1k");
  const PatternSet stimuli = PatternSet::random(256, nl.n_inputs(), 0xFEED);
  const PatternSet launch = PatternSet::random(128, nl.n_inputs(), 0x1A);
  const PatternSet capture = PatternSet::random(128, nl.n_inputs(), 0x2B);
  std::mt19937_64 rng(0xB1D6E);
  FaultyMachine used(nl);
  std::size_t n_feedback = 0;
  while (n_feedback < 150) {
    const NetId a = static_cast<NetId>(rng() % nl.n_nets());
    const NetId b = static_cast<NetId>(rng() % nl.n_nets());
    if (a == b || !is_feedback_pair(nl, a, b)) continue;
    ++n_feedback;
    const Fault f = Fault::bridge_dom(a, b);
    // Leave the used machine in some other fault's settled state first.
    const Fault other = rng() % 2 == 0 ? Fault::bridge_dom(b, a)
                                       : Fault::stem_sa(a, rng() % 2 == 0);
    used.set_faults({&other, 1});
    used.simulate(stimuli);
    used.set_faults({&f, 1});
    FaultyMachine fresh(nl);
    fresh.set_faults({&f, 1});
    ASSERT_EQ(used.simulate(stimuli), fresh.simulate(stimuli))
        << to_string(f, nl) << " after " << to_string(other, nl);
    // Repeating the query on the same machine changes nothing either.
    ASSERT_EQ(used.simulate(stimuli), fresh.simulate(stimuli))
        << to_string(f, nl) << " repeated";
    if (n_feedback % 5 == 0) {
      FaultyMachine fresh_pair(nl);
      fresh_pair.set_faults({&f, 1});
      ASSERT_EQ(used.simulate_pair(launch, capture),
                fresh_pair.simulate_pair(launch, capture))
          << to_string(f, nl) << " (pair mode)";
    }
  }
}

TEST(FaultyMachine, RejectsInvalidFault) {
  const Netlist nl = make_c17();
  FaultyMachine fm(nl);
  const Fault bad = Fault::stem_sa(1000, false);
  EXPECT_THROW(fm.set_faults({&bad, 1}), std::invalid_argument);
}

/// Property: injecting a single stem SA0/SA1 equals forcing the net in a
/// reference simulation (brute force over random circuits).
TEST(FaultyMachine, SingleStemMatchesBruteForce) {
  RandomCircuitConfig cfg;
  cfg.n_inputs = 10;
  cfg.n_gates = 80;
  cfg.n_outputs = 5;
  cfg.seed = 321;
  const Netlist nl = make_random_circuit(cfg);
  const PatternSet stimuli = PatternSet::random(64, nl.n_inputs(), 4);
  FaultyMachine fm(nl);
  Scalar3Sim ref(nl);
  std::mt19937_64 rng(8);
  for (int iter = 0; iter < 30; ++iter) {
    const NetId n = rng() % nl.n_nets();
    const bool v = rng() & 1;
    const Fault f = Fault::stem_sa(n, v);
    fm.set_faults({&f, 1});
    fm.run(stimuli, 0);
    const std::size_t p = rng() % 64;
    ref.reset();
    for (std::size_t i = 0; i < nl.n_inputs(); ++i)
      ref.set_input(i, v3_from_bool(stimuli.get(p, i)));
    ref.set_override(n, v3_from_bool(v));
    ref.run();
    for (NetId m = 0; m < nl.n_nets(); ++m) {
      ASSERT_EQ(v3_from_bool((fm.value(m) >> p) & 1u), ref.value(m))
          << "iter " << iter << " net " << nl.net_name(m);
    }
  }
}

}  // namespace
}  // namespace mdd
