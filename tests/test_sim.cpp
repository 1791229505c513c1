// Unit tests: pattern containers and the three simulators.
#include <gtest/gtest.h>

#include <random>

#include "netlist/generator.hpp"
#include "sim/event_sim.hpp"
#include "sim/sim2.hpp"
#include "sim/sim3.hpp"

namespace mdd {
namespace {

TEST(PatternSet, GetSetRoundTrip) {
  PatternSet ps(100, 7);
  ps.set(0, 0, true);
  ps.set(63, 6, true);
  ps.set(64, 3, true);
  ps.set(99, 0, true);
  EXPECT_TRUE(ps.get(0, 0));
  EXPECT_TRUE(ps.get(63, 6));
  EXPECT_TRUE(ps.get(64, 3));
  EXPECT_TRUE(ps.get(99, 0));
  EXPECT_FALSE(ps.get(1, 0));
  EXPECT_EQ(ps.n_blocks(), 2u);
  ps.set(63, 6, false);
  EXPECT_FALSE(ps.get(63, 6));
}

TEST(PatternSet, AppendGrowsBlocks) {
  PatternSet ps(0, 3);
  for (int i = 0; i < 130; ++i)
    ps.append({i % 2 == 0, false, true});
  EXPECT_EQ(ps.n_patterns(), 130u);
  EXPECT_EQ(ps.n_blocks(), 3u);
  EXPECT_TRUE(ps.get(128, 0));
  EXPECT_FALSE(ps.get(129, 0));
  EXPECT_TRUE(ps.get(129, 2));
  EXPECT_THROW(ps.append({true}), std::invalid_argument);
}

TEST(PatternSet, ValidMask) {
  PatternSet ps(70, 2);
  EXPECT_EQ(ps.valid_mask(0), kAllOne);
  EXPECT_EQ(ps.valid_mask(1), (Word{1} << 6) - 1);
  PatternSet full(128, 2);
  EXPECT_EQ(full.valid_mask(1), kAllOne);
}

TEST(PatternSet, ExhaustiveEnumerates) {
  const PatternSet ps = PatternSet::exhaustive(4);
  EXPECT_EQ(ps.n_patterns(), 16u);
  for (std::size_t p = 0; p < 16; ++p)
    for (std::size_t s = 0; s < 4; ++s)
      EXPECT_EQ(ps.get(p, s), ((p >> s) & 1u) != 0);
  EXPECT_THROW(PatternSet::exhaustive(21), std::invalid_argument);
}

TEST(PatternSet, RandomDeterministicAndMasked) {
  const PatternSet a = PatternSet::random(100, 5, 7);
  const PatternSet b = PatternSet::random(100, 5, 7);
  EXPECT_EQ(a, b);
  const PatternSet c = PatternSet::random(100, 5, 8);
  EXPECT_NE(a, c);
  // Tail bits beyond n_patterns are zero.
  for (std::size_t s = 0; s < 5; ++s)
    EXPECT_EQ(a.word(1, s) & ~a.valid_mask(1), kAllZero);
}

/// gather packs any pattern list (out of order, repeated, across blocks)
/// into one word per signal, slot s holding patterns[s].
TEST(PatternSet, GatherPacksPatternsIntoSlots) {
  const PatternSet ps = PatternSet::random(200, 7, 3);
  const std::vector<std::uint32_t> picks = {199, 0, 64, 63, 130, 130, 5};
  const std::vector<Word> words = ps.gather(picks);
  ASSERT_EQ(words.size(), 7u);
  for (std::size_t s = 0; s < 7; ++s) {
    for (std::size_t k = 0; k < picks.size(); ++k)
      EXPECT_EQ(((words[s] >> k) & 1u) != 0, ps.get(picks[k], s));
    EXPECT_EQ(words[s] >> picks.size(), kAllZero);
  }
  EXPECT_THROW(ps.gather(std::vector<std::uint32_t>(65, 0)),
               std::invalid_argument);
  const std::vector<std::uint32_t> past_end = {200};
  EXPECT_THROW(ps.gather(past_end), std::out_of_range);
}

TEST(BlockSim, C17KnownVector) {
  const Netlist nl = make_c17();
  // Pattern 01110 (1=0,2=1,3=1,6=1,7=0):
  // 10=NAND(0,1)=1, 11=NAND(1,1)=0, 16=NAND(1,0)=1, 19=NAND(0,0)=1,
  // 22=NAND(1,1)=0, 23=NAND(1,1)=0.
  PatternSet ps(1, 5);
  ps.set(0, 1, true);
  ps.set(0, 2, true);
  ps.set(0, 3, true);
  const PatternSet resp = simulate(nl, ps);
  EXPECT_FALSE(resp.get(0, 0));
  EXPECT_FALSE(resp.get(0, 1));
}

/// Property: the bit-parallel block simulator and the event-driven
/// single-pattern simulator agree on every net for random circuits.
TEST(Simulators, BlockVsEventEquivalence) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    RandomCircuitConfig cfg;
    cfg.n_inputs = 12;
    cfg.n_gates = 150;
    cfg.n_outputs = 8;
    cfg.seed = seed;
    const Netlist nl = make_random_circuit(cfg);
    const PatternSet stimuli = PatternSet::random(64, nl.n_inputs(), seed);
    BlockSim block(nl);
    block.run(stimuli, 0);
    EventSim ev(nl);
    for (std::size_t p = 0; p < 64; ++p) {
      ev.apply(stimuli, p);
      for (NetId n = 0; n < nl.n_nets(); ++n) {
        ASSERT_EQ(ev.value(n), ((block.value(n) >> p) & 1u) != 0)
            << "seed " << seed << " pattern " << p << " net "
            << nl.net_name(n);
      }
    }
  }
}

/// Property: Scalar3Sim with binary inputs equals the 2-valued simulators.
TEST(Simulators, Scalar3BinaryAgreement) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet stimuli = PatternSet::random(20, nl.n_inputs(), 5);
  Scalar3Sim sim3(nl);
  EventSim ev(nl);
  for (std::size_t p = 0; p < 20; ++p) {
    ev.apply(stimuli, p);
    sim3.reset();
    for (std::size_t i = 0; i < nl.n_inputs(); ++i)
      sim3.set_input(i, v3_from_bool(stimuli.get(p, i)));
    sim3.run();
    for (NetId n = 0; n < nl.n_nets(); ++n) {
      ASSERT_EQ(sim3.value(n), v3_from_bool(ev.value(n)))
          << "pattern " << p << " net " << nl.net_name(n);
    }
  }
}

/// Property: with some inputs X, every binary output of simulate3 agrees
/// with the 2-valued simulation of any completion.
TEST(Simulators, DualRailConservative) {
  const Netlist nl = make_named_circuit("g200");
  std::mt19937_64 rng(31);
  Pattern3Set stim3;
  stim3.is0 = PatternSet(32, nl.n_inputs());
  stim3.is1 = PatternSet(32, nl.n_inputs());
  PatternSet completion(32, nl.n_inputs());
  const Val3 choices[3] = {Val3::Zero, Val3::One, Val3::X};
  for (std::size_t p = 0; p < 32; ++p)
    for (std::size_t i = 0; i < nl.n_inputs(); ++i) {
      const Val3 v = choices[rng() % 3];
      stim3.set(p, i, v);
      completion.set(p, i, v == Val3::X ? (rng() & 1) : v3_to_bool(v));
    }
  const Pattern3Set resp3 = simulate3(nl, stim3);
  const PatternSet resp2 = simulate(nl, completion);
  for (std::size_t p = 0; p < 32; ++p)
    for (std::size_t o = 0; o < nl.n_outputs(); ++o) {
      const Val3 v = resp3.get(p, o);
      if (v == Val3::X) continue;
      ASSERT_EQ(v3_to_bool(v), resp2.get(p, o)) << p << "," << o;
    }
}

TEST(Simulators, Pattern3FromBinary) {
  const PatternSet ps = PatternSet::random(70, 3, 2);
  const Pattern3Set p3 = Pattern3Set::from_binary(ps);
  for (std::size_t p = 0; p < 70; ++p)
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_EQ(p3.get(p, s), v3_from_bool(ps.get(p, s)));
}

TEST(Scalar3Sim, StemOverride) {
  const Netlist nl = make_c17();
  Scalar3Sim sim(nl);
  for (std::size_t i = 0; i < 5; ++i) sim.set_input(i, Val3::One);
  sim.set_override(nl.find_net("11"), Val3::One);  // would be 0 normally
  sim.run();
  EXPECT_EQ(sim.value(nl.find_net("11")), Val3::One);
  // 16 = NAND(2=1, 11=1) = 0; 22 = NAND(10, 16=0) = 1.
  EXPECT_EQ(sim.value(nl.find_net("16")), Val3::Zero);
  EXPECT_EQ(sim.value(nl.find_net("22")), Val3::One);
}

TEST(Scalar3Sim, PinOverride) {
  const Netlist nl = make_c17();
  Scalar3Sim sim(nl);
  for (std::size_t i = 0; i < 5; ++i) sim.set_input(i, Val3::One);
  // Force pin 1 (net 11) of gate 16 to 1; stem 11 itself stays 0.
  sim.set_pin_override(nl.find_net("16"), 1, Val3::One);
  sim.run();
  EXPECT_EQ(sim.value(nl.find_net("11")), Val3::Zero);
  EXPECT_EQ(sim.value(nl.find_net("16")), Val3::Zero);  // NAND(1, forced 1)
  // Gate 19 still sees the true stem: NAND(11=0, 7=1) = 1.
  EXPECT_EQ(sim.value(nl.find_net("19")), Val3::One);
}

/// Property: flip_observed_outputs equals the brute-force "re-simulate with
/// the net forced to the opposite value and compare POs".
TEST(EventSim, FlipMatchesBruteForce) {
  RandomCircuitConfig cfg;
  cfg.n_inputs = 10;
  cfg.n_gates = 120;
  cfg.n_outputs = 6;
  cfg.seed = 55;
  const Netlist nl = make_random_circuit(cfg);
  const PatternSet stimuli = PatternSet::random(8, nl.n_inputs(), 3);
  EventSim ev(nl);
  Scalar3Sim forced(nl);
  for (std::size_t p = 0; p < 8; ++p) {
    ev.apply(stimuli, p);
    for (NetId n = 0; n < nl.n_nets(); ++n) {
      const auto observed = ev.flip_observed_outputs(n);
      // Brute force via Scalar3Sim override.
      forced.reset();
      for (std::size_t i = 0; i < nl.n_inputs(); ++i)
        forced.set_input(i, v3_from_bool(stimuli.get(p, i)));
      forced.set_override(n, v3_from_bool(!ev.value(n)));
      forced.run();
      std::vector<std::uint32_t> expected;
      for (std::size_t o = 0; o < nl.n_outputs(); ++o) {
        if (forced.value(nl.outputs()[o]) !=
            v3_from_bool(ev.value(nl.outputs()[o])))
          expected.push_back(static_cast<std::uint32_t>(o));
      }
      ASSERT_EQ(observed, expected) << "pattern " << p << " net "
                                    << nl.net_name(n);
    }
  }
}

TEST(EventSim, StateRestoredAfterFlip) {
  const Netlist nl = make_c17();
  PatternSet ps(1, 5);
  ps.set(0, 2, true);
  EventSim ev(nl);
  ev.apply(ps, 0);
  std::vector<bool> before(nl.n_nets());
  for (NetId n = 0; n < nl.n_nets(); ++n) before[n] = ev.value(n);
  for (NetId n = 0; n < nl.n_nets(); ++n) ev.flip_observed_outputs(n);
  for (NetId n = 0; n < nl.n_nets(); ++n)
    EXPECT_EQ(ev.value(n), before[n]) << nl.net_name(n);
}

TEST(EventSim, FlipChangedNetsIncludesSelf) {
  const Netlist nl = make_c17();
  PatternSet ps(1, 5);
  EventSim ev(nl);
  ev.apply(ps, 0);
  const NetId g16 = nl.find_net("16");
  const auto changed = ev.flip_changed_nets(g16);
  EXPECT_NE(std::find(changed.begin(), changed.end(), g16), changed.end());
}

}  // namespace
}  // namespace mdd
