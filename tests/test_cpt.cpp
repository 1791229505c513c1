// Unit tests: critical path tracing.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>
#include <string>

#include "fault/inject.hpp"
#include "fsim/cpt.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "sim/event_sim.hpp"
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

/// Patterns [first, first + count) as one block's pattern list.
std::vector<std::uint32_t> range(std::uint32_t first, std::size_t count) {
  std::vector<std::uint32_t> out(count);
  std::iota(out.begin(), out.end(), first);
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
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
    CriticalPathTracer cpt(nl);
    cpt.commit(stimuli, range(0, stimuli.n_patterns()));
    for (std::size_t p = 0; p < stimuli.n_patterns(); ++p) {
      for (std::uint32_t po = 0; po < nl.n_outputs(); ++po) {
        for (NetId n : cpt.critical_nets(p, po)) {
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
  CriticalPathTracer cpt(nl);
  cpt.commit(stimuli, range(0, 8));
  for (std::size_t p = 0; p < 8; ++p) {
    const auto critical = cpt.critical_nets(p, 0);
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
  CriticalPathTracer cpt(nl);
  cpt.commit(stimuli, range(0, 16));
  for (std::size_t p = 0; p < 16; ++p) {
    const auto critical = cpt.critical_nets(p, 0);
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
  CriticalPathTracer cpt(nl);
  cpt.commit(stimuli, range(0, 32));
  std::size_t cpt_total = 0, brute_total = 0;
  for (std::size_t p = 0; p < 32; ++p) {
    for (std::uint32_t po = 0; po < 2; ++po) {
      const auto critical = cpt.critical_nets(p, po);
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
  CriticalPathTracer cpt(nl);
  cpt.commit(stimuli, range(0, stimuli.n_patterns()));
  FaultyMachine fm(nl);
  for (std::size_t p = 0; p < stimuli.n_patterns(); ++p) {
    for (std::uint32_t po = 0; po < nl.n_outputs(); ++po) {
      for (const Fault& f : cpt.critical_faults(p, po)) {
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

/// Circuits with reconvergent fanout stems — the case the stem flips
/// exist for.
std::vector<Netlist> reconvergent_circuits() {
  std::vector<Netlist> out;
  out.push_back(make_c17());
  out.push_back(make_named_circuit("g200"));
  for (std::uint64_t seed : {5ull, 6ull}) {
    RandomCircuitConfig cfg;
    cfg.n_inputs = 12;
    cfg.n_gates = 150;
    cfg.n_outputs = 8;
    cfg.locality = 24;
    cfg.seed = seed;
    out.push_back(make_random_circuit(cfg));
  }
  return out;
}

/// Slot independence: blocks of 1, 7, 63 and 64 patterns answer every
/// (slot, PO) exactly as a one-pattern block of that pattern does.
/// Alternate blocks walk slots and POs backwards, so the block's flip
/// memo is filled in a different order than the one-pattern tracer's.
TEST(CPT, BlocksMatchOnePatternBlocksEverywhere) {
  for (const Netlist& nl : reconvergent_circuits()) {
    SCOPED_TRACE(nl.name());
    std::size_t stems = 0;
    for (NetId n = 0; n < nl.n_nets(); ++n) stems += nl.fanouts(n).size() > 1;
    ASSERT_GT(stems, 0u) << "circuit needs reconvergent fanout stems";
    const PatternSet stimuli =
        PatternSet::random(1 + 7 + 63 + 64, nl.n_inputs(), 0xC97);
    CriticalPathTracer block(nl), one(nl);
    std::uint32_t first = 0;
    bool backwards = false;
    for (std::size_t size : {1u, 7u, 63u, 64u}) {
      block.commit(stimuli, range(first, size));
      ASSERT_EQ(block.n_slots(), size);
      for (std::size_t k = 0; k < size; ++k) {
        const std::size_t slot = backwards ? size - 1 - k : k;
        const std::uint32_t p = first + static_cast<std::uint32_t>(slot);
        one.commit(stimuli, range(p, 1));
        for (NetId n = 0; n < nl.n_nets(); ++n)
          ASSERT_EQ((block.good(n) >> slot) & 1u, one.good(n));
        for (std::uint32_t j = 0; j < nl.n_outputs(); ++j) {
          const std::uint32_t po =
              backwards ? static_cast<std::uint32_t>(nl.n_outputs() - 1 - j)
                        : j;
          ASSERT_EQ(block.critical_faults(slot, po),
                    one.critical_faults(0, po))
              << "block " << size << " slot " << slot << " po " << po;
          ASSERT_EQ(block.critical_nets(slot, po), one.critical_nets(0, po))
              << "block " << size << " slot " << slot << " po " << po;
        }
      }
      first += static_cast<std::uint32_t>(size);
      backwards = !backwards;
    }
  }
}

/// The flip memo belongs to one commit of one tracer: re-committing (even
/// the same patterns in other slots, or the very same block) and
/// alternating two tracers must never serve a stale flip.
TEST(CPT, RecommitNeverServesStaleFlips) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet stimuli = PatternSet::random(12, nl.n_inputs(), 0xE90);
  auto fresh = [&](std::uint32_t p, std::uint32_t po) {
    CriticalPathTracer t(nl);
    t.commit(stimuli, range(p, 1));
    return t.critical_faults(0, po);
  };
  CriticalPathTracer a(nl), b(nl);
  for (std::uint32_t p = 0; p + 1 < stimuli.n_patterns(); ++p) {
    const std::vector<std::uint32_t> pair = {p, p + 1};
    const std::vector<std::uint32_t> swapped = {p + 1, p};
    a.commit(stimuli, pair);
    b.commit(stimuli, range(p + 1, 1));
    for (std::uint32_t po = 0; po < nl.n_outputs(); ++po) {
      EXPECT_EQ(a.critical_faults(0, po), fresh(p, po));
      EXPECT_EQ(b.critical_faults(0, po), fresh(p + 1, po));
      EXPECT_EQ(a.critical_faults(1, po), fresh(p + 1, po));
    }
    // Same patterns, other slots: every memoized slot word is now wrong.
    a.commit(stimuli, swapped);
    for (std::uint32_t po = 0; po < nl.n_outputs(); ++po) {
      EXPECT_EQ(a.critical_faults(0, po), fresh(p + 1, po));
      EXPECT_EQ(a.critical_faults(1, po), fresh(p, po));
    }
    // Same block again: a fresh memo all the same.
    a.commit(stimuli, swapped);
    EXPECT_EQ(a.critical_faults(1, 0), fresh(p, 0));
  }
}

/// One block flips each fanout stem its traces analyse exactly once, and
/// a trace's stem analyses are exactly the sources of the branch faults
/// it reports — so the counter equals the distinct branch sources.
TEST(CPT, StemFlipsCountDistinctAnalysedStems) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet stimuli = PatternSet::random(40, nl.n_inputs(), 0x5F);
  CriticalPathTracer cpt(nl);
  cpt.commit(stimuli, range(0, 40));
  const std::uint64_t flips = counter("cpt.stem_flips");
  const std::uint64_t traces = counter("cpt.traces");
  std::set<NetId> analysed;
  for (int pass = 0; pass < 2; ++pass) {  // the second pass hits the memo
    for (std::size_t slot = 0; slot < 40; ++slot) {
      for (std::uint32_t po = 0; po < nl.n_outputs(); ++po) {
        for (const Fault& f : cpt.critical_faults(slot, po))
          if (f.pin != kStemPin) analysed.insert(nl.fanins(f.net)[f.pin]);
      }
    }
  }
  ASSERT_FALSE(analysed.empty());
  EXPECT_EQ(counter("cpt.stem_flips") - flips, analysed.size());
  EXPECT_EQ(counter("cpt.traces") - traces, 2 * 40 * nl.n_outputs());
  // Both show in the exposition op=stats and /metrics serve.
  const std::string text = obs::render_prometheus(obs::registry().snapshot());
  EXPECT_NE(text.find("cpt_traces "), std::string::npos);
  EXPECT_NE(text.find("cpt_stem_flips "), std::string::npos);
  // A new commit flips afresh.
  cpt.commit(stimuli, range(0, 40));
  const std::uint64_t before = counter("cpt.stem_flips");
  for (std::uint32_t po = 0; po < nl.n_outputs(); ++po)
    cpt.critical_faults(0, po);
  EXPECT_GT(counter("cpt.stem_flips"), before);
}

TEST(CPT, RejectsOversizedBlocksAndUncommittedSlots) {
  const Netlist nl = make_c17();
  const PatternSet stimuli = PatternSet::exhaustive(5);
  CriticalPathTracer cpt(nl);
  EXPECT_THROW(cpt.critical_nets(0, 0), std::out_of_range);
  const std::vector<std::uint32_t> too_many(65, 0);
  EXPECT_THROW(cpt.commit(stimuli, too_many), std::invalid_argument);
  cpt.commit(stimuli, range(0, 3));
  EXPECT_NO_THROW(cpt.critical_nets(2, 1));
  EXPECT_THROW(cpt.critical_nets(3, 0), std::out_of_range);
  EXPECT_THROW(cpt.commit(PatternSet::exhaustive(4), range(0, 1)),
               std::invalid_argument);
}

TEST(CPT, TraceIncludesTheOutputItself) {
  const Netlist nl = make_c17();
  PatternSet stimuli(1, 5);
  CriticalPathTracer cpt(nl);
  cpt.commit(stimuli, range(0, 1));
  const auto critical = cpt.critical_nets(0, 0);
  EXPECT_TRUE(std::binary_search(critical.begin(), critical.end(),
                                 nl.outputs()[0]));
}

}  // namespace
}  // namespace mdd
