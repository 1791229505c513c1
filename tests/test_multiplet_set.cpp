// Set semantics for multiplets: a defect multiplet is a *set* of faults,
// so its composite signature must not depend on the order its members are
// listed in. The property matters where members act on one net — SA0 and
// SA1 on one pin, two dominant bridges onto one victim, two wired bridges
// sharing a net — because the engines resolve such members in injection
// order; both engines therefore inject in canonical (sorted) order.
//
// Checked for every simulation kernel on FaultSimulator, PairFaultSimulator
// and SingleFaultPropagator (single- and two-frame), over every
// permutation of random 2-4-member g200/g1k multiplets drawn around shared
// nets, plus the three same-net shapes above. The context test pins the
// consequence for the composite memo: an entry stored under one member
// order must answer another order exactly as a fresh compute would.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "diag/diagnosis.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "sim/sim2.hpp"

namespace mdd {
namespace {

/// A net with fan-in and at least two fan-outs, so stem, branch and bridge
/// faults can all land on it.
NetId pick_hub(const Netlist& nl, std::mt19937_64& rng) {
  for (;;) {
    const NetId n = static_cast<NetId>(rng() % nl.n_nets());
    if (!nl.fanins(n).empty() && nl.fanouts(n).size() >= 2) return n;
  }
}

NetId other_net(const Netlist& nl, NetId not_this, std::mt19937_64& rng) {
  for (;;) {
    const NetId n = static_cast<NetId>(rng() % nl.n_nets());
    if (n != not_this) return n;
  }
}

/// Every fault the engines accept that touches `hub`: both stem stuck-ats,
/// the stuck-ats of one branch it drives, dominant bridges with the hub as
/// victim and as aggressor, and wired bridges on it. `transitions` adds the
/// two-frame kinds.
std::vector<Fault> faults_around(const Netlist& nl, NetId hub,
                                 std::mt19937_64& rng, bool transitions) {
  std::vector<Fault> out{Fault::stem_sa(hub, false), Fault::stem_sa(hub, true)};
  const NetId gate = nl.fanouts(hub)[rng() % nl.fanouts(hub).size()];
  const auto fi = nl.fanins(gate);
  const auto pin = static_cast<std::uint32_t>(
      std::find(fi.begin(), fi.end(), hub) - fi.begin());
  out.push_back(Fault::branch_sa(gate, pin, false));
  out.push_back(Fault::branch_sa(gate, pin, true));
  for (int k = 0; k < 2; ++k) {
    out.push_back(Fault::bridge_dom(hub, other_net(nl, hub, rng)));
    out.push_back(Fault::bridge_dom(other_net(nl, hub, rng), hub));
    out.push_back(Fault::bridge_wand(hub, other_net(nl, hub, rng)));
    out.push_back(Fault::bridge_wor(hub, other_net(nl, hub, rng)));
  }
  if (transitions) {
    out.push_back(Fault::slow_to_rise(hub));
    out.push_back(Fault::slow_to_fall(hub));
  }
  return out;
}

/// Random 2-4-member multiplets whose members mostly share one hub net
/// (the order-sensitive case), occasionally joined by an unrelated fault.
std::vector<std::vector<Fault>> random_multiplets(const Netlist& nl,
                                                  std::size_t n,
                                                  std::uint64_t seed,
                                                  bool transitions) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Fault>> out;
  while (out.size() < n) {
    const NetId hub = pick_hub(nl, rng);
    const std::vector<Fault> around = faults_around(nl, hub, rng, transitions);
    std::vector<Fault> m;
    const std::size_t size = 2 + rng() % 3;
    while (m.size() < size) {
      const Fault f = rng() % 5 == 0
                          ? Fault::stem_sa(pick_hub(nl, rng), rng() % 2 == 0)
                          : around[rng() % around.size()];
      if (std::find(m.begin(), m.end(), f) == m.end()) m.push_back(f);
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// The three same-net shapes, on `hub`.
std::vector<std::vector<Fault>> same_net_shapes(const Netlist& nl, NetId hub,
                                                std::mt19937_64& rng) {
  const NetId gate = nl.fanouts(hub).front();
  const auto fi = nl.fanins(gate);
  const auto pin = static_cast<std::uint32_t>(
      std::find(fi.begin(), fi.end(), hub) - fi.begin());
  return {
      {Fault::stem_sa(hub, false), Fault::stem_sa(hub, true)},
      {Fault::branch_sa(gate, pin, false), Fault::branch_sa(gate, pin, true)},
      {Fault::bridge_dom(hub, other_net(nl, hub, rng)),
       Fault::bridge_dom(hub, other_net(nl, hub, rng))},
      {Fault::bridge_wand(hub, other_net(nl, hub, rng)),
       Fault::bridge_wor(hub, other_net(nl, hub, rng))},
      {Fault::bridge_wand(hub, other_net(nl, hub, rng)),
       Fault::bridge_wand(hub, other_net(nl, hub, rng))},
  };
}

/// Calls `check(order)` for every permutation of `m`.
template <typename Check>
void for_each_order(std::vector<Fault> m, Check check) {
  std::sort(m.begin(), m.end());
  do check(m);
  while (std::next_permutation(m.begin(), m.end()));
}

struct Circuit {
  const char* name;
  std::size_t n_patterns;
  std::size_t n_random;
};

void PrintTo(const Circuit& c, std::ostream* os) { *os << c.name; }

class MultipletSetSemantics : public ::testing::TestWithParam<Circuit> {};

TEST_P(MultipletSetSemantics, EveryOrderGivesOneSignatureOnEveryEngine) {
  const Circuit c = GetParam();
  const Netlist nl = make_named_circuit(c.name);
  const PatternSet patterns =
      PatternSet::random(c.n_patterns, nl.n_inputs(), 0x5E7);
  std::mt19937_64 rng(0xA11);
  std::vector<std::vector<Fault>> cases =
      random_multiplets(nl, c.n_random, 0x5E75, /*transitions=*/false);
  for (int h = 0; h < 3; ++h)
    for (auto& shape : same_net_shapes(nl, pick_hub(nl, rng), rng))
      cases.push_back(std::move(shape));

  for (const SimKernel* k : available_kernels()) {
    FaultSimulator fsim(nl, patterns, *k);
    SingleFaultPropagator prop(nl, patterns, *k);
    for (std::size_t t = 0; t < cases.size(); ++t) {
      SCOPED_TRACE(std::string(c.name) + " kernel=" + k->name + " case " +
                   std::to_string(t));
      std::vector<Fault> canonical = cases[t];
      std::sort(canonical.begin(), canonical.end());
      const ErrorSignature want = fsim.signature(canonical);
      for_each_order(cases[t], [&](const std::vector<Fault>& order) {
        EXPECT_EQ(fsim.signature(order), want);
        EXPECT_EQ(prop.signature(order), want);
      });
    }
  }
}

TEST_P(MultipletSetSemantics, EveryOrderGivesOneSignatureInPairMode) {
  const Circuit c = GetParam();
  const Netlist nl = make_named_circuit(c.name);
  const PatternSet launch =
      PatternSet::random(c.n_patterns, nl.n_inputs(), 0x1A);
  const PatternSet capture =
      PatternSet::random(c.n_patterns, nl.n_inputs(), 0x1B);
  std::mt19937_64 rng(0xB22);
  std::vector<std::vector<Fault>> cases =
      random_multiplets(nl, c.n_random / 2, 0x9A1, /*transitions=*/true);
  for (auto& shape : same_net_shapes(nl, pick_hub(nl, rng), rng))
    cases.push_back(std::move(shape));
  const NetId hub = pick_hub(nl, rng);
  cases.push_back({Fault::slow_to_rise(hub), Fault::slow_to_fall(hub)});

  for (const SimKernel* k : available_kernels()) {
    PairFaultSimulator fsim(nl, launch, capture, *k);
    SingleFaultPropagator prop(nl, launch, capture, *k);
    for (std::size_t t = 0; t < cases.size(); ++t) {
      SCOPED_TRACE(std::string(c.name) + " kernel=" + k->name + " case " +
                   std::to_string(t));
      std::vector<Fault> canonical = cases[t];
      std::sort(canonical.begin(), canonical.end());
      const ErrorSignature want = fsim.signature(canonical);
      for_each_order(cases[t], [&](const std::vector<Fault>& order) {
        EXPECT_EQ(fsim.signature(order), want);
        EXPECT_EQ(prop.signature(order), want);
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, MultipletSetSemantics,
                         ::testing::Values(Circuit{"g200", 192, 24},
                                           Circuit{"g1k", 130, 12}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

/// SA0 and SA1 on one observable stem: the members' relative order used to
/// decide the composite, so an order-blind memo key could replay the
/// other order's answer.
TEST(MultipletSetSemantics, MemoEntryAnswersAnotherOrderLikeAFreshCompute) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(192, nl.n_inputs(), 0xF00D);
  FaultSimulator fsim(nl, patterns);
  const Datalog log = datalog_from_defect(
      nl, std::vector<Fault>{Fault::stem_sa(40, true)}, patterns,
      fsim.good_response());
  ASSERT_TRUE(log.has_failures());

  NetId site = kNoNet;
  for (NetId n = 0; n < nl.n_nets() && site == kNoNet; ++n)
    if (fsim.detects(Fault::stem_sa(n, false)) &&
        fsim.detects(Fault::stem_sa(n, true)))
      site = n;
  ASSERT_NE(site, kNoNet);
  const std::vector<Fault> forward{Fault::stem_sa(site, false),
                                   Fault::stem_sa(site, true)};
  const std::vector<Fault> reversed{forward[1], forward[0]};

  CompositeMemo memo(1 << 20);
  DiagnosisContext first(nl, patterns, log);
  first.attach_composite_memo(&memo);
  first.multiplet_signature(forward);
  ASSERT_EQ(memo.stats().entries, 1u);

  DiagnosisContext served(nl, patterns, log);
  served.attach_composite_memo(&memo);
  const ErrorSignature from_memo = served.multiplet_signature(reversed);

  DiagnosisContext fresh(nl, patterns, log);
  EXPECT_EQ(from_memo, fresh.multiplet_signature(reversed));
  EXPECT_EQ(from_memo, fsim.signature(reversed));
  EXPECT_EQ(from_memo, fsim.signature(forward));
}

}  // namespace
}  // namespace mdd
