// Unit tests: candidate extraction.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <random>

#include "diag/candidates.hpp"
#include "diag/diagnosis.hpp"
#include "netlist/generator.hpp"

namespace mdd {
namespace {

struct Case {
  Netlist netlist;
  PatternSet patterns;
  PatternSet good;

  explicit Case(const std::string& name, std::size_t n_patterns = 256)
      : netlist(make_named_circuit(name)),
        patterns(PatternSet::random(n_patterns, netlist.n_inputs(), 17)),
        good(simulate(netlist, patterns)) {}

  Datalog log(std::span<const Fault> defect) const {
    return datalog_from_defect(netlist, defect, patterns, good);
  }
};

/// Property: for random detectable stuck-at defects, the candidate pool
/// contains the injected fault (or an equivalent: same net, right value).
TEST(Candidates, InjectedStuckAtInPool) {
  const Case tc("g200");
  FaultSimulator fsim(tc.netlist, tc.patterns);
  std::mt19937_64 rng(23);
  std::size_t tested = 0;
  while (tested < 25) {
    const NetId net = rng() % tc.netlist.n_nets();
    const Fault f = Fault::stem_sa(net, rng() & 1);
    if (!fsim.detects(f)) continue;
    ++tested;
    const Datalog log = tc.log({&f, 1});
    const CandidatePool pool =
        extract_candidates(tc.netlist, tc.patterns, log);
    const bool found =
        std::find(pool.faults.begin(), pool.faults.end(), f) !=
        pool.faults.end();
    EXPECT_TRUE(found) << to_string(f, tc.netlist);
  }
}

TEST(Candidates, SupportIsDescending) {
  const Case tc("g200");
  const Fault f = Fault::stem_sa(tc.netlist.find_net("g_50"), false);
  const Datalog log = tc.log({&f, 1});
  const CandidatePool pool = extract_candidates(tc.netlist, tc.patterns, log);
  ASSERT_EQ(pool.faults.size(), pool.support.size());
  for (std::size_t i = 1; i < pool.support.size(); ++i)
    EXPECT_LE(pool.support[i], pool.support[i - 1]);
}

TEST(Candidates, BridgeVictimGetsAggressorCandidates) {
  const Case tc("g200");
  FaultSimulator fsim(tc.netlist, tc.patterns);
  std::mt19937_64 rng(29);
  for (int iter = 0; iter < 40; ++iter) {
    const NetId victim = rng() % tc.netlist.n_nets();
    const NetId aggressor = rng() % tc.netlist.n_nets();
    if (victim == aggressor) continue;
    if (is_feedback_pair(tc.netlist, victim, aggressor)) continue;
    const Fault f = Fault::bridge_dom(victim, aggressor);
    if (!fsim.detects(f)) continue;
    const Datalog log = tc.log({&f, 1});
    CandidateOptions opt;
    opt.bridge_partners = 64;  // generous pool for the test
    const CandidatePool pool =
        extract_candidates(tc.netlist, tc.patterns, log, opt);
    // Some dominant bridge on this victim must be present.
    bool victim_bridge = false;
    for (const Fault& c : pool.faults)
      if (c.kind == FaultKind::BridgeDom && c.net == victim)
        victim_bridge = true;
    EXPECT_TRUE(victim_bridge) << to_string(f, tc.netlist);
    return;  // one solid case is enough
  }
  GTEST_SKIP() << "no detectable bridge sampled";
}

TEST(Candidates, BridgesCanBeDisabled) {
  const Case tc("g200");
  const Fault f = Fault::stem_sa(tc.netlist.find_net("g_50"), false);
  const Datalog log = tc.log({&f, 1});
  CandidateOptions opt;
  opt.include_bridges = false;
  const CandidatePool pool =
      extract_candidates(tc.netlist, tc.patterns, log, opt);
  for (const Fault& c : pool.faults) EXPECT_TRUE(c.is_stuck_at());
}

TEST(Candidates, MaxCandidatesCap) {
  const Case tc("g200");
  const Fault f = Fault::stem_sa(tc.netlist.find_net("g_50"), false);
  const Datalog log = tc.log({&f, 1});
  CandidateOptions opt;
  opt.max_candidates = 10;
  const CandidatePool pool =
      extract_candidates(tc.netlist, tc.patterns, log, opt);
  EXPECT_LE(pool.faults.size(), 10u);
  EXPECT_FALSE(pool.faults.empty());
}

TEST(Candidates, EmptyDatalogYieldsEmptyPool) {
  const Case tc("c17", 32);
  Datalog log;
  log.observed = ErrorSignature(32, tc.netlist.n_outputs());
  log.n_patterns_applied = 32;
  const CandidatePool pool = extract_candidates(tc.netlist, tc.patterns, log);
  EXPECT_TRUE(pool.faults.empty());
}

// ---- golden pools ----
//
// Extraction is pinned bit for bit: every pool below (faults, order and
// support) and every trace offered to a CptTraceStore hashes to a digest
// recorded from the per-pattern scalar tracer the block tracer replaced.
// A change to tracing, partner scan or ranking that moves any candidate
// moves a digest.

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ull;  // FNV-1a
  }
}

void mix(std::uint64_t& h, const Fault& f) {
  mix(h, static_cast<std::uint64_t>(f.kind));
  mix(h, f.net);
  mix(h, f.pin);
  mix(h, f.bridge_net);
}

void mix(std::uint64_t& h, const CandidatePool& pool) {
  mix(h, pool.faults.size());
  for (std::size_t i = 0; i < pool.faults.size(); ++i) {
    mix(h, pool.faults[i]);
    mix(h, pool.support[i]);
  }
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Detectable multiplets of 2..4 members mixing stem/branch stuck-at and
/// non-feedback dominant bridges, deterministic in `seed`.
std::vector<std::vector<Fault>> sample_multiplets(const Netlist& nl,
                                                  FaultSimulator& fsim,
                                                  std::size_t count,
                                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<Fault> stuck = all_stuck_at_faults(nl);
  std::vector<std::vector<Fault>> out;
  while (out.size() < count) {
    std::vector<Fault> m;
    const std::size_t k = 2 + out.size() % 3;
    while (m.size() < k) {
      Fault f = stuck[rng() % stuck.size()];
      if (rng() % 3 == 0) {
        const NetId v = rng() % nl.n_nets();
        const NetId a = rng() % nl.n_nets();
        if (v == a || is_feedback_pair(nl, v, a)) continue;
        f = Fault::bridge_dom(v, a);
      }
      if (fsim.detects(f)) m.push_back(f);
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// Records every trace offered to it; never answers a lookup.
class RecordingStore : public CptTraceStore {
 public:
  std::shared_ptr<const std::vector<Fault>> lookup(std::uint32_t,
                                                   std::uint32_t) override {
    return nullptr;
  }
  void store(std::uint32_t pattern, std::uint32_t po,
             std::shared_ptr<const std::vector<Fault>> faults) override {
    std::lock_guard lock(mu_);
    traces_[{pattern, po}] = std::move(faults);
  }
  std::uint64_t digest() const {
    std::uint64_t h = kFnvBasis;
    for (const auto& [key, faults] : traces_) {
      mix(h, key.first);
      mix(h, key.second);
      mix(h, faults->size());
      for (const Fault& f : *faults) mix(h, f);
    }
    return h;
  }
  std::size_t size() const { return traces_.size(); }

 private:
  std::mutex mu_;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::shared_ptr<const std::vector<Fault>>>
      traces_;
};

struct GoldenDigests {
  std::uint64_t pools = kFnvBasis;
  std::uint64_t traces = 0;
  std::size_t max_failing = 0;
};

GoldenDigests static_golden(const std::string& circuit, std::size_t n_logs,
                            const CandidateOptions& base) {
  const Case tc(circuit);
  FaultSimulator fsim(tc.netlist, tc.patterns);
  RecordingStore store;
  GoldenDigests g;
  for (const auto& m : sample_multiplets(tc.netlist, fsim, n_logs, 0x901D)) {
    const Datalog log = tc.log(m);
    g.max_failing = std::max(g.max_failing, log.observed.n_failing_patterns());
    CandidateOptions opt = base;
    opt.trace_store = &store;
    mix(g.pools, extract_candidates(tc.netlist, tc.patterns, log, opt));
  }
  g.traces = store.digest();
  return g;
}

TEST(CandidatesGolden, StaticPoolsG200) {
  const GoldenDigests g = static_golden("g200", 12, {});
  EXPECT_GT(g.max_failing, 64u);  // spread tracing is exercised
  EXPECT_EQ(g.pools, 0x2e6e16fa41a74b45ull);
  EXPECT_EQ(g.traces, 0x84d6ee9b059a753eull);
}

TEST(CandidatesGolden, StaticPoolsG200TightBudgets) {
  CandidateOptions opt;
  opt.max_traced_patterns = 13;
  opt.bridge_partners = 5;
  opt.max_candidates = 300;
  const GoldenDigests g = static_golden("g200", 8, opt);
  EXPECT_EQ(g.pools, 0xd97efafdbae1ea94ull);
  EXPECT_EQ(g.traces, 0xd4a0c517554e1e8dull);
}

/// Static extraction traces at most one tracer block: a budget above 64
/// failing patterns yields exactly the 64-pattern pools and traces.
TEST(CandidatesGolden, StaticBudgetAboveOneBlockIsOneBlock) {
  CandidateOptions wide;
  wide.max_traced_patterns = 200;
  const GoldenDigests g64 = static_golden("g200", 12, {});
  const GoldenDigests g200 = static_golden("g200", 12, wide);
  ASSERT_GT(g200.max_failing, 64u);
  EXPECT_EQ(g200.pools, g64.pools);
  EXPECT_EQ(g200.traces, g64.traces);
}

TEST(CandidatesGolden, StaticPoolsG1k) {
  const GoldenDigests g = static_golden("g1k", 4, {});
  EXPECT_EQ(g.pools, 0xad75dfe6a80a4f57ull);
  EXPECT_EQ(g.traces, 0x8aff98a2b0513682ull);
}

GoldenDigests tdf_golden(std::size_t max_traced) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet launch = PatternSet::random(300, nl.n_inputs(), 71);
  const PatternSet capture = PatternSet::random(300, nl.n_inputs(), 72);
  PairFaultSimulator fsim(nl, launch, capture);
  std::mt19937_64 rng(0x7DF);
  GoldenDigests g;
  CandidateOptions opt;
  opt.max_traced_patterns = max_traced;
  for (std::size_t c = 0; c < 6; ++c) {
    std::vector<Fault> m;
    while (m.size() < 2 + c % 3) {
      const NetId n = rng() % nl.n_nets();
      const Fault f = rng() % 4 == 0 ? Fault::stem_sa(n, rng() & 1)
                      : (rng() & 1)  ? Fault::slow_to_rise(n)
                                     : Fault::slow_to_fall(n);
      if (fsim.detects(f)) m.push_back(f);
    }
    const Datalog log = datalog_from_defect_pair(nl, m, launch, capture,
                                                 fsim.good_response());
    g.max_failing = std::max(g.max_failing, log.observed.n_failing_patterns());
    mix(g.pools, extract_tdf_candidates(nl, launch, capture, log, opt));
  }
  return g;
}

TEST(CandidatesGolden, TdfPoolsOneBlock) {
  const GoldenDigests g = tdf_golden(64);
  EXPECT_GT(g.max_failing, 64u);
  EXPECT_EQ(g.pools, 0x296004447d037f1cull);
}

/// More than 64 traced capture patterns: tracing spans several blocks.
TEST(CandidatesGolden, TdfPoolsSeveralBlocks) {
  const GoldenDigests g = tdf_golden(200);
  EXPECT_GT(g.max_failing, 130u);
  EXPECT_EQ(g.pools, 0x8f68b373f5d458c9ull);
}

}  // namespace
}  // namespace mdd
