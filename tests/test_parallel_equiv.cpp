// Differential tests: parallel execution ≡ serial execution, byte for
// byte, for every ExecPolicy-taking API — the site-grouped solo-signature
// batch (held to the serial FaultSimulator reference, detection included),
// the solo-signature cache warm, and whole diagnosis campaigns — at
// thread counts below, at, and far above
// the work size and the host's core count (determinism must hold
// regardless). The scheduler itself (core/exec.hpp: dynamic chunks) is
// pinned down first: coverage, skewed cost, exceptions, nesting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "diag/diagnosis.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "workload/campaign.hpp"

namespace mdd {
namespace {

const ExecPolicy kPolicies[] = {ExecPolicy::parallel(2),
                                ExecPolicy::parallel(8),
                                ExecPolicy::parallel(37)};

const std::size_t kThreadAxis[] = {1, 2, 3, 4, 8};

// ---- the scheduler ----------------------------------------------------------

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (std::size_t threads : kThreadAxis) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u, 4099u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " n=" + std::to_string(n));
      const ExecPolicy policy = ExecPolicy::parallel(threads);
      std::vector<std::atomic<int>> runs(n);
      std::atomic<bool> bad_range{false};
      parallel_for_ranges(
          policy, n,
          [&](std::size_t begin, std::size_t end, std::size_t worker) {
            if (begin >= end || end > n || worker >= worker_slots(policy, n))
              bad_range = true;
            for (std::size_t i = begin; i < end; ++i) ++runs[i];
          });
      EXPECT_FALSE(bad_range);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(runs[i].load(), 1) << "index " << i;
    }
  }
}

/// A deterministic per-index result whose cost grows steeply with the
/// index (and spikes on every 97th), so the dynamic schedule differs from
/// run to run and between thread counts.
double skewed_work(std::size_t i) {
  const std::size_t rounds = (i % 97 == 0 ? 4000 : 0) + (i * i) / 64;
  double x = static_cast<double>(i) + 1.0;
  for (std::size_t r = 0; r < rounds; ++r) x = std::sqrt(x * x + 1.0) + 1e-3;
  return x;
}

TEST(ParallelFor, SkewedCostMatchesSerial) {
  constexpr std::size_t kN = 700;
  std::vector<double> serial(kN);
  parallel_for(ExecPolicy::serial(), kN,
               [&](std::size_t i, std::size_t) { serial[i] = skewed_work(i); });
  for (std::size_t threads : kThreadAxis) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<double> par(kN, -1.0);
      std::vector<std::atomic<std::size_t>> per_worker(8);
      parallel_for(ExecPolicy::parallel(threads), kN,
                   [&](std::size_t i, std::size_t worker) {
                     par[i] = skewed_work(i);
                     ++per_worker[worker];
                   });
      EXPECT_EQ(par, serial);
      std::size_t total = 0;
      for (const auto& c : per_worker) total += c.load();
      EXPECT_EQ(total, kN);
    }
  }
}

TEST(ParallelFor, ExceptionsPropagateAndThePoolSurvives) {
  for (std::size_t threads : kThreadAxis) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ExecPolicy policy = ExecPolicy::parallel(threads);
    EXPECT_THROW(parallel_for(policy, 500,
                              [](std::size_t i, std::size_t) {
                                if (i == 333) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    // The next region on the same shared pool runs normally.
    std::atomic<std::size_t> sum{0};
    parallel_for(policy, 100, [&](std::size_t i, std::size_t) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ParallelFor, NestedRegionsRunInline) {
  const ExecPolicy policy = ExecPolicy::parallel(4);
  std::atomic<int> inner_calls{0};
  std::atomic<bool> not_inline{false};
  parallel_for(policy, 16, [&](std::size_t, std::size_t) {
    parallel_for_ranges(
        policy, 50,
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
          ++inner_calls;
          if (begin != 0 || end != 50 || worker != 0) not_inline = true;
        });
  });
  EXPECT_EQ(inner_calls.load(), 16) << "each nested region is one inline call";
  EXPECT_FALSE(not_inline);
}

/// Deterministic mixed fault list: stems, branches, and non-feedback
/// dominant bridges.
std::vector<Fault> make_fault_list(const Netlist& nl, std::size_t n,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Fault> faults;
  while (faults.size() < n) {
    const NetId net = static_cast<NetId>(rng() % nl.n_nets());
    switch (rng() % 4) {
      case 0:
        faults.push_back(Fault::stem_sa(net, rng() % 2 == 0));
        break;
      case 1: {
        const auto fi = nl.fanins(net);
        if (fi.empty()) continue;
        const std::uint32_t pin = static_cast<std::uint32_t>(rng() % fi.size());
        if (nl.fanouts(fi[pin]).size() > 1)
          faults.push_back(Fault::branch_sa(net, pin, rng() % 2 == 0));
        else
          faults.push_back(Fault::stem_sa(net, rng() % 2 == 0));
        break;
      }
      default: {
        const NetId other = static_cast<NetId>(rng() % nl.n_nets());
        if (other == net || is_feedback_pair(nl, net, other)) continue;
        faults.push_back(Fault::bridge_dom(net, other));
        break;
      }
    }
  }
  return faults;
}

void expect_equal_counts(const MatchCounts& a, const MatchCounts& b) {
  EXPECT_EQ(a.tfsf, b.tfsf);
  EXPECT_EQ(a.tfsp, b.tfsp);
  EXPECT_EQ(a.tpsf, b.tpsf);
}

class ParallelEquivFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    netlist_ = new Netlist(make_named_circuit("g200"));
    patterns_ = new PatternSet(
        PatternSet::random(192, netlist_->n_inputs(), 0xF00D));
  }
  static void TearDownTestSuite() {
    delete patterns_;
    delete netlist_;
    patterns_ = nullptr;
    netlist_ = nullptr;
  }
  static Netlist* netlist_;
  static PatternSet* patterns_;
};
Netlist* ParallelEquivFixture::netlist_ = nullptr;
PatternSet* ParallelEquivFixture::patterns_ = nullptr;

const std::size_t kBatchThreads[] = {1, 2, 3, 4, 8, 37};

TEST_F(ParallelEquivFixture, SignatureBatchMatchesSerial) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> faults = make_fault_list(*netlist_, 64, 7);
  std::vector<ErrorSignature> reference;
  for (const Fault& f : faults) reference.push_back(fsim.signature(f));
  for (std::size_t threads : kBatchThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(solo_signatures(*netlist_, *patterns_, faults,
                              ExecPolicy::parallel(threads)),
              reference);
  }
}

TEST_F(ParallelEquivFixture, MatchCountsAndScoresMatchSerial) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> faults = make_fault_list(*netlist_, 32, 11);
  // "Observed" = a 2-defect composite response.
  const std::vector<Fault> defect{faults[0], faults[15]};
  const ErrorSignature observed = fsim.signature(defect);
  const ScoreWeights weights;
  for (std::size_t threads : kBatchThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto par = solo_signatures(*netlist_, *patterns_, faults,
                                     ExecPolicy::parallel(threads));
    ASSERT_EQ(par.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const MatchCounts ms = match(observed, fsim.signature(faults[i]));
      const MatchCounts mp = match(observed, par[i]);
      expect_equal_counts(ms, mp);
      EXPECT_EQ(score_of(ms, weights), score_of(mp, weights));
    }
  }
}

TEST_F(ParallelEquivFixture, FewerFaultsThanThreads) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> faults = make_fault_list(*netlist_, 3, 13);
  std::vector<ErrorSignature> reference;
  for (const Fault& f : faults) reference.push_back(fsim.signature(f));
  EXPECT_EQ(solo_signatures(*netlist_, *patterns_, faults,
                            ExecPolicy::parallel(8)),
            reference);
  EXPECT_EQ(solo_signatures(*netlist_, *patterns_, faults,
                            ExecPolicy::parallel(37)),
            reference);
}

TEST_F(ParallelEquivFixture, ZeroFaultsIsEmptyForAnyPolicy) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> none;
  EXPECT_TRUE(fsim.detected(none).empty());
  EXPECT_EQ(fsim.coverage(none), 1.0);
  for (std::size_t threads : kBatchThreads) {
    const ExecPolicy policy = ExecPolicy::parallel(threads);
    EXPECT_TRUE(solo_signatures(*netlist_, *patterns_, none, policy).empty());
    std::size_t visits = 0;
    EXPECT_EQ(for_each_fault_by_site(
                  none, policy,
                  [&] { return SingleFaultPropagator(*netlist_, *patterns_); },
                  [&](std::size_t, SingleFaultPropagator&) { ++visits; }),
              0u);
    EXPECT_EQ(visits, 0u);
  }
}

/// Detection is a non-empty signature: the serial reference's detected /
/// coverage agree with the batch for every thread count.
TEST_F(ParallelEquivFixture, DetectionAndCoverageMatchSerial) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> faults = make_fault_list(*netlist_, 96, 17);
  const auto serial = fsim.detected(faults);
  std::size_t n_detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(serial[i], fsim.detects(faults[i])) << "fault " << i;
    n_detected += serial[i];
  }
  EXPECT_EQ(fsim.coverage(faults), static_cast<double>(n_detected) /
                                       static_cast<double>(faults.size()));
  for (std::size_t threads : kBatchThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto sigs = solo_signatures(*netlist_, *patterns_, faults,
                                      ExecPolicy::parallel(threads));
    for (std::size_t i = 0; i < faults.size(); ++i)
      EXPECT_EQ(!sigs[i].empty(), serial[i]) << "fault " << i;
  }
}

/// Every index is visited once, each site flipped once, whatever the
/// thread count — also when one site owns most of the faults.
TEST_F(ParallelEquivFixture, SiteScheduleVisitsEachFaultOnceOnSkewedGroups) {
  FaultSimulator fsim(*netlist_, *patterns_);
  std::vector<Fault> faults = make_fault_list(*netlist_, 24, 41);
  for (NetId aggressor = 0; faults.size() < 160; ++aggressor)
    if (aggressor != 21 && !is_feedback_pair(*netlist_, 21, aggressor))
      faults.push_back(Fault::bridge_dom(21, aggressor));
  std::vector<ErrorSignature> reference;
  for (const Fault& f : faults) reference.push_back(fsim.signature(f));
  std::map<NetId, std::size_t> per_site;
  for (const Fault& f : faults) ++per_site[f.net];

  obs::Counter& flips = obs::registry().counter("propagate.site_flips");
  for (std::size_t threads : kBatchThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<ErrorSignature> got(faults.size());
    std::vector<std::atomic<int>> visits(faults.size());
    const std::uint64_t before = flips.value();
    EXPECT_EQ(for_each_fault_by_site(
                  faults, ExecPolicy::parallel(threads),
                  [&] { return SingleFaultPropagator(*netlist_, *patterns_); },
                  [&](std::size_t i, SingleFaultPropagator& prop) {
                    ++visits[i];
                    got[i] = prop.signature(faults[i]);
                  }),
              0u);
    EXPECT_LE(flips.value() - before, per_site.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "fault " << i;
      EXPECT_EQ(got[i], reference[i]) << "fault " << i;
    }
  }
}

TEST_F(ParallelEquivFixture, PairSimulatorMatchesSerial) {
  const PatternSet launch =
      PatternSet::random(128, netlist_->n_inputs(), 0xA);
  const PatternSet capture =
      PatternSet::random(128, netlist_->n_inputs(), 0xB);
  PairFaultSimulator fsim(*netlist_, launch, capture);
  std::vector<Fault> faults = make_fault_list(*netlist_, 24, 19);
  // Mix in transition faults (pair-mode specific).
  std::mt19937_64 rng(23);
  for (std::size_t k = 0; k < 8; ++k) {
    const NetId net = static_cast<NetId>(rng() % netlist_->n_nets());
    faults.push_back(rng() % 2 ? Fault::slow_to_rise(net)
                               : Fault::slow_to_fall(net));
  }
  std::vector<ErrorSignature> reference;
  std::size_t n_detected = 0;
  for (const Fault& f : faults) {
    reference.push_back(fsim.signature(f));
    n_detected += fsim.detects(f);
  }
  EXPECT_EQ(fsim.coverage(faults), static_cast<double>(n_detected) /
                                       static_cast<double>(faults.size()));
  for (std::size_t threads : kBatchThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<ErrorSignature> got(faults.size());
    for_each_fault_by_site(
        faults, ExecPolicy::parallel(threads),
        [&] { return SingleFaultPropagator(*netlist_, launch, capture); },
        [&](std::size_t i, SingleFaultPropagator& prop) {
          got[i] = prop.signature(faults[i]);
        });
    EXPECT_EQ(got, reference);
  }
}

TEST_F(ParallelEquivFixture, SoloCacheWarmMatchesLazySerial) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> defect = make_fault_list(*netlist_, 2, 29);
  const Datalog log = datalog_from_defect(*netlist_, defect, *patterns_,
                                          fsim.good_response());
  ASSERT_TRUE(log.has_failures());

  DiagnosisContext lazy(*netlist_, *patterns_, log);
  for (std::size_t i = 0; i < lazy.n_candidates(); ++i) lazy.solo_signature(i);
  EXPECT_EQ(lazy.solo_compute_count(), lazy.n_candidates());

  for (const ExecPolicy& policy : kPolicies) {
    SCOPED_TRACE("n_threads=" + std::to_string(policy.n_threads));
    DiagnosisContext warm(*netlist_, *patterns_, log);
    warm.warm_solo_signatures(policy);
    EXPECT_EQ(warm.solo_compute_count(), warm.n_candidates());
    ASSERT_EQ(warm.n_candidates(), lazy.n_candidates());
    for (std::size_t i = 0; i < lazy.n_candidates(); ++i)
      EXPECT_EQ(warm.solo_signature(i), lazy.solo_signature(i)) << "i=" << i;
  }
}

/// A bridge-heavy list whose dominant bridges include feedback pairs
/// (victim in the aggressor's fan-in cone, or the other way round): the
/// machines' settled state depends on where they start, so any history
/// leaking from one fault into the next on a reused per-worker machine
/// shows up as a thread-count-dependent signature.
std::vector<Fault> bridge_heavy_list(const Netlist& nl, std::size_t n,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Fault> faults;
  std::size_t feedback = 0;
  while (faults.size() < n) {
    const NetId a = static_cast<NetId>(rng() % nl.n_nets());
    const NetId b = static_cast<NetId>(rng() % nl.n_nets());
    if (a == b) continue;
    const bool fb = is_feedback_pair(nl, a, b);
    // Keep about half of the bridges feedback ones.
    if (!fb && feedback * 2 < faults.size()) continue;
    feedback += fb;
    faults.push_back(rng() % 4 == 0 ? Fault::stem_sa(a, rng() % 2 == 0)
                                    : Fault::bridge_dom(a, b));
  }
  return faults;
}

TEST_F(ParallelEquivFixture, FeedbackBridgesMatchSerialAtEveryThreadCount) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> faults = bridge_heavy_list(*netlist_, 120, 0xFB);
  // The one-at-a-time member calls answer the same whatever the member
  // machine simulated before.
  std::vector<ErrorSignature> reference;
  for (const Fault& f : faults) reference.push_back(fsim.signature(f));
  for (std::size_t i = 0; i < faults.size(); ++i) {
    ASSERT_EQ(fsim.signature(faults[i]), reference[i]) << "fault " << i;
    EXPECT_EQ(fsim.detects(faults[i]), !reference[i].empty()) << "fault " << i;
  }
  for (std::size_t threads : kBatchThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(solo_signatures(*netlist_, *patterns_, faults,
                              ExecPolicy::parallel(threads)),
              reference);
  }
}

TEST_F(ParallelEquivFixture, CancelledWarmCountsExactlyTheSlotsLeftCold) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> defect = make_fault_list(*netlist_, 3, 31);
  const Datalog log = datalog_from_defect(*netlist_, defect, *patterns_,
                                          fsim.good_response());
  ASSERT_TRUE(log.has_failures());
  obs::Counter& dropped = obs::registry().counter("diag.warm_dropped");
  using Clock = CancelToken::Clock;
  for (std::size_t threads : kThreadAxis) {
    for (int budget_us : {0, 100, 400, 1500, 100000}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget_us=" + std::to_string(budget_us));
      DiagnosisContext ctx(*netlist_, *patterns_, log);
      const CancelToken cancel(Clock::now() +
                               std::chrono::microseconds(budget_us));
      const std::uint64_t before = dropped.value();
      ctx.warm_solo_signatures(ExecPolicy::parallel(threads), &cancel);
      const std::size_t cold = ctx.n_candidates() - ctx.solo_compute_count();
      EXPECT_EQ(dropped.value() - before, cold);
      if (budget_us == 0) EXPECT_EQ(cold, ctx.n_candidates());
    }
  }
}

/// Site-grouped warm on a pool where one site owns most candidates: a wide
/// bridge fan-out under a tight cap fills the pool with the top-support
/// victim's bridges, so one group dwarfs the others.
TEST_F(ParallelEquivFixture, SiteGroupedWarmMatchesSerialOnSkewedGroups) {
  FaultSimulator fsim(*netlist_, *patterns_);
  const std::vector<Fault> defect{Fault::stem_sa(21, true)};
  const Datalog log = datalog_from_defect(*netlist_, defect, *patterns_,
                                          fsim.good_response());
  ASSERT_TRUE(log.has_failures());
  CandidateOptions options;
  options.bridge_partners = 400;
  options.max_candidates = 120;

  DiagnosisContext serial(*netlist_, *patterns_, log, options);
  std::map<NetId, std::size_t> per_site;
  for (const Fault& f : serial.pool().faults) ++per_site[f.net];
  std::size_t largest = 0;
  for (const auto& [site, n] : per_site) largest = std::max(largest, n);
  ASSERT_GE(per_site.size(), 3u);
  ASSERT_GT(2 * largest, serial.n_candidates());

  obs::Counter& flips = obs::registry().counter("propagate.site_flips");
  std::uint64_t before = flips.value();
  serial.warm_solo_signatures(ExecPolicy::serial());
  const std::uint64_t serial_flips = flips.value() - before;
  EXPECT_EQ(serial.solo_compute_count(), serial.n_candidates());
  EXPECT_LE(serial_flips, per_site.size());

  for (std::size_t threads : kThreadAxis) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DiagnosisContext warm(*netlist_, *patterns_, log, options);
    before = flips.value();
    warm.warm_solo_signatures(ExecPolicy::parallel(threads));
    // Each site is flipped once, by whichever worker drew its group.
    EXPECT_EQ(flips.value() - before, serial_flips);
    EXPECT_EQ(warm.solo_compute_count(), warm.n_candidates());
    ASSERT_EQ(warm.n_candidates(), serial.n_candidates());
    for (std::size_t i = 0; i < serial.n_candidates(); ++i)
      ASSERT_EQ(warm.solo_signature(i), serial.solo_signature(i))
          << "i=" << i;
  }
}

/// All deterministic aggregate fields (cpu sums are measured wall time and
/// excluded by design — see CampaignConfig::exec).
void expect_equal_aggregate(const MethodAggregate& a,
                            const MethodAggregate& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.n_cases, b.n_cases);
  EXPECT_EQ(a.sum_hit_rate, b.sum_hit_rate);
  EXPECT_EQ(a.sum_precision, b.sum_precision);
  EXPECT_EQ(a.sum_resolution, b.sum_resolution);
  EXPECT_EQ(a.n_all_hit, b.n_all_hit);
  EXPECT_EQ(a.n_first_hit, b.n_first_hit);
  EXPECT_EQ(a.n_exact, b.n_exact);
}

void expect_equal_campaign(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.n_cases, b.n_cases);
  EXPECT_EQ(a.avg_failing_patterns, b.avg_failing_patterns);
  EXPECT_EQ(a.avg_failing_bits, b.avg_failing_bits);
  EXPECT_EQ(a.avg_slat_fraction, b.avg_slat_fraction);
  expect_equal_aggregate(a.single, b.single);
  expect_equal_aggregate(a.slat, b.slat);
  expect_equal_aggregate(a.multiplet, b.multiplet);
}

TEST_F(ParallelEquivFixture, CampaignTableMatchesSerial) {
  CampaignConfig cfg;
  cfg.n_cases = 6;
  cfg.defect.multiplicity = 2;
  cfg.seed = 0xCAFE;
  cfg.exec = ExecPolicy::serial();
  const CampaignResult serial = run_campaign(*netlist_, *patterns_, cfg);
  ASSERT_GT(serial.n_cases, 0u);
  for (const ExecPolicy& policy : kPolicies) {
    SCOPED_TRACE("n_threads=" + std::to_string(policy.n_threads));
    cfg.exec = policy;
    expect_equal_campaign(run_campaign(*netlist_, *patterns_, cfg), serial);
  }
}

TEST_F(ParallelEquivFixture, TdfCampaignTableMatchesSerial) {
  const PatternSet launch =
      PatternSet::random(128, netlist_->n_inputs(), 0xC);
  const PatternSet capture =
      PatternSet::random(128, netlist_->n_inputs(), 0xD);
  CampaignConfig cfg;
  cfg.n_cases = 4;
  cfg.defect.multiplicity = 2;
  cfg.seed = 0xBEE;
  cfg.exec = ExecPolicy::serial();
  const CampaignResult serial =
      run_tdf_campaign(*netlist_, launch, capture, cfg);
  ASSERT_GT(serial.n_cases, 0u);
  for (const ExecPolicy& policy : {ExecPolicy::parallel(2),
                                   ExecPolicy::parallel(8)}) {
    SCOPED_TRACE("n_threads=" + std::to_string(policy.n_threads));
    cfg.exec = policy;
    expect_equal_campaign(run_tdf_campaign(*netlist_, launch, capture, cfg),
                          serial);
  }
}

TEST_F(ParallelEquivFixture, ZeroCaseCampaignIsEmpty) {
  CampaignConfig cfg;
  cfg.n_cases = 0;
  for (const ExecPolicy& policy :
       {ExecPolicy::serial(), ExecPolicy::parallel(8)}) {
    cfg.exec = policy;
    const CampaignResult r = run_campaign(*netlist_, *patterns_, cfg);
    EXPECT_EQ(r.n_cases, 0u);
  }
}

}  // namespace
}  // namespace mdd
