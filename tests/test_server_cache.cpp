// Tests for the daemon's circuit session cache: hit/miss accounting, the
// precomputed per-session state (good response, propagator baseline,
// memos), LRU eviction against the byte budget, survival of evicted
// sessions held by in-flight requests, and concurrent access (this file
// builds into the tsan-labelled binary).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fsim/fsim.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "server/session_cache.hpp"
#include "workload/textio.hpp"

namespace mdd::server {
namespace {

/// Writes the g200 circuit + a 64-pattern set under unique names in the
/// test temp dir and returns the two paths. `tag` keeps per-test files
/// (and, with distinct tags, distinct cache keys) apart.
struct CircuitFiles {
  std::string netlist_path;
  std::string patterns_path;
};

CircuitFiles write_circuit_files(const std::string& tag) {
  const Netlist netlist = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(64, netlist.n_inputs(), 7);
  CircuitFiles f;
  f.netlist_path = ::testing::TempDir() + "cache_" + tag + ".bench";
  f.patterns_path = ::testing::TempDir() + "cache_" + tag + ".patterns";
  std::ofstream bench(f.netlist_path);
  bench << write_bench_string(netlist);
  bench.close();
  write_patterns_file(f.patterns_path, patterns);
  return f;
}

/// Asserts the byte-accounting invariant: the running `bytes_` total must
/// equal the sum of resident sessions' approx_bytes, and the LRU index
/// bookkeeping must be self-consistent.
/// Called after every mutation-heavy sequence in this file so any drift
/// across load/evict/pin paths fails loudly at the point it appears.
void expect_sound_accounting(const SessionCache& cache) {
  const SessionCache::AccountingCheck check = cache.check_accounting();
  EXPECT_TRUE(check.ok) << check.detail;
  EXPECT_EQ(check.accounted, check.recomputed) << check.detail;
}

TEST(SessionCache, MissThenHitSharesOneSession) {
  const CircuitFiles f = write_circuit_files("hit");
  SessionCache cache(1ull << 30);

  bool hit = true;
  const auto first = cache.get(f.netlist_path, f.patterns_path, &hit);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(hit);

  const auto second = cache.get(f.netlist_path, f.patterns_path, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(second.get(), first.get());

  const SessionCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, first->approx_bytes);
  EXPECT_GT(s.bytes, 0u);
  expect_sound_accounting(cache);
}

TEST(SessionCache, SessionPrecomputesSharedState) {
  const CircuitFiles f = write_circuit_files("state");
  SessionCache cache(1ull << 30);
  const auto session = cache.get(f.netlist_path, f.patterns_path);

  // Propagator baseline: one [block][net] row per 64-pattern block, plus
  // the good PO response — exactly what a fresh simulation produces.
  ASSERT_NE(session->baseline, nullptr);
  EXPECT_EQ(session->baseline->good,
            simulate(session->netlist, session->patterns));
  const std::size_t n_blocks = (session->patterns.n_patterns() + 63) / 64;
  ASSERT_EQ(session->baseline->values.size(), n_blocks);
  for (const auto& block : session->baseline->values)
    EXPECT_EQ(block.size(), session->netlist.n_nets());

  // Cross-request memos exist (empty until requests populate them).
  ASSERT_NE(session->memo, nullptr);
  ASSERT_NE(session->traces, nullptr);
  EXPECT_EQ(session->memo->stats().entries, 0u);
  EXPECT_EQ(session->traces->stats().entries, 0u);

  EXPECT_EQ(approx_session_bytes(*session), session->approx_bytes);
}

TEST(SessionCache, EvictsLeastRecentlyUsed) {
  const CircuitFiles a = write_circuit_files("lru_a");
  const CircuitFiles b = write_circuit_files("lru_b");
  const CircuitFiles c = write_circuit_files("lru_c");

  // Scout load to learn one session's footprint, then size the budget to
  // hold exactly two of the three (all identical circuits).
  std::size_t one;
  {
    SessionCache scout(1ull << 30);
    one = scout.get(a.netlist_path, a.patterns_path)->approx_bytes;
    ASSERT_GT(one, 0u);
  }

  SessionCache cache(2 * one + one / 2);
  cache.get(a.netlist_path, a.patterns_path);
  cache.get(b.netlist_path, b.patterns_path);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch A so B becomes the least recently used, then load C: B must be
  // the one evicted.
  bool hit = false;
  cache.get(a.netlist_path, a.patterns_path, &hit);
  EXPECT_TRUE(hit);
  cache.get(c.netlist_path, c.patterns_path);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.get(a.netlist_path, a.patterns_path, &hit);
  EXPECT_TRUE(hit) << "recently-used A should have survived";
  cache.get(b.netlist_path, b.patterns_path, &hit);
  EXPECT_FALSE(hit) << "LRU B should have been evicted";
  expect_sound_accounting(cache);
}

TEST(SessionCache, EvictedSessionSurvivesForHolders) {
  const CircuitFiles a = write_circuit_files("hold_a");
  const CircuitFiles b = write_circuit_files("hold_b");

  std::size_t one;
  {
    SessionCache scout(1ull << 30);
    one = scout.get(a.netlist_path, a.patterns_path)->approx_bytes;
  }

  // Budget below two sessions: loading B evicts A while we still hold A's
  // shared_ptr — the in-flight-request scenario.
  SessionCache cache(one + one / 2);
  const auto held = cache.get(a.netlist_path, a.patterns_path);
  cache.get(b.netlist_path, b.patterns_path);
  EXPECT_GE(cache.stats().evictions, 1u);

  // The evicted session remains fully usable.
  EXPECT_EQ(held->baseline->good, simulate(held->netlist, held->patterns));
  expect_sound_accounting(cache);
}

TEST(SessionCache, PinnedSessionSurvivesEvictionPressure) {
  const CircuitFiles a = write_circuit_files("pin_a");
  const CircuitFiles b = write_circuit_files("pin_b");
  const CircuitFiles c = write_circuit_files("pin_c");

  std::size_t one;
  {
    SessionCache scout(1ull << 30);
    one = scout.get(a.netlist_path, a.patterns_path)->approx_bytes;
  }

  // Budget holds two sessions. Pin A (the batch-in-flight scenario), then
  // make A the LRU victim by touching B and loading C: the sweep must skip
  // pinned A and evict B instead.
  SessionCache cache(2 * one + one / 2);
  const SessionCache::Pin pin = cache.pin(a.netlist_path, a.patterns_path);
  cache.get(a.netlist_path, a.patterns_path);
  cache.get(b.netlist_path, b.patterns_path);
  cache.get(c.netlist_path, c.patterns_path);
  EXPECT_EQ(cache.stats().evictions, 1u);

  bool hit = false;
  cache.get(a.netlist_path, a.patterns_path, &hit);
  EXPECT_TRUE(hit) << "pinned LRU session must not be evicted";
  cache.get(b.netlist_path, b.patterns_path, &hit);
  EXPECT_FALSE(hit) << "unpinned B should have been the victim";
  expect_sound_accounting(cache);
}

TEST(SessionCache, ReleasedPinMakesSessionEvictableAgain) {
  const CircuitFiles a = write_circuit_files("unpin_a");
  const CircuitFiles b = write_circuit_files("unpin_b");
  const CircuitFiles c = write_circuit_files("unpin_c");

  std::size_t one;
  {
    SessionCache scout(1ull << 30);
    one = scout.get(a.netlist_path, a.patterns_path)->approx_bytes;
  }

  SessionCache cache(2 * one + one / 2);
  {
    const SessionCache::Pin pin =
        cache.pin(a.netlist_path, a.patterns_path);
    cache.get(a.netlist_path, a.patterns_path);
    cache.get(b.netlist_path, b.patterns_path);
  }  // pin released: A is ordinary LRU state again
  cache.get(b.netlist_path, b.patterns_path);  // A becomes LRU
  cache.get(c.netlist_path, c.patterns_path);

  bool hit = true;
  cache.get(a.netlist_path, a.patterns_path, &hit);
  EXPECT_FALSE(hit) << "released pin must not keep protecting A";
  expect_sound_accounting(cache);
}

TEST(SessionCache, ReleasingTheLastPinEnforcesTheBudget) {
  const CircuitFiles a = write_circuit_files("over_a");
  const CircuitFiles b = write_circuit_files("over_b");
  const CircuitFiles c = write_circuit_files("over_c");

  std::size_t one;
  {
    SessionCache scout(1ull << 30);
    one = scout.get(a.netlist_path, a.patterns_path)->approx_bytes;
  }

  // Budget for two; all three pinned while they load, so the sweep has to
  // skip every victim and the cache ends over budget.
  SessionCache cache(2 * one + one / 2);
  {
    const SessionCache::Pin pa = cache.pin(a.netlist_path, a.patterns_path);
    const SessionCache::Pin pb = cache.pin(b.netlist_path, b.patterns_path);
    const SessionCache::Pin pc = cache.pin(c.netlist_path, c.patterns_path);
    cache.get(a.netlist_path, a.patterns_path);
    cache.get(b.netlist_path, b.patterns_path);
    cache.get(c.netlist_path, c.patterns_path);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.stats().entries, 3u);
  }  // vetoes lifted: the excess goes now, not at some later miss
  const SessionCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, s.max_bytes);
  expect_sound_accounting(cache);
}

TEST(SessionCache, NestedPinsReleaseIndependently) {
  const CircuitFiles a = write_circuit_files("nest_a");
  const CircuitFiles b = write_circuit_files("nest_b");
  const CircuitFiles c = write_circuit_files("nest_c");

  std::size_t one;
  {
    SessionCache scout(1ull << 30);
    one = scout.get(a.netlist_path, a.patterns_path)->approx_bytes;
  }

  // Two concurrent batches pin the same session; releasing one must keep
  // the other's protection intact.
  SessionCache cache(2 * one + one / 2);
  const SessionCache::Pin outer =
      cache.pin(a.netlist_path, a.patterns_path);
  {
    const SessionCache::Pin inner =
        cache.pin(a.netlist_path, a.patterns_path);
  }
  cache.get(a.netlist_path, a.patterns_path);
  cache.get(b.netlist_path, b.patterns_path);
  cache.get(c.netlist_path, c.patterns_path);

  bool hit = false;
  cache.get(a.netlist_path, a.patterns_path, &hit);
  EXPECT_TRUE(hit) << "one released pin of two must not unpin the session";
  expect_sound_accounting(cache);
}

TEST(SessionCache, LoadFailureIsNotCached) {
  const CircuitFiles f = write_circuit_files("fail");
  const std::string missing = ::testing::TempDir() + "cache_nosuch.bench";
  SessionCache cache(1ull << 30);

  EXPECT_THROW(cache.get(missing, f.patterns_path), std::runtime_error);
  EXPECT_THROW(cache.get(missing, f.patterns_path), std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0u);

  // A malformed pattern file fails too, and the failure is not sticky for
  // the valid pair.
  const std::string bad = ::testing::TempDir() + "cache_bad.patterns";
  std::ofstream(bad) << "patterns 0\n";
  EXPECT_THROW(cache.get(f.netlist_path, bad), std::runtime_error);

  bool hit = true;
  const auto session = cache.get(f.netlist_path, f.patterns_path, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  expect_sound_accounting(cache);
}

TEST(SessionCacheStress, ConcurrentGetsShareOneLoad) {
  const CircuitFiles f = write_circuit_files("conc");
  SessionCache cache(1ull << 30);

  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const Session>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { got[t] = cache.get(f.netlist_path, f.patterns_path); });
  for (std::thread& t : threads) t.join();

  // Everyone observes the same session object — one load, shared.
  for (std::size_t t = 1; t < kThreads; ++t)
    EXPECT_EQ(got[t].get(), got[0].get());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SessionCacheStress, ConcurrentDistinctCircuitsLoadIndependently) {
  const CircuitFiles a = write_circuit_files("par_a");
  const CircuitFiles b = write_circuit_files("par_b");
  SessionCache cache(1ull << 30);

  std::vector<std::shared_ptr<const Session>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      const CircuitFiles& f = (t % 2 == 0) ? a : b;
      got[t] = cache.get(f.netlist_path, f.patterns_path);
    });
  for (std::thread& t : threads) t.join();

  for (std::size_t t = 2; t < got.size(); ++t)
    EXPECT_EQ(got[t].get(), got[t % 2].get());
  EXPECT_NE(got[0].get(), got[1].get());
  EXPECT_EQ(cache.stats().entries, 2u);
  expect_sound_accounting(cache);
}

TEST(SessionCacheStress, ChurnKeepsByteAccountingExact) {
  // Hammer the load/evict/pin/release paths from several threads under a
  // budget that forces constant eviction, then assert the running byte
  // total still matches a recomputation. Any leak (evicted bytes not
  // subtracted, double-subtraction on a pin/evict race) shows up as
  // accounted != recomputed. Eviction is certain, whatever the
  // interleaving: if every load raced pins on all the other sessions,
  // all three end resident over budget, and releasing the last pin
  // evicts the excess.
  const CircuitFiles files[3] = {write_circuit_files("churn_a"),
                                 write_circuit_files("churn_b"),
                                 write_circuit_files("churn_c")};

  std::size_t one;
  {
    SessionCache scout(1ull << 30);
    one = scout.get(files[0].netlist_path, files[0].patterns_path)
              ->approx_bytes;
  }

  // Room for two of the three sessions: every third distinct get evicts.
  SessionCache cache(2 * one + one / 2);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIters = 6;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const CircuitFiles& f = files[(t + i) % 3];
        const SessionCache::Pin pin =
            cache.pin(f.netlist_path, f.patterns_path);
        const auto session = cache.get(f.netlist_path, f.patterns_path);
        EXPECT_NE(session, nullptr);
        // Also churn a neighbour without pinning it, so pinned and
        // unpinned entries compete for the same budget.
        cache.get(files[(t + i + 1) % 3].netlist_path,
                  files[(t + i + 1) % 3].patterns_path);
      }
    });
  for (std::thread& t : threads) t.join();

  const SessionCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u) << "budget was meant to force eviction churn";
  EXPECT_LE(s.entries, 3u);
  expect_sound_accounting(cache);
}

}  // namespace
}  // namespace mdd::server
